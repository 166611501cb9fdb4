"""Smoke test of ``tools/reach.py``, the rerun of README's reach tables."""

import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "reach.py")


def test_reach_runs_one_case_in_a_capped_child(capsys):
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    assert len(reach.CASES) == 12
    [result] = reach.main([reach.df_channel(4)])
    assert json.loads(capsys.readouterr().out) == result
    assert result["case"] == "df-channel-random-unital-n4"
    assert result["exit"] == 0
    assert 0 <= result["seconds"] < 60
    assert 0 < result["peak_rss_mb"] < 1024
