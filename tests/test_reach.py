"""Smoke test of ``tools/reach.py``, the rerun of README's reach tables, and the reach
cases that tier-1 runs under 1 GiB on the inputs the tool writes."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "reach.py")


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_runs_one_case_in_a_capped_child(reach, capsys):
    assert len(reach.CASES) == 17
    [result] = reach.main([reach.df_channel(4)])
    assert json.loads(capsys.readouterr().out) == result
    assert result["case"] == "df-channel-random-unital-n4"
    assert result["exit"] == 0
    assert 0 <= result["seconds"] < 60
    assert 0 < result["peak_rss_mb"] < 1024


def test_shift_pinching_chain_at_the_cap_within_one_gib(reach, tmp_path, run_within_one_gib):
    # N_Gamma is the diagonal algebra and the recursion ties one pair of diagonal
    # entries per step: 63 steps down to C 1, with the 2,080 pair products of the 64
    # reduced Kraus operators stacked before the commutant drops the zero ones
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(reach.df_shift_pinching(64)["inputs"]["channel"]()))
    run = run_within_one_gib("import sys\nfrom decofree.cli import main\n"
                             "sys.exit(main(sys.argv[1:]))\n", "df", "--channel", str(path))
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert (report["dimension"], report["k_used"]) == (1, 64)
