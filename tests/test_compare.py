"""Smoke test of ``tools/compare.py``, the in-process A/B against a git revision."""

import importlib.util
import json
import math
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "compare.py")


def test_compare_prints_one_finite_ratio_per_line(capsys):
    if subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True).returncode:
        pytest.skip("the base tree comes from git history")
    spec = importlib.util.spec_from_file_location("compare", TOOL)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    lines = compare.main("HEAD", ["df-structure"], [301], 1)
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == lines
    [line] = lines
    assert (line["workload"], line["seed"], line["rounds"]) == ("df-structure", 301, 1)
    assert math.isfinite(line["ratio"]) and line["ratio"] > 0
    for side in ("tree_minflt", "base_minflt"):
        assert math.isfinite(line[side]) and line[side] >= 0
