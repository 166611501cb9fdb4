"""Smoke test of ``tools/reach.py``, the rerun of README's reach tables, and the reach
cases that tier-1 runs under 1 GiB on the inputs the tool writes."""

import json

import pytest


def test_reach_runs_one_case_in_a_capped_child(reach, capsys):
    assert len(reach.CASES) == 20
    [result] = reach.main([reach.df_channel(4)])
    assert json.loads(capsys.readouterr().out) == result
    assert result["case"] == "df-channel-random-unital-n4"
    assert result["exit"] == 0
    assert 0 <= result["seconds"] < 60
    assert 0 < result["peak_rss_mb"] < 1024


@pytest.mark.parametrize("name", [
    # a Kraus sum and the commutant of the pair products W_a W_b†, whose unknowns are
    # matrix units: no n^2 x n^2 matrix (268 MB alone at n = 64), no n^2 x n array at 256
    "df-channel-random-unital-n64", "df-channel-random-unital-n256",
    # N_Gamma is the diagonal algebra and the recursion ties one pair of diagonal
    # entries per step: 63 steps down to C 1
    "df-channel-shift-pinching-n64",
    # stationarity is L*(sigma) on one matrix and the detailed-balance residuals are
    # Kronecker-sum norms: no n^2 x n^2 matrix
    "df-thermal-ladder-n64", "df-thermal-ladder-n256", "analyze-semigroup-thermal-ladder-n64",
    # the recursion applies i[H, .] to operator stacks, and the global residual is a
    # Kronecker-sum norm of the generator's terms (268 MB alone at n = 64)
    "df-private-bath-N6", "invariance-private-bath-N6",
])
def test_case_within_one_gib(reach, tmp_path, name):
    [case] = [case for case in reach.CASES if case["case"] == name]
    result = reach.run(case, str(tmp_path))
    assert (result["exit"], result["expected"]) == (0, True), result
