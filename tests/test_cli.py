import itertools
import json

import numpy as np
import pytest
from scipy.linalg import expm

from decofree.algebra import MatrixAlgebra
from decofree.born import ControlTrajectory
from decofree.channels import channel_from_superop, dephasing_channel
from decofree.cli import main
from decofree.jsonio import (
    channel_to_json,
    dump_json,
    generator_to_json,
    matrix_from_json,
    matrix_to_json,
    trajectory_to_json,
    vector_to_json,
)
from decofree.lindblad import GKLSGenerator
from decofree.operators import eye, random_hermitian, sm, sx, sz
from decofree.symmetry import build_superradiance_generator, permutation_matrix


@pytest.fixture
def workdir(tmp_path):
    files = {}
    files["dephasing"] = tmp_path / "dephasing.json"
    dump_json(channel_to_json(dephasing_channel(0.25)), str(files["dephasing"]))

    files["bad_channel"] = tmp_path / "bad.json"
    dump_json({"dim": 2, "kraus": [matrix_to_json(np.diag([1.0, 0.5]))]},
              str(files["bad_channel"]))

    files["damping"] = tmp_path / "damping.json"
    dump_json(generator_to_json(GKLSGenerator(np.zeros((2, 2)), [sm])), str(files["damping"]))

    files["traj"] = tmp_path / "traj.json"
    dump_json(trajectory_to_json(ControlTrajectory(1.0, [(2.0, np.zeros((2, 2)))])),
              str(files["traj"]))

    files["coupling"] = tmp_path / "coupling.json"
    dump_json({"S": [matrix_to_json(sz)],
               "bath": {"type": "gaussian", "coupling": 0.01, "width": 2.0}},
              str(files["coupling"]))

    files["plus"] = tmp_path / "plus.json"
    dump_json(vector_to_json(np.array([1.0, 1.0]) / np.sqrt(2.0)), str(files["plus"]))

    files["mixed"] = tmp_path / "mixed.json"
    dump_json(matrix_to_json(eye(2) / 2), str(files["mixed"]))

    files["out"] = tmp_path / "report.json"
    return files


def run_cli(args, out_path):
    code = main([*args, "--out", str(out_path)] if "--out" not in args else list(args))
    report = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, report


def test_df_dephasing(workdir, capsys):
    code = main(["df", "--channel", str(workdir["dephasing"])])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimension"] == 2
    assert report["blocks"] == [[1, 1], [1, 1]]
    assert len(report["basis"]) == 2


def test_df_superradiance_three_sites(tmp_path, capsys):
    # the one-step channel of N=3 collective decay: its DF algebra is the
    # group algebra of S_3, blocks (2,2) and (1,4)
    gen = build_superradiance_generator(3, 1.0, 1.0)
    chan_path = tmp_path / "sr3.json"
    dump_json(channel_to_json(channel_from_superop(expm(gen.heisenberg_matrix()))),
              str(chan_path))
    code = main(["df", "--channel", str(chan_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimension"] == 5
    assert sorted(map(tuple, report["blocks"])) == [(1, 4), (2, 2)]
    alg = MatrixAlgebra(tuple(matrix_from_json(b) for b in report["basis"]))
    for perm in itertools.permutations(range(3)):
        assert alg.contains(permutation_matrix(perm, 2))


def test_analyze_channel_validation_failure(workdir, capsys):
    code = main(["analyze-channel", "--channel", str(workdir["bad_channel"])])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "validation"
    assert report["unitality_defect"] == pytest.approx(0.75)


def test_analyze_channel_report(workdir, capsys):
    code = main(["analyze-channel", "--channel", str(workdir["dephasing"])])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["completely_positive"]
    assert report["kraus_rank"] == 2
    assert report["multiplicative_domain"]["dimension"] == 2


def test_analyze_semigroup(workdir, capsys):
    code = main(["analyze-semigroup", "--generator", str(workdir["damping"])])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["generator_unitality_defect"] < 1e-10
    assert report["decoherence_free"]["dimension"] == 1


def test_born_error_matches_library(workdir, capsys):
    code = main([
        "born-error", "--traj", str(workdir["traj"]), "--coupling", str(workdir["coupling"]),
        "--psi", str(workdir["plus"]),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)

    from decofree.born import (
        Coupling, FrequencyGrid, error_frequency_domain, error_time_domain, gaussian_bath,
        constant_trajectory,
    )

    traj = constant_trajectory(np.zeros((2, 2)), 1.0)
    coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(0.01, 2.0))
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert report["epsilon_time"] == error_time_domain(traj, coupling, plus)
    expected = error_frequency_domain(traj, coupling, plus, FrequencyGrid.for_trajectory(traj))
    assert report["epsilon_frequency"] == expected.epsilon


CLI_CHILD = "import sys\nfrom decofree.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def test_born_error_twenty_thousand_time_points_within_one_gib(tmp_path, run_within_one_gib):
    # two coupling operators on a qubit: both routes read the lag sums, so
    # nothing of size g x g is built at g = 20001
    files = {name: str(tmp_path / f"{name}.json") for name in ("traj", "coupling", "psi")}
    dump_json(trajectory_to_json(ControlTrajectory(1.0, [(0.8, 0.6 * sx), (1.2, 0.4 * sz)])),
              files["traj"])
    dump_json({"S": [matrix_to_json(sx), matrix_to_json(sz)],
               "bath": {"type": "gaussian", "coupling": 0.01, "width": 2.0}}, files["coupling"])
    dump_json(vector_to_json(np.array([0.6, 0.8])), files["psi"])
    run = run_within_one_gib(CLI_CHILD, "born-error", "--traj", files["traj"], "--coupling",
                             files["coupling"], "--psi", files["psi"], "--time-points", "20001")
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    eps_t, eps_f = report["epsilon_time"], report["epsilon_frequency"]
    assert abs(eps_t - eps_f) <= max(1e-6, 1e-3 * abs(eps_t))


def test_born_dimension_256_within_one_gib(tmp_path, run_within_one_gib):
    # every route applies the interaction picture to psi only: O(r g n)
    # memory, where an (r, g, n, n) operator stack alone would take 840 MB
    rng = np.random.default_rng(256)
    n = 256
    durations = rng.uniform(0.3, 1.0, size=4)
    durations *= 2.0 / durations.sum()
    traj = ControlTrajectory(1.0, [(d, random_hermitian(n, rng, 1.0 / np.sqrt(n)))
                                   for d in durations])
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    objects = {
        "traj": trajectory_to_json(traj),
        "coupling": {"S": [matrix_to_json(random_hermitian(n, rng, 1.0 / np.sqrt(n)))
                           for _ in range(2)],
                     "bath": {"type": "gaussian", "coupling": 0.01, "width": 2.0}},
        "psi": vector_to_json(psi / np.linalg.norm(psi)),
    }
    inputs = []
    for name, obj in objects.items():
        # compact JSON: the indented writer takes seconds on these 38 MB
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        inputs += [f"--{name}", str(tmp_path / f"{name}.json")]
    run = run_within_one_gib(CLI_CHILD, "born-error", *inputs)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    eps_t, eps_f = report["epsilon_time"], report["epsilon_frequency"]
    assert abs(eps_t - eps_f) <= max(1e-6, 1e-3 * abs(eps_t))
    run = run_within_one_gib(CLI_CHILD, "scan", *inputs, "--lambdas", "1,2")
    assert run.returncode == 0, run.stderr
    points = json.loads(run.stdout)["points"]
    assert [p["lambda"] for p in points] == [1.0, 2.0]
    assert abs(points[0]["epsilon"] - eps_f) <= 1e-12 * abs(eps_f)


def test_scan_monotone_flags(workdir, capsys):
    code = main([
        "scan", "--traj", str(workdir["traj"]), "--coupling", str(workdir["coupling"]),
        "--psi", str(workdir["plus"]), "--lambdas", "1,2",
        "--grid-points", "2001",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["points"]) == 2
    assert report["points"][0]["lambda"] == 1.0


def test_evolve_generator(workdir, capsys):
    code = main([
        "evolve", "--generator", str(workdir["damping"]), "--state", str(workdir["mixed"]),
        "--times", "0,0.5,1",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [s["t"] for s in report["states"]] == [0.0, 0.5, 1.0]
    for entry in report["states"]:
        assert entry["trace"] == pytest.approx(1.0, abs=1e-10)
        assert entry["min_eigenvalue"] > -1e-10


def test_evolve_channel(workdir, capsys):
    code = main([
        "evolve", "--channel", str(workdir["dephasing"]), "--state", str(workdir["mixed"]),
        "--steps", "3",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["states"]) == 4


def test_blocks_command(workdir, tmp_path, capsys):
    ops_path = tmp_path / "ops.json"
    dump_json({"ops": [matrix_to_json(sx)]}, str(ops_path))
    code = main(["blocks", "--ops", str(ops_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimension"] == 2
    assert report["blocks"] == [[1, 1], [1, 1]]


def test_blocks_without_ops_is_validation_error(tmp_path, capsys):
    ops_path = tmp_path / "ops.json"
    dump_json({"dim": 2}, str(ops_path))
    code = main(["blocks", "--ops", str(ops_path)])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "validation"


def test_analyze_semigroup_thermal_qutrit(tmp_path, capsys):
    # superoperator norms above 1 put the detailed-balance residuals through
    # a numpy scale; the report must still serialize
    lower = np.zeros((3, 3), dtype=complex)
    lower[1, 0] = 1.0
    upper = np.zeros((3, 3), dtype=complex)
    upper[2, 1] = 1.3
    gen_path = tmp_path / "thermal.json"
    dump_json({"H": matrix_to_json(np.diag([2.0, 1.0, 0.0])),
               "V": [matrix_to_json(lower), matrix_to_json(upper)], "T": 1.0}, str(gen_path))
    code = main(["analyze-semigroup", "--generator", str(gen_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["detailed_balance"]["stationary"] is True
    assert report["detailed_balance"]["commuting_parts"] is True
    assert report["detailed_balance"]["hermitian_dissipator"] is True


def test_df_generator_exact_without_commuting_parts(tmp_path, capsys):
    # sigma_x drive with sigma_z dephasing: {sz}' is the diagonals, and the
    # drive leaves only the identity
    gen_path = tmp_path / "drive.json"
    dump_json(generator_to_json(GKLSGenerator(sx, [sz])), str(gen_path))
    code = main(["df", "--generator", str(gen_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimension"] == 1
    assert report["certificate"] == "exact"
    assert "commuting_parts" not in report


def test_invariance_command(tmp_path, capsys):
    gen_path = tmp_path / "sr.json"
    dump_json({"model": "superradiance", "N": 2, "omega": 1.0, "gamma": 1.0}, str(gen_path))
    code = main(["invariance", "--generator", str(gen_path), "--sites", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["global_residual"] < 1e-10
    assert report["locally_invariant"]
    assert report["group_algebra_inside_commutant"]


def test_missing_file_is_validation_error(tmp_path, capsys):
    code = main(["df", "--channel", str(tmp_path / "missing.json")])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "validation"


@pytest.mark.parametrize("argv", [
    ["born-error", "--time-points", "400"],
    ["born-error", "--grid-points", "2"],
    ["born-error", "--grid-omega-max", "-1"],
    ["born-error", "--grid-omega-max", "nan"],
    ["scan", "--lambdas", "1,x"],
    ["scan", "--lambdas", "1,inf"],
    ["df", "--max-k", "0"],
    ["invariance", "--sites", "0"],
], ids=" ".join)
def test_bad_numeric_flag_is_validation_error(workdir, capsys, argv):
    inputs = {
        "born-error": ["--traj", workdir["traj"], "--coupling", workdir["coupling"],
                       "--psi", workdir["plus"]],
        "df": ["--channel", workdir["dephasing"]],
        "invariance": ["--channel", workdir["dephasing"]],
    }
    inputs["scan"] = inputs["born-error"]
    code = main([*argv, *map(str, inputs[argv[0]])])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "validation"


def test_reports_are_byte_identical(workdir):
    out1, out2 = workdir["out"], workdir["out"].with_suffix(".2.json")
    code1 = main(["df", "--channel", str(workdir["dephasing"]), "--out", str(out1)])
    code2 = main(["df", "--channel", str(workdir["dephasing"]), "--out", str(out2)])
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_changes_are_visible_but_stable(workdir, capsys):
    code = main(["df", "--channel", str(workdir["dephasing"]), "--seed", "99"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 99
    assert report["blocks"] == [[1, 1], [1, 1]]


def test_tolerance_env_override(workdir, monkeypatch):
    monkeypatch.setenv("DECOFREE_TOL", "1e-3")
    import importlib

    import decofree.cli as cli_module

    importlib.reload(cli_module)
    assert cli_module.DEFAULT_TOL == 1e-3
    monkeypatch.delenv("DECOFREE_TOL")
    importlib.reload(cli_module)
