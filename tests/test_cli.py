import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from decofree.algebra import MatrixAlgebra
from decofree.born import ControlTrajectory
from decofree.channels import (channel_from_superop, dephasing_channel, random_unital_channel,
                               unitary_channel)
import decofree.cli as cli
import decofree.operators as operators
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
from decofree.lindblad import GKLSGenerator, dissipativity_defect
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


@pytest.mark.parametrize("n", [64, 256])
def test_df_channel_dimension_within_one_gib(tmp_path, run_within_one_gib, n):
    # N_Gamma is the commutant of the pair products W_a W_b† and Gamma acts as
    # a Kraus sum: no n^2 x n^2 matrix, which alone takes 268 MB at n = 64;
    # the commutant's unknowns are matrix units, with no n^2 x n array at n = 256
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(channel_to_json(
        random_unital_channel(n, 2, np.random.default_rng(n)))))
    run = run_within_one_gib(CLI_CHILD, "df", "--channel", str(path))
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert (report["dimension"], report["k_used"], report["certificate"]) == (1, 1, "exact")


def test_df_generator_dimension_64_within_one_gib(tmp_path, run_within_one_gib):
    # the recursion applies i[H, .] to operator stacks: no n^2 x n^2
    # generator, whose dissipator alone ran out of memory at n = 64
    path = tmp_path / "private_bath.json"
    path.write_text(json.dumps({"model": "private_bath", "N": 6, "v_site": [matrix_to_json(sm)]}))
    run = run_within_one_gib(CLI_CHILD, "df", "--generator", str(path))
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert (report["dimension"], report["certificate"]) == (1, "exact")


def test_invariance_dimension_64_within_one_gib(tmp_path, run_within_one_gib):
    # the global residual is a Kronecker-sum norm of the generator's terms:
    # the n^2 x n^2 generator alone takes 268 MB at n = 64
    path = tmp_path / "private_bath.json"
    path.write_text(json.dumps({"model": "private_bath", "N": 6, "v_site": [matrix_to_json(sm)]}))
    run = run_within_one_gib(CLI_CHILD, "invariance", "--generator", str(path), "--sites", "6")
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["global_residual"] <= 1e-10
    assert report["locally_invariant"] is False


def test_private_bath_over_the_size_cap_allocates_nothing(tmp_path, run_within_one_gib):
    # d**N is checked before the d x d site and d**N x d**N zero Hamiltonians exist
    paths = []
    for k, model in enumerate([{"N": 25}, {"N": 2, "d": 300000}, {"N": 30}]):
        paths.append(tmp_path / f"model{k}.json")
        paths[-1].write_text(json.dumps({"model": "private_bath", **model}))
    child = ("import json, sys\nfrom decofree.cli import main\n"
             "codes = [main(['df', '--generator', path]) for path in sys.argv[1:]]\n"
             "print(json.dumps(codes))\n")
    run = run_within_one_gib(child, *map(str, paths))
    assert run.returncode == 0, run.stderr
    *reports, codes = run.stdout.splitlines()
    assert json.loads(codes) == [2, 2, 2]
    for line in reports:
        assert "size cap" in json.loads(line)["message"]


def test_huge_site_count_meets_the_size_cap_at_once(tmp_path, run_within_one_gib):
    # N beyond the cap is refused before d**N is formed as an exact integer
    paths = []
    for model in ("superradiance", "private_bath"):
        for n_sites in (10 ** 9, 10 ** 10):
            paths.append(tmp_path / f"{model}-{n_sites}.json")
            paths[-1].write_text(json.dumps({"model": model, "N": n_sites}))
    child = ("import json, sys, time\nfrom decofree.cli import main\nresults = []\n"
             "for path in sys.argv[1:]:\n    t0 = time.perf_counter()\n"
             "    code = main(['df', '--generator', path])\n"
             "    results.append([code, time.perf_counter() - t0])\n"
             "print(json.dumps(results))\n")
    run = run_within_one_gib(child, *map(str, paths))
    assert run.returncode == 0, run.stderr
    *reports, results = run.stdout.splitlines()
    for line in reports:
        assert "size cap" in json.loads(line)["message"]
    for code, seconds in json.loads(results):
        assert code == 2
        assert seconds < 2.0


@pytest.fixture
def thermal_ladder(tmp_path, request):
    # n equally spaced levels (64 unless parametrized), H = diag(19.2 k / n),
    # one lowering operator through all of them, T = 1
    n = getattr(request, "param", 64)
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps({"H": matrix_to_json(np.diag(19.2 * np.arange(n) / n)),
                                "V": [matrix_to_json(np.diag(np.ones(n - 1), 1))], "T": 1.0}))
    return str(path)


@pytest.mark.parametrize("thermal_ladder", [64, 256], indirect=True)
def test_thermal_df_dimension_within_one_gib(thermal_ladder, run_within_one_gib):
    # stationarity is L*(sigma) on one matrix and the detailed-balance
    # residuals are Kronecker-sum norms: no n^2 x n^2 matrix
    run = run_within_one_gib(CLI_CHILD, "df", "--generator", thermal_ladder)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert (report["dimension"], report["certificate"]) == (1, "exact")


def test_thermal_analyze_semigroup_dimension_64_within_one_gib(thermal_ladder,
                                                               run_within_one_gib):
    run = run_within_one_gib(CLI_CHILD, "analyze-semigroup", "--generator", thermal_ladder)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    balance = report["detailed_balance"]
    assert balance["stationary"] and balance["commuting_parts"] and balance["hermitian_dissipator"]
    assert report["decoherence_free"]["dimension"] == 1


def test_born_dimension_256_within_one_gib(tmp_path, run_within_one_gib):
    # every route applies the interaction picture to psi only: O(r g n)
    # memory, where an (r, g, n, n) operator stack alone would take 840 MB
    rng = np.random.default_rng(256)
    n = 256
    durations = rng.uniform(0.3, 1.0, size=4)
    durations *= 2.0 / durations.sum()
    traj = ControlTrajectory(1.0, [(d, random_hermitian(n, rng) / np.sqrt(n))
                                   for d in durations])
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    objects = {
        "traj": trajectory_to_json(traj),
        "coupling": {"S": [matrix_to_json(random_hermitian(n, rng) / np.sqrt(n))
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


def test_scan_of_one_factor_reports_no_monotone_flag(workdir, capsys):
    code = main([
        "scan", "--traj", str(workdir["traj"]), "--coupling", str(workdir["coupling"]),
        "--psi", str(workdir["plus"]), "--lambdas", "2",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["lambda"] for p in report["points"]] == [2.0]
    assert report["monotone_decreasing"] is False
    assert report["monotone_increasing"] is False


def test_born_error_computes_lag_sums_once(workdir, capsys, monkeypatch):
    calls = []
    original = cli.born._lag_sums

    def counting(x):
        calls.append(x.shape)
        return original(x)

    monkeypatch.setattr(cli.born, "_lag_sums", counting)
    code = main(["born-error", "--traj", str(workdir["traj"]),
                 "--coupling", str(workdir["coupling"]), "--psi", str(workdir["plus"])])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "epsilon_time" in report and "epsilon_frequency" in report
    assert len(calls) == 1


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


@pytest.mark.parametrize("t", ["1e50", "1e300"])
def test_evolve_state_that_overflows_is_validation_error(workdir, capsys, t):
    # exp(t L*) of amplitude damping overflows long before t is infinite
    report = _one_diagnostic(capsys, ["evolve", "--generator", workdir["damping"],
                                      "--state", workdir["mixed"], "--times", f"1,{t}"])
    assert report["time"] == float(t)
    assert t.replace("e", "e+") in report["message"]


def test_evolve_builds_the_generator_matrix_once(workdir, monkeypatch, capsys):
    # one dense build per job, not one per time
    build, calls = operators.superop_matrix, []

    def counting_build(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(operators, "superop_matrix", counting_build)
    code = main([
        "evolve", "--generator", str(workdir["damping"]), "--state", str(workdir["mixed"]),
        "--times", "0,0.5,1,2",
    ])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["states"]) == 4
    assert len(calls) == 1


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


@pytest.mark.parametrize("ops", [[], 5, [matrix_to_json(eye(2)), matrix_to_json(eye(3))]],
                         ids=["no-ops", "ops-number", "mixed-sizes"])
def test_malformed_blocks_ops_is_validation_error(tmp_path, capsys, ops):
    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps({"ops": ops}))
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


@pytest.mark.parametrize("argv", [
    ["evolve", "--times", "0,abc"],
    ["evolve", "--times", "nan"],
    ["evolve", "--times", "inf"],
    ["evolve", "--times", ""],
    ["evolve", "--times", ","],
    ["evolve", "--steps", "-3"],
], ids=" ".join)
def test_bad_evolve_flag_is_validation_error(workdir, capsys, argv):
    model = ["--channel" if "--steps" in argv else "--generator",
             str(workdir["dephasing" if "--steps" in argv else "damping"])]
    code = main([*argv, *model, "--state", str(workdir["mixed"])])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "validation"


@pytest.mark.parametrize("command, key", [("analyze-channel", "unitality_defect"),
                                          ("born-error", "norm")])
def test_non_finite_diagnostic_detail_is_validation_error(workdir, capsys, command, key):
    # a Kraus entry of 1e200 makes the unitality defect inf, entries of 1e308 the norm;
    # the encoder refuses inf, so the detail is written as its string
    if command == "analyze-channel":
        dump_json({"dim": 2, "kraus": [matrix_to_json(np.diag([1e200, 1.0]))]},
                  str(workdir["bad_channel"]))
        argv = ["analyze-channel", "--channel", str(workdir["bad_channel"])]
    else:
        dump_json(vector_to_json(np.array([1e308, 1e308])), str(workdir["plus"]))
        argv = ["born-error", "--traj", str(workdir["traj"]), "--coupling",
                str(workdir["coupling"]), "--psi", str(workdir["plus"])]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["error"] == "validation"
    assert report[key] == "inf"


def test_non_unital_kraus_set_sums_its_gram_matrix_once(workdir, capsys):
    # the ValueError of KrausMap carries the defect it computed, so loading sums
    # no second Gram matrix: one overflow and one invalid-value warning, not two each
    dump_json({"dim": 2, "kraus": [matrix_to_json(np.diag([1e200, 1.0]))]},
              str(workdir["bad_channel"]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze-channel", "--channel", str(workdir["bad_channel"])]) == 2
    assert len(caught) == 2
    assert json.loads(capsys.readouterr().out)["unitality_defect"] == "inf"


@pytest.mark.parametrize("model, dim, sites", [
    ("channel", 1, "1"), ("channel", 1, "2"), ("generator", 1, "1"), ("generator", 1, "2"),
    ("channel", 128, "7"), ("channel", 3, "2"),
], ids=["channel-dim1-sites1", "channel-dim1-sites2", "generator-dim1-sites1",
        "generator-dim1-sites2", "channel-dim128-sites7", "channel-dim3-sites2"])
def test_invariance_without_a_permutation_rep_is_validation_error(tmp_path, capsys, model,
                                                                  dim, sites):
    # dimension 1 has no site dimension >= 2, 2**7 is beyond the size cap 64, and
    # dimension 3 is no square
    path = tmp_path / "model.json"
    obj = (channel_to_json(unitary_channel(eye(dim))) if model == "channel"
           else generator_to_json(GKLSGenerator(np.zeros((dim, dim)))))
    dump_json(obj, str(path))
    assert main(["invariance", f"--{model}", str(path), "--sites", sites]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    report = json.loads(out)
    assert (report["error"], report["dim"]) == ("validation", dim)


# imaginary parts that replace a 0.0: the string and the bool keep the
# entry's value, so only the type check can reject them
BAD_IMAGINARY_PARTS = {"nan": float("nan"), "infinity": float("inf"), "string": "0",
                       "bool": False}


@pytest.mark.parametrize("kind", ["channel", "psi"])
@pytest.mark.parametrize("entry", list(BAD_IMAGINARY_PARTS), ids=str)
def test_non_finite_or_non_numeric_entry_is_validation_error(workdir, capsys, kind, entry):
    # NaN and Infinity are what the standard library's JSON writer emits for them
    name = "dephasing" if kind == "channel" else "plus"
    obj = json.loads(workdir[name].read_text())
    pairs = obj["kraus"][0]["rows"][0] if kind == "channel" else obj["entries"]
    assert pairs[0][1] == 0.0
    pairs[0][1] = BAD_IMAGINARY_PARTS[entry]
    workdir[name].write_text(json.dumps(obj))
    if kind == "channel":
        argv = ["analyze-channel", "--channel", str(workdir["dephasing"])]
    else:
        argv = ["born-error", "--traj", str(workdir["traj"]),
                "--coupling", str(workdir["coupling"]), "--psi", str(workdir["plus"])]
    code = main(argv)
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "validation"


@pytest.mark.parametrize("bath", [
    {"type": "gaussian", "coupling": float("nan"), "width": 2.0},
    {"type": "flat", "cutoff": float("inf")},
    {"type": "ohmic", "kappa": None},
    {"type": "quartic-gaussian", "width": True},
    {"omega": [-1.0, 0.0, 1.0], "R": [0.1, float("nan"), 0.1]},
], ids=["gaussian-nan", "flat-infinity", "ohmic-null", "quartic-bool", "tabulated-nan"])
def test_non_finite_bath_parameter_is_validation_error(workdir, capsys, bath):
    workdir["coupling"].write_text(json.dumps({"S": [matrix_to_json(sz)], "bath": bath}))
    code = main(["born-error", "--traj", str(workdir["traj"]),
                 "--coupling", str(workdir["coupling"]), "--psi", str(workdir["plus"])])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "validation"


@pytest.mark.parametrize("kraus", [
    [{"dim": "x", "rows": [[[1.0, 0.0]]]}],
    [{"rows": 5}],
    [{"rows": [5]}],
    [],
    [matrix_to_json(eye(2)), matrix_to_json(eye(3))],
], ids=["dim-string", "rows-number", "row-number", "no-kraus", "mixed-sizes"])
def test_malformed_channel_structure_is_validation_error(tmp_path, capsys, kraus):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"dim": 1, "kraus": kraus}))
    code = main(["analyze-channel", "--channel", str(path)])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "validation"


@pytest.mark.parametrize("bath", [
    {"omega": [1.0, 0.0, -1.0], "R": [0.1, 0.5, 0.9]},
    {"omega": [-1.0, 0.0, 1.0], "R": [0.1, 0.5]},
    {"omega": 1.0, "R": 0.5},
    {"omega": ["-1", True, "1"], "R": [0.5, "0.5", False]},
], ids=["decreasing", "unequal-lengths", "scalars", "strings-and-bools"])
def test_unreadable_tabulated_spectrum_is_validation_error(workdir, capsys, bath):
    workdir["coupling"].write_text(json.dumps({"S": [matrix_to_json(sz)], "bath": bath}))
    code = main(["born-error", "--traj", str(workdir["traj"]),
                 "--coupling", str(workdir["coupling"]), "--psi", str(workdir["plus"])])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "validation"


GAUSSIAN_BATH = {"type": "gaussian", "coupling": 0.01, "width": 2.0}


@pytest.mark.parametrize("name, obj", [
    ("damping", {"H": matrix_to_json(sz), "V": 5}),
    ("traj", {"tau": 1.0, "segments": 5}),
    ("traj", {"tau": 1.0, "segments": [5]}),
    ("coupling", {"S": 5, "bath": GAUSSIAN_BATH}),
    ("damping", {"model": "private_bath", "N": 2, "v_site": 5}),
    ("damping", {"model": "superradiance", "N": [2]}),
    ("coupling", {"S": [matrix_to_json(sz), matrix_to_json(np.diag([1.0, 0.0, -1.0]))],
                  "bath": GAUSSIAN_BATH}),
    ("coupling", {"S": [matrix_to_json(np.kron(sz, sz))], "bath": GAUSSIAN_BATH}),
    ("damping", {"V": []}),
    ("coupling", {"S": [matrix_to_json(sz)], "bath": 3}),
    ("damping", {"H": [[1.0, 0.0], [0.0, -1.0]]}),
    ("damping", {"H": {"rows": [[[1.0, 0.0], [0.0, 0.0]]]}}),
], ids=["V-number", "segments-number", "segment-number", "S-number", "v_site-number",
        "N-list", "S-mixed-dimensions", "S-dimension-of-no-trajectory", "no-H",
        "bath-number", "H-list", "H-rows-not-square"])
def test_malformed_model_container_is_validation_error(workdir, capsys, name, obj):
    workdir[name].write_text(json.dumps(obj))
    if name == "damping":
        argv = ["df", "--generator", str(workdir["damping"])]
    else:
        argv = ["born-error", "--traj", str(workdir["traj"]),
                "--coupling", str(workdir["coupling"]), "--psi", str(workdir["plus"])]
    code = main(argv)
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "validation"


@pytest.mark.parametrize("model", ["channel", "generator"])
def test_evolve_state_of_another_dimension_is_validation_error(workdir, capsys, tmp_path,
                                                                model):
    state = tmp_path / "state4.json"
    dump_json(matrix_to_json(eye(4) / 4), str(state))
    name = "dephasing" if model == "channel" else "damping"
    assert main(["evolve", f"--{model}", str(workdir[name]), "--state", str(state)]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": "validation",
                               "message": f"state dimension does not match the {model}"}


@pytest.mark.parametrize("name, field, value", [
    ("traj", "dt", float("nan")),
    ("traj", "dt", float("inf")),
    ("traj", "tau", float("nan")),
    ("plus", "dim", "x"),
], ids=["dt-nan", "dt-infinity", "tau-nan", "psi-dim-string"])
def test_bad_born_input_value_is_validation_error(workdir, capsys, name, field, value):
    obj = json.loads(workdir[name].read_text())
    (obj["segments"][0] if field == "dt" else obj)[field] = value
    workdir[name].write_text(json.dumps(obj))
    code = main(["born-error", "--traj", str(workdir["traj"]),
                 "--coupling", str(workdir["coupling"]), "--psi", str(workdir["plus"])])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "validation"


def test_unencodable_report_exits_one(workdir, capsys, monkeypatch):
    monkeypatch.setattr(cli.born, "_time_epsilon", lambda *args, **kwargs: float("nan"))
    code = main(["born-error", "--traj", str(workdir["traj"]),
                 "--coupling", str(workdir["coupling"]), "--psi", str(workdir["plus"])])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Out of range float values" in captured.err


def test_cli_runs_without_scipy(workdir, tmp_path, run_within_one_gib):
    # exponentials of hermitian matrices go through eigh and polar factors
    # through one SVD; scipy is loaded only for non-normal exponentials
    ops = tmp_path / "ops.json"
    dump_json({"ops": [matrix_to_json(np.kron(sx, eye(2))), matrix_to_json(np.kron(sz, eye(2)))]},
              str(ops))
    born_inputs = ["--traj", workdir["traj"], "--coupling", workdir["coupling"],
                   "--psi", workdir["plus"]]
    calls = [["born-error", *born_inputs], ["scan", *born_inputs, "--lambdas", "1,2"],
             ["df", "--channel", workdir["dephasing"]], ["blocks", "--ops", ops]]
    child = (
        "import json, sys\n"
        "import decofree.cli\n"
        "codes = [decofree.cli.main(argv + ['--out', sys.argv[2]])\n"
        "         for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    run = run_within_one_gib(child, json.dumps([list(map(str, argv)) for argv in calls]),
                             str(tmp_path / "report.json"))
    assert run.returncode == 0, run.stderr
    codes, scipy_modules = json.loads(run.stdout)
    assert codes == [0, 0, 0, 0]
    assert scipy_modules == []
    assert json.loads((tmp_path / "report.json").read_text())["blocks"] == [[2, 2]]


def test_parser_is_built_once_and_reused(workdir, capsys):
    df = ["df", "--channel", str(workdir["dephasing"])]
    born_error = ["born-error", "--traj", str(workdir["traj"]),
                  "--coupling", str(workdir["coupling"]), "--psi", str(workdir["plus"])]
    cli.build_parser.cache_clear()
    outputs = []
    for argv in (df, born_error, df):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[2]

    assert main(df) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == cli.DEFAULT_SEED

    with pytest.raises(SystemExit):
        main(born_error[:-2])  # no --psi
    capsys.readouterr()
    assert main(born_error) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "born-error"
    assert cli.build_parser.cache_info().misses == 1


def test_reports_are_byte_identical(workdir):
    out1, out2 = workdir["out"], workdir["out"].with_suffix(".2.json")
    code1 = main(["df", "--channel", str(workdir["dephasing"]), "--out", str(out1)])
    code2 = main(["df", "--channel", str(workdir["dephasing"]), "--out", str(out2)])
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def _thermal_qubit(path, temperature=1.0) -> str:
    # sm lowers |1> (energy 1) to |0> (energy 0)
    dump_json({"H": matrix_to_json(np.diag([0.0, 1.0])), "V": [matrix_to_json(sm)],
               "T": temperature}, str(path))
    return str(path)


@pytest.mark.parametrize("command,extra", [
    ("df", []),
    ("invariance", ["--sites", "1"]),
    ("evolve", ["--state", "mixed"]),
])
@pytest.mark.parametrize("both", [True, False])
def test_model_needs_exactly_one_of_channel_or_generator(workdir, capsys, command, extra, both):
    extra = [str(workdir[x]) if x in workdir else x for x in extra]
    models = ["--channel", str(workdir["dephasing"]),
              "--generator", str(workdir["damping"])] if both else []
    code = main([command, *models, *extra])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report == {"error": "validation",
                      "message": f"{command} needs exactly one of --channel or --generator"}


@pytest.mark.parametrize("model", ["channel", "generator"])
def test_df_metric_is_a_usage_error(workdir, capsys, model):
    # the DF algebra needs no state: only analyze-semigroup reads one, to report
    # its detailed balance
    for command, listed in (("df", False), ("analyze-semigroup", True)):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert ("--metric" in capsys.readouterr().out) is listed
    with pytest.raises(SystemExit) as exit_info:
        main(["df", f"--{model}", str(workdir["dephasing" if model == "channel" else "damping"]),
              "--metric", str(workdir["mixed"])])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("model, sigma, passes", [
    # sigma_z dephasing next to H = sigma_z is detailed-balanced in the maximally
    # mixed state, and its DF algebra is the diagonals
    (GKLSGenerator(sz, [sz]), eye(2) / 2, True),
    # decay empties |1>, so 1/2 is not stationary
    (GKLSGenerator(np.zeros((2, 2)), [sm]), eye(2) / 2, False),
    ({"model": "superradiance", "N": 2}, eye(4) / 4, False),
], ids=["dephasing", "damping", "superradiance"])
def test_analyze_semigroup_metric_reports_detailed_balance(workdir, tmp_path, capsys,
                                                           monkeypatch, model, sigma, passes):
    gen_path = tmp_path / "generator.json"
    dump_json(model if isinstance(model, dict) else generator_to_json(model), str(gen_path))
    dump_json(matrix_to_json(sigma), str(workdir["mixed"]))
    calls = []
    original = cli.lindblad.detailed_balance_check

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli.lindblad, "detailed_balance_check", counting)
    code = main(["analyze-semigroup", "--generator", str(gen_path),
                 "--metric", str(workdir["mixed"])])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    db = report["detailed_balance"]
    assert len(calls) == 1
    if passes:
        assert db["stationary"] and db["commuting_parts"] and db["hermitian_dissipator"]
        assert report["decoherence_free"]["dimension"] == 2
    else:
        # a failed condition is reported with its residual, not raised
        assert db["stationary"] is False
        assert db["residuals"]["stationarity"] > 1e-8
    # the DF algebra is the same with or without the state
    assert main(["analyze-semigroup", "--generator", str(gen_path)]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert "detailed_balance" not in plain
    assert plain["decoherence_free"] == report["decoherence_free"]


@pytest.mark.parametrize("passes", [True, False])
def test_thermal_analyze_semigroup_checks_detailed_balance_once(tmp_path, capsys, monkeypatch,
                                                                passes):
    calls = []
    original = cli.lindblad.detailed_balance_check

    def counting(*args, **kwargs):
        calls.append(1)
        report = original(*args, **kwargs)
        return report if passes else dataclasses.replace(report, stationary=False)

    monkeypatch.setattr(cli.lindblad, "detailed_balance_check", counting)
    code = main(["analyze-semigroup", "--generator", _thermal_qubit(tmp_path / "thermal.json")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["detailed_balance"]["stationary"] is passes
    assert len(calls) == 1


def _every_subcommand(workdir, tmp_path):
    ops = tmp_path / "ops.json"
    dump_json({"ops": [matrix_to_json(np.kron(sx, eye(2))), matrix_to_json(np.kron(sz, sz))]},
              str(ops))
    model = tmp_path / "superradiance.json"
    dump_json({"model": "superradiance", "N": 2, "omega": 1.0, "gamma": 1.0}, str(model))
    born_inputs = ["--traj", workdir["traj"], "--coupling", workdir["coupling"],
                   "--psi", workdir["plus"]]
    return {
        "analyze-channel": ["analyze-channel", "--channel", workdir["dephasing"]],
        "analyze-semigroup": ["analyze-semigroup", "--generator", model],
        "df-channel": ["df", "--channel", workdir["dephasing"]],
        "df-generator": ["df", "--generator", model],
        "blocks": ["blocks", "--ops", ops],
        "invariance": ["invariance", "--generator", model, "--sites", "2"],
        "born-error": ["born-error", *born_inputs],
        "scan": ["scan", *born_inputs, "--lambdas", "1,2"],
        "evolve-channel": ["evolve", "--channel", workdir["dephasing"],
                           "--state", workdir["mixed"]],
        "evolve-generator": ["evolve", "--generator", workdir["damping"],
                             "--state", workdir["mixed"]],
        "validation-error": ["analyze-channel", "--channel", workdir["bad_channel"]],
    }


@pytest.mark.parametrize("name", ["analyze-channel", "analyze-semigroup", "df-channel",
                                  "df-generator", "blocks", "invariance", "born-error", "scan",
                                  "evolve-channel", "evolve-generator", "validation-error"])
def test_report_is_one_line_of_compact_sorted_json(workdir, tmp_path, capsys, name):
    argv = list(map(str, _every_subcommand(workdir, tmp_path)[name]))
    code = main(argv)
    assert code == (2 if name == "validation-error" else 0)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    # --out writes the same bytes, and a rerun repeats them
    assert main([*argv, "--out", str(workdir["out"])]) == code
    assert workdir["out"].read_text() == out
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["evolve", "--channel", "dephasing", "--times", "0,7,9"],
     "--times applies only to --generator"),
    (["evolve", "--generator", "damping", "--steps", "3"], "--steps applies only to --channel"),
], ids=["evolve-channel-times", "evolve-generator-steps"])
def test_flag_of_the_other_mode_is_validation_error(workdir, capsys, argv, message):
    argv = [str(workdir[a]) if a in ("dephasing", "damping") else a for a in argv]
    if argv[0] == "evolve":
        argv += ["--state", str(workdir["mixed"])]
    code = main(argv)
    assert code == 2
    assert json.loads(capsys.readouterr().out) == {"error": "validation", "message": message}


def test_mode_flag_defaults(workdir, capsys):
    state = ["--state", str(workdir["mixed"])]
    assert main(["evolve", "--channel", str(workdir["dephasing"]), *state]) == 0
    assert [e["t"] for e in json.loads(capsys.readouterr().out)["states"]] == [0, 1, 2, 3, 4, 5]
    assert main(["evolve", "--generator", str(workdir["damping"]), *state]) == 0
    assert [e["t"] for e in json.loads(capsys.readouterr().out)["states"]] == [0.0, 1.0]


def test_dissipativity_min_eigenvalue_matches_one_draw_at_a_time(tmp_path, capsys):
    path = tmp_path / "superradiance.json"
    dump_json({"model": "superradiance", "N": 2, "omega": 0.7, "gamma": 1.3}, str(path))
    assert main(["analyze-semigroup", "--generator", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    gen = build_superradiance_generator(2, 0.7, 1.3)
    rng = np.random.default_rng(cli.DEFAULT_SEED)
    worst = 0.0
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        defect = dissipativity_defect(gen, a)
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * (defect + defect.conj().T)).min()))
    assert report["dissipativity_min_eigenvalue"] == worst


def test_subcommands_return_only_their_own_fields(workdir, tmp_path, capsys):
    # main alone wraps a subcommand's fields in the envelope
    for name, argv in _every_subcommand(workdir, tmp_path).items():
        if name == "validation-error":
            continue
        args = cli.build_parser().parse_args(list(map(str, argv)))
        fields = args.func(args)
        assert not fields.keys() & {"command", "tolerances", "seed"}, name
        assert main(list(map(str, argv))) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(
            {"command": argv[0], **fields, "tolerances": {"tol": cli.DEFAULT_TOL},
             "seed": cli.DEFAULT_SEED}))


def test_unreadable_path_is_one_diagnostic_on_stdout(workdir, tmp_path, capsys):
    # a missing input, one that is not JSON (Latin-1 bytes, nesting beyond the
    # decoder's depth) and an --out that cannot be opened each exit 2 with the
    # diagnostic on stdout, and main raises nothing
    missing = tmp_path / "missing.json"
    assert main(["df", "--channel", str(missing)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "validation", "message": f"[Errno 2] No such file or directory: '{missing}'"}
    for name, data in [("latin", b'{"dim": 1, "kraus": [], "note": "\xe9"}'),
                       ("deep", b"[" * 100000 + b"]" * 100000)]:
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        assert main(["df", "--channel", str(path)]) == 2
        message = json.loads(capsys.readouterr().out)["message"]
        assert message.startswith(f"{path} is not valid JSON")
    out = tmp_path / "no-such-dir" / "x.json"
    assert main(["df", "--channel", str(workdir["dephasing"]), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "error": "validation", "message": f"[Errno 2] No such file or directory: '{out}'"}
    assert captured.err == ""
    assert not out.parent.exists()


# one object of every kind a model file holds, as (file it replaces, object):
# each loads as it is, and exits 2 naming a field its loader does not read
_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
_ZERO_SEGMENT = {"dt": 2.0, "H": matrix_to_json(np.zeros((2, 2)))}
_TABULATED = {"omega": [-40.0, 0.0, 40.0], "R": [0.0, 0.01, 0.0]}
FIELD_CASES = {
    "matrix": ("mixed", matrix_to_json(eye(2) / 2)),
    "vector": ("plus", vector_to_json(_PLUS)),
    "channel": ("dephasing", channel_to_json(dephasing_channel(0.25))),
    "generator": ("damping", generator_to_json(GKLSGenerator(np.zeros((2, 2)), [sm]))),
    "thermal-generator": ("damping", {"H": matrix_to_json(np.diag([0.0, 1.0])),
                                      "V": [matrix_to_json(sm)], "T": 1.0, "omega": [1.0]}),
    "superradiance": ("damping", {"model": "superradiance", "N": 2, "omega": 1.0,
                                  "gamma": 1.0}),
    "private_bath": ("damping", {"model": "private_bath", "N": 2, "d": 2,
                                 "h_site": matrix_to_json(sz), "v_site": [matrix_to_json(sm)],
                                 "H": matrix_to_json(np.zeros((4, 4)))}),
    "trajectory": ("traj", {"tau": 1.0, "segments": [_ZERO_SEGMENT]}),
    "coupling": ("coupling", {"S": [matrix_to_json(sz)], "bath": GAUSSIAN_BATH}),
    "ops": ("ops", {"ops": [matrix_to_json(sx)]}),
}
BATHS = {
    "tabulated": _TABULATED,
    "gaussian": GAUSSIAN_BATH,
    "flat": {"type": "flat", "level": 0.01, "cutoff": 20.0},
    "ohmic": {"type": "ohmic", "coupling": 0.1, "kappa": 1.0, "cutoff": 2.0},
    "quartic-gaussian": {"type": "quartic-gaussian", "coupling": 0.1, "width": 2.0},
}


def _run_model_file(capsys, workdir, tmp_path, name, obj):
    """Exit code and report of the subcommand that reads `obj` as the file `name`."""
    paths = {**workdir, "ops": tmp_path / "ops.json"}
    paths[name].write_text(json.dumps(obj))
    argv = {"mixed": ["evolve", "--channel", paths["dephasing"], "--state", paths["mixed"]],
            "dephasing": ["analyze-channel", "--channel", paths["dephasing"]],
            "damping": ["df", "--generator", paths["damping"]],
            "ops": ["blocks", "--ops", paths["ops"]]}.get(name, [
                "born-error", "--traj", paths["traj"], "--coupling", paths["coupling"],
                "--psi", paths["plus"]])
    code = main(list(map(str, argv)))
    return code, json.loads(capsys.readouterr().out)


def _unknown_field_cases():
    for kind, (name, obj) in FIELD_CASES.items():
        yield pytest.param(name, obj, lambda o: {**o, "gama": 0.1}, "gama", id=kind)
    yield pytest.param("traj", FIELD_CASES["trajectory"][1],
                       lambda o: {**o, "segments": [{**_ZERO_SEGMENT, "t0": 0.0}]}, "t0",
                       id="segment")
    yield pytest.param("damping", FIELD_CASES["generator"][1],
                       lambda o: {**o, "omega": [1.0]}, "omega", id="generator-omega-without-T")
    for family, bath in BATHS.items():
        yield pytest.param("coupling", {"S": [matrix_to_json(sz)], "bath": bath},
                           lambda o: {**o, "bath": {**o["bath"], "widht": 3.0}}, "widht",
                           id=f"{family}-bath")
    yield pytest.param("coupling", {"S": [matrix_to_json(sz)], "bath": GAUSSIAN_BATH},
                       lambda o: {**o, "bath": {**o["bath"], **_TABULATED}}, "omega",
                       id="gaussian-bath-with-table")
    yield pytest.param("coupling", {"S": [matrix_to_json(sz)], "bath": _TABULATED},
                       lambda o: {**o, "bath": {**o["bath"], "type": None}}, "type",
                       id="tabulated-bath-with-type")


@pytest.mark.parametrize("name, obj, spoil, field", _unknown_field_cases())
def test_unknown_model_file_field_is_validation_error(workdir, tmp_path, capsys, name, obj,
                                                      spoil, field):
    assert _run_model_file(capsys, workdir, tmp_path, name, obj)[0] == 0
    code, report = _run_model_file(capsys, workdir, tmp_path, name, spoil(obj))
    assert code == 2
    assert report["error"] == "validation"
    assert repr(field) in report["message"]


@pytest.mark.parametrize("name, obj, agreeing, field", [
    ("dephasing", {"dim": 3, "kraus": [matrix_to_json(eye(2))]}, 2, "dim"),
    ("damping", {"dim": 5, "H": matrix_to_json(sz)}, 2, "dim"),
    ("damping", {"model": "private_bath", "N": 2, "d": 3, "h_site": matrix_to_json(sz)}, 2,
     "d"),
    ("damping", FIELD_CASES["thermal-generator"][1] | {"omega": [2.0]}, [1.0 + 1e-10], "omega"),
    ("damping", FIELD_CASES["thermal-generator"][1] | {"omega": [1.0, 1.0]}, [1.0], "omega"),
    ("coupling", {"S": [matrix_to_json(sz)],
                  "bath": {"type": "flat", "level": 0.01, "coupling": 0.01}}, None, "level"),
], ids=["channel-dim", "generator-dim", "private_bath-d", "thermal-omega",
        "thermal-omega-count", "flat-level-and-coupling"])
def test_disagreeing_model_file_field_is_validation_error(workdir, tmp_path, capsys, name, obj,
                                                          agreeing, field):
    # a field that restates what the loader computes must agree with it
    code, report = _run_model_file(capsys, workdir, tmp_path, name, obj)
    assert code == 2
    assert report["error"] == "validation"
    assert repr(field) in report["message"]
    if agreeing is not None:
        assert _run_model_file(capsys, workdir, tmp_path, name, {**obj, field: agreeing})[0] == 0


@pytest.mark.parametrize("flag", ["--tol", "--seed", "--max-k"])
def test_tolerance_and_seed_are_not_flags(workdir, capsys, flag):
    # every input is checked at DEFAULT_TOL, every seeded step draws DEFAULT_SEED and
    # the DF recursion runs to its fixed point, so none is an option: the flag is a
    # usage error and no help mentions it
    for command in ["", "analyze-channel", "analyze-semigroup", "df", "blocks", "invariance",
                    "born-error", "scan", "evolve"]:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"] if command else ["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out or not command
        assert flag not in out
    with pytest.raises(SystemExit) as exit_info:
        main(["df", "--channel", str(workdir["dephasing"]), flag, "1"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


def _one_diagnostic(capsys, argv) -> dict:
    assert main(list(map(str, argv))) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["error"] == "validation"
    return report


def test_born_error_state_norm_is_checked_at_the_library_tolerance(workdir, capsys):
    # a norm within 1e-8 but beyond DEFAULT_TOL once loaded, then failed in the Born routes
    dump_json(vector_to_json(np.array([1.0 + 5e-9, 0.0])), str(workdir["plus"]))
    report = _one_diagnostic(capsys, ["born-error", "--traj", workdir["traj"], "--coupling",
                                      workdir["coupling"], "--psi", workdir["plus"]])
    assert report["norm"] == 1.0 + 5e-9
    assert "1.000000005" in report["message"]


def test_evolve_state_trace_is_checked_at_the_library_tolerance(workdir, capsys):
    dump_json(matrix_to_json(eye(2) / 2 * (1.0 + 5e-9)), str(workdir["mixed"]))
    report = _one_diagnostic(capsys, ["evolve", "--channel", workdir["dephasing"],
                                      "--state", workdir["mixed"]])
    assert "trace" in report["message"]


@pytest.mark.parametrize("model, sigma, message", [
    ("superradiance", np.diag([1.0, 0.0, 0.0, 0.0]), "not faithful"),
    ("superradiance", eye(2) / 2, "dimension"),
    ("thermal", eye(2) / 2, '--metric applies only to a --generator without "T"'),
], ids=["pure", "qubit", "thermal"])
def test_analyze_semigroup_metric_the_generator_cannot_use_is_validation_error(
        workdir, tmp_path, capsys, model, sigma, message):
    path = tmp_path / "model.json"
    if model == "thermal":  # it brings its own Gibbs state
        _thermal_qubit(path)
    else:
        dump_json({"model": "superradiance", "N": 2}, str(path))
    dump_json(matrix_to_json(sigma), str(workdir["mixed"]))
    report = _one_diagnostic(capsys, ["analyze-semigroup", "--generator", path,
                                      "--metric", workdir["mixed"]])
    assert message in report["message"]


@pytest.mark.parametrize("command", ["analyze-semigroup"])
def test_thermal_generator_without_a_faithful_gibbs_state_is_validation_error(
        tmp_path, capsys, command):
    # at T = 0.02 the Gibbs weight of the excited level, e^-50, is below FAITHFUL_TOL
    path = _thermal_qubit(tmp_path / "cold.json", temperature=0.02)
    report = _one_diagnostic(capsys, [command, "--generator", path])
    assert "not faithful" in report["message"]
    assert report["temperature"] == 0.02


def test_thermal_generator_without_a_faithful_gibbs_state_still_evolves(workdir, tmp_path,
                                                                        capsys):
    # df and evolve read no state, so they build none
    path = _thermal_qubit(tmp_path / "cold.json", temperature=0.02)
    assert main(["evolve", "--generator", path, "--state", str(workdir["mixed"])]) == 0
    assert len(json.loads(capsys.readouterr().out)["states"]) == 2
    assert main(["df", "--generator", path]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 1
