"""Seeded inputs for the three workloads.

``build(workload, seed, work_dir)`` writes every JSON input file into
``work_dir`` and returns the round: a list of jobs, each a dict with an
``id``, the CLI ``argv``, an optional ``repeat`` count and the facts its
check needs.  The same seed writes the same files.  The structure of a
round (subcommands, dimensions, bath families, job order) is fixed; the
seed draws the numbers inside it, so every seed costs about the same.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as ref

WORKLOADS = ("born-budget", "gate-scan", "df-structure")

# A round runs every job once per pass, each job in the first ``repeat``
# passes.  The df-structure jobs below take 1.5-35 s and run once; the others
# take milliseconds and run in LIGHT_PASSES passes, so their medians rest on
# several samples.
HEAVY_JOBS = frozenset({"blocks-S4", "blocks-su2-N3", "df-channel-collective-dephasing-N3",
                        "df-channel-superradiance-N3"})
LIGHT_PASSES = 16

# The N=3 superradiance one-step channel: df_algebra_discrete loses the
# identity, block_decompose then raises and the CLI exits 1.  Its input does
# not depend on the seed, so it fails in every round of every run.
KNOWN_FAILURES = frozenset({"df-channel-superradiance-N3"})


class _Writer:
    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)

    def __call__(self, name: str, obj) -> str:
        path = os.path.join(self.work_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


def build(workload: str, seed: int, work_dir: str) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    # the workload name enters the seed so workloads draw independent numbers
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    write = _Writer(work_dir)
    if workload == "born-budget":
        return _born_budget(rng, write)
    if workload == "gate-scan":
        return _gate_scan(rng, write)
    return _df_structure(rng, write)


# ---------------------------------------------------------------------------
# Born inputs


# Every control Hamiltonian has 1-norm CONTROL_NORM / tau.  The step
# exponentials of the 401-point time grid then all have 1-norm 0.006, below
# the smallest Pade threshold of scipy's expm, so the seed does not move the
# cost of the interaction picture.
CONTROL_NORM = 1.2


def _control(h, tau: float) -> np.ndarray:
    return h * (CONTROL_NORM / (tau * np.abs(h).sum(axis=0).max()))


def _segments(rng, n: int, tau: float, count: int, zero: bool = False):
    cuts = np.sort(rng.uniform(0.2, 0.8, size=count - 1)) if count > 1 else np.array([])
    edges = np.concatenate([[0.0], cuts, [1.0]]) * 2.0 * tau
    durations = np.diff(edges)
    durations[-1] = 2.0 * tau - durations[:-1].sum()
    return [{"dt": float(d), "H": ref.enc_matrix(
        np.zeros((n, n)) if zero else _control(ref.random_hermitian(n, rng), tau))}
        for d in durations]


def _amplitude(rng, r: int, lo: float, hi: float):
    """Scalar for one coupling operator, a real PSD matrix for two."""
    if r == 1:
        return float(rng.uniform(lo, hi))
    b = rng.normal(size=(r, r))
    m = b @ b.T + 0.2 * np.eye(r)
    return (m / np.trace(m) * rng.uniform(lo, hi) * r).tolist()


def _bath(family: str, rng, r: int, tau: float, scan: bool = False) -> dict:
    if family == "gaussian":
        return {"type": "gaussian", "coupling": _amplitude(rng, r, 0.005, 0.02),
                "width": float(rng.uniform(1.5, 3.0) / tau)}
    if family == "quartic-gaussian":
        return {"type": "quartic-gaussian", "coupling": float(rng.uniform(0.05, 0.2)),
                "width": float(rng.uniform(1.0, 3.0) / tau)}
    if family == "ohmic":
        return {"type": "ohmic", "coupling": float(rng.uniform(0.05, 0.2)),
                "kappa": float(rng.uniform(1.0, 2.0)), "cutoff": float(rng.uniform(1.0, 2.0) / tau)}
    if family == "flat":
        # scans need little device-correlator mass beyond the cutoff
        return {"type": "flat", "level": float(rng.uniform(0.002, 0.01)),
                "cutoff": float(rng.uniform(*((15.0, 25.0) if scan else (10.0, 20.0))) / tau)}
    raise ValueError(family)


def tabulate_gaussian(bath: dict, r: int, tau: float, n_points: int = 2001) -> dict:
    """Tabulated copy of a gaussian spectrum on +-40/tau, the CLI's default band."""
    omegas = np.linspace(-40.0 / tau, 40.0 / tau, n_points)
    amp = np.atleast_2d(np.asarray(bath["coupling"], dtype=float))
    if amp.shape == (1, 1) and r > 1:
        amp = amp[0, 0] * np.eye(r)
    profile = np.exp(-omegas ** 2 / (2.0 * bath["width"] ** 2))
    values = amp[0, 0] * profile if r == 1 else profile[:, None, None] * amp[None]
    return {"omega": omegas.tolist(), "R": values.tolist()}


def _born_case(rng, write, name: str, n: int, r: int, family: str, cmd: list,
               zero_control: bool = False) -> dict:
    tau = float(rng.uniform(0.6, 1.2))
    segments = _segments(rng, n, tau, int(rng.integers(1, 4)), zero=zero_control)
    traj = {"tau": tau, "segments": segments}
    ops = [ref.enc_matrix(ref.random_hermitian(n, rng, 1.0 / math.sqrt(n))) for _ in range(r)]
    psi = ref.enc_vector(ref.random_unit_vector(n, rng))
    twin = family == "tabulated"
    bath = _bath("gaussian" if twin else family, rng, r, tau, scan=cmd[0] == "scan")
    if zero_control:
        # constant S(s): eps(lambda) ~ f((lambda w tau)^2) with f(x) = 1 + (2x - 1) e^-x,
        # strictly decreasing from x = 1 on; the sharp switching edges leave a
        # floor that eps(8) and eps(4) share to ~1e-6
        bath["width"] = float(rng.uniform(1.0, 1.2) / tau)
    files = {"traj": write(name + "-traj", traj), "psi": write(name + "-psi", psi),
             "coupling": write(name + "-coupling", {"S": ops, "bath": bath})}
    job = {"id": name, "argv": [*cmd, "--traj", files["traj"], "--coupling", files["coupling"],
                                "--psi", files["psi"]],
           "n": n, "r": r, "family": family, "tau": tau, "bath": bath,
           "zero_control": zero_control}
    if twin:
        # the analytic gaussian run of the same device is the reference
        tab = write(name + "-tabulated", {"S": ops, "bath": tabulate_gaussian(bath, r, tau)})
        job["twin_argv"] = list(job["argv"])
        job["argv"][job["argv"].index(files["coupling"])] = tab
    job["files"] = files
    return job


# (dimension, coupling operators, bath family); tabulated jobs run the
# frequency route only, every other family runs both routes
BORN_LAYOUT = (
    (2, 1, "gaussian"), (2, 2, "quartic-gaussian"), (2, 1, "tabulated"),
    (4, 1, "ohmic"), (4, 2, "flat"), (4, 1, "gaussian"),
    (8, 1, "quartic-gaussian"), (8, 2, "ohmic"), (8, 1, "tabulated"),
    (16, 1, "flat"),
)


def _born_budget(rng, write) -> list:
    jobs = []
    for i, (n, r, family) in enumerate(BORN_LAYOUT):
        jobs.append(_born_case(rng, write, f"born-{i:02d}-n{n}-r{r}-{family}", n, r, family,
                               ["born-error"]))
        jobs[-1]["check"] = "born"
    jobs.extend(_born_closed_forms(rng, write))
    return jobs


def _closed_case(write, name: str, check: str, tau: float, segments, s_op, bath, psi,
                 **facts) -> dict:
    files = {
        "traj": write(name + "-traj", {"tau": tau, "segments": [
            {"dt": dt, "H": ref.enc_matrix(h)} for dt, h in segments]}),
        "coupling": write(name + "-coupling", {"S": [ref.enc_matrix(s_op)], "bath": bath}),
        "psi": write(name + "-psi", ref.enc_vector(psi)),
    }
    return {"id": name, "check": check, "files": files, **facts,
            "argv": ["born-error", "--traj", files["traj"], "--coupling", files["coupling"],
                     "--psi", files["psi"]]}


def _born_closed_forms(rng, write) -> list:
    # zero control, sz coupling, |+>, gaussian bath: the erf closed form
    tau = float(rng.uniform(0.6, 1.2))
    amp, width = float(rng.uniform(0.005, 0.02)), float(rng.uniform(1.5, 3.0) / tau)
    erf = _closed_case(write, "born-closed-erf", "erf", tau, [(2.0 * tau, np.zeros((2, 2)))],
                       ref.SZ, {"type": "gaussian", "coupling": amp, "width": width},
                       np.array([1.0, 1.0]) / math.sqrt(2.0),
                       expect=ref.gaussian_dephasing_epsilon(amp, width, tau))

    # the singlet under collective J_z with collective controls
    tau = float(rng.uniform(0.6, 1.2))
    spin = ref.collective_spin(2)
    controls = [(d, _control(sum(c * j for c, j in zip(rng.normal(size=3), spin)), tau))
                for d in (0.5 * tau, 1.5 * tau)]
    singlet = _closed_case(write, "born-closed-singlet", "zero", tau, controls, spin[2],
                           _bath("gaussian", rng, 1, tau),
                           np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))

    # |0> under sz with a diagonal control
    tau = float(rng.uniform(0.6, 1.2))
    pointer = _closed_case(write, "born-closed-pointer", "zero", tau,
                           [(2.0 * tau, _control(rng.choice([-1.0, 1.0]) * ref.SZ, tau))],
                           ref.SZ, _bath("ohmic", rng, 1, tau), np.array([1.0, 0.0]))
    return [erf, singlet, pointer]


# ---------------------------------------------------------------------------
# Gate-speed scans

LAMBDAS = (1.0, 2.0, 4.0, 8.0)
# (dimension, coupling operators, bath family, zero control); three scans
# in each cost group (n=2; n=4 with one coupling operator; n=4 with two), so
# the median job time falls in the middle of the middle group
SCAN_LAYOUT = (
    (2, 1, "gaussian", False), (2, 1, "flat", False), (2, 1, "quartic-gaussian", False),
    (4, 1, "gaussian", False), (4, 1, "flat", False), (4, 1, "quartic-gaussian", True),
    (4, 2, "gaussian", False), (4, 2, "flat", False), (4, 2, "quartic-gaussian", False),
)


def _gate_scan(rng, write) -> list:
    lam_arg = ",".join(f"{x:g}" for x in LAMBDAS)
    jobs = []
    for i, (n, r, family, zero) in enumerate(SCAN_LAYOUT):
        job = _born_case(rng, write, f"scan-{i:02d}-n{n}-r{r}-{family}", n, r, family,
                         ["scan", "--lambdas", lam_arg], zero_control=zero)
        job["check"] = {"gaussian": "scan_gaussian", "flat": "scan_flat",
                        "quartic-gaussian": "scan_quartic"}[family]
        jobs.append(job)
    return jobs


# ---------------------------------------------------------------------------
# Decoherence-free structure


def _unitary(n: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_unital(n: int, rank: int, rng) -> list:
    g = rng.normal(size=(n * rank, n)) + 1j * rng.normal(size=(n * rank, n))
    q, _ = np.linalg.qr(g)
    return [q[a * n:(a + 1) * n] for a in range(rank)]


def _channel(kraus) -> dict:
    return {"dim": int(kraus[0].shape[0]), "kraus": [ref.enc_matrix(w) for w in kraus]}


def _df_structure(rng, write) -> list:
    jobs = []

    def job(jid: str, argv: list, check: str, **facts):
        jobs.append({"id": jid, "argv": argv, "check": check, **facts})

    # channels: name -> (Kraus list, closed-form DF blocks or None)
    p = float(rng.uniform(0.1, 0.4))
    dephasing = [math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * ref.SZ]
    u = _unitary(2, rng)
    q = float(rng.uniform(0.1, 0.4))
    depol = [0.5 * np.kron(np.eye(2), s) for s in (np.eye(2), ref.SX, ref.SY, ref.SZ)]
    chans = {
        "dephasing": (dephasing, [(1, 1), (1, 1)]),
        "random-unital-n3": (_random_unital(3, 2, rng), [(1, 3)]),
        "u-x-dephasing": ([np.kron(u, w) for w in
                           (math.sqrt(1 - q) * np.eye(2), math.sqrt(q) * ref.SZ)],
                          [(2, 1), (2, 1)]),
        "id-x-depolarizing": (depol, [(2, 2)]),
    }
    for n_sites in (2, 3):
        jz = ref.collective(0.5 * ref.SZ, n_sites)
        weights = rng.dirichlet(np.ones(3))
        angles = rng.uniform(0.3, 2.8, size=3)
        kraus = [math.sqrt(w) * np.diag(np.exp(-1j * a * np.diag(jz)))
                 for w, a in zip(weights, angles)]
        chans[f"collective-dephasing-N{n_sites}"] = (kraus,
                                                     ref.collective_dephasing_blocks(n_sites))
    for n_sites in (2, 3):
        chans[f"superradiance-N{n_sites}"] = (ref.superradiance_channel(n_sites), None)

    paths = {name: write("channel-" + name, _channel(k)) for name, (k, _) in chans.items()}
    for name, (kraus, blocks) in chans.items():
        job(f"df-channel-{name}", ["df", "--channel", paths[name]], "df_channel",
            kraus=name, blocks=blocks,
            permutations=int(name[-1]) if name.startswith("superradiance") else 0)
    for name in ("dephasing", "random-unital-n3", "id-x-depolarizing", "superradiance-N2"):
        job(f"analyze-channel-{name}", ["analyze-channel", "--channel", paths[name]],
            "analyze_channel", kraus=name, blocks=chans[name][1])

    # generators
    omega, gamma = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5))
    gens = {f"superradiance-N{k}": {"model": "superradiance", "N": k, "omega": omega,
                                    "gamma": gamma} for k in (2, 3)}
    energies = np.sort(rng.uniform(0.0, 2.0, size=3))[::-1]
    lower = [np.zeros((3, 3), dtype=complex) for _ in range(2)]
    lower[0][1, 0] = 1.0
    lower[1][2, 1] = float(rng.uniform(0.5, 1.5))
    gens["gibbs-qutrit"] = {"H": ref.enc_matrix(np.diag(energies)),
                            "V": [ref.enc_matrix(v) for v in lower],
                            "T": float(rng.uniform(0.5, 2.0))}
    gens["private-bath-N2"] = {"model": "private_bath", "N": 2,
                               "v_site": [ref.enc_matrix(math.sqrt(gamma) * ref.SM)]}
    gpaths = {name: write("generator-" + name, g) for name, g in gens.items()}
    for k in (2, 3):
        name = f"superradiance-N{k}"
        job(f"df-generator-{name}", ["df", "--generator", gpaths[name]], "algebra",
            permutations=k, blocks=ref.schur_weyl_blocks(k, "S_N"))
    job("df-generator-gibbs-qutrit", ["df", "--generator", gpaths["gibbs-qutrit"]],
        "algebra")
    job("analyze-semigroup-superradiance-N2",
        ["analyze-semigroup", "--generator", gpaths["superradiance-N2"]], "analyze_semigroup",
        blocks=ref.schur_weyl_blocks(2, "S_N"))
    for name, sites, local in (("superradiance-N2", 2, True), ("superradiance-N3", 3, True),
                               ("private-bath-N2", 2, False)):
        job(f"invariance-{name}",
            ["invariance", "--generator", gpaths[name], "--sites", str(sites)],
            "invariance", locally_invariant=local)

    # dark states stay put
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    dark2 = write("state-dark-N2", ref.enc_matrix(np.outer(singlet, singlet.conj())))
    d3 = ref.dark_state(3, rng)
    dark3 = write("state-dark-N3", ref.enc_matrix(np.outer(d3, d3.conj())))
    job("evolve-generator-superradiance-N2",
        ["evolve", "--generator", gpaths["superradiance-N2"], "--state", dark2,
         "--times", "0,0.5,1,2"], "evolve", state=dark2)
    job("evolve-generator-superradiance-N3",
        ["evolve", "--generator", gpaths["superradiance-N3"], "--state", dark3,
         "--times", "0,0.5,1,2"], "evolve", state=dark3)
    job("evolve-channel-superradiance-N2",
        ["evolve", "--channel", paths["superradiance-N2"], "--state", dark2, "--steps", "5"],
        "evolve", state=dark2)

    # Schur-Weyl: blocks of the S_N and su(2) algebras
    for k in (3, 4):
        ops = [ref.enc_matrix(m) for m in ref.adjacent_transpositions(k)]
        path = write(f"ops-S{k}", {"ops": ops})
        job(f"blocks-S{k}", ["blocks", "--ops", path], "algebra",
            blocks=ref.schur_weyl_blocks(k, "S_N"), permutations=k)
    for k in (2, 3):
        path = write(f"ops-su2-N{k}", {"ops": [ref.enc_matrix(m) for m in ref.collective_spin(k)]})
        job(f"blocks-su2-N{k}", ["blocks", "--ops", path], "algebra",
            blocks=ref.schur_weyl_blocks(k, "su2"))

    for j in jobs:
        if "kraus" in j:
            j["kraus_file"] = paths[j["kraus"]]
        j["repeat"] = 1 if j["id"] in HEAVY_JOBS else LIGHT_PASSES
    return jobs
