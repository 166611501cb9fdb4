"""Reach of the decofree CLI at the sizes README states: one JSON line per case.

    python3 tools/reach.py

Run from the root of a source checkout; nothing needs to be installed.  Each
case writes its inputs from fixed seeds into a temporary directory, then runs
one subcommand in a fresh interpreter whose address space is capped at 1 GiB
(``RLIMIT_AS``), with one BLAS thread and a 120 s timeout (``capped``, which
the test suite's ``run_within_one_gib`` fixture also is).  The child times
``decofree.cli.main`` after import, with the report written to a file, and
prints its exit code, that time and its peak resident set size (``VmHWM``).
This script prints, per case, ``{"case", "command", "exit", "seconds",
"peak_rss_mb"}``, with ``"error"``, the last line the child wrote to stderr,
when the exit code is not 0.  A case built with ``expect`` also gets
``"expected"``: true when the command exited 0 and its report holds every
listed field (a float within 1e-10, a dict field by field, anything else
equal).

``main(cases)`` runs any list of cases built by the functions below.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from decofree.channels import KrausMap, random_unital_channel  # noqa: E402
from decofree.jsonio import channel_to_json, matrix_to_json  # noqa: E402
from decofree.operators import random_hermitian, random_unitary, sm, sz  # noqa: E402
from decofree.symmetry import build_permutation_rep, collective_spin  # noqa: E402

LIMIT = 1 << 30
CHILD = """
import json, sys, time
from decofree.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
seconds = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "seconds": round(seconds, 2), "peak_rss_mb": hwm // 1024}))
"""


def capped(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run Python source in a fresh interpreter whose address space is capped at 1 GiB.

    argv becomes the child's sys.argv[1:]; this checkout's src comes first on
    its path, BLAS runs on one thread, and a child still running after 120 s
    raises subprocess.TimeoutExpired.
    """
    prelude = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({LIMIT}, {LIMIT}))\n"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", prelude + code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def _case(name: str, argv: list, inputs: dict) -> dict:
    """argv names each input file by its key in inputs, a builder of its JSON object."""
    return {"case": name, "argv": argv, "inputs": inputs}


def expect(case: dict, **fields) -> dict:
    """The case with the report fields it must produce."""
    return {**case, "expected": fields}


def _holds(report, expected) -> bool:
    if isinstance(expected, dict):
        return isinstance(report, dict) and all(
            key in report and _holds(report[key], value) for key, value in expected.items())
    if isinstance(expected, float):
        return isinstance(report, (int, float)) and abs(report - expected) <= 1e-10
    return report == expected


def _random_unital(n: int) -> dict:
    """The input of a random unital channel with 2 Kraus operators, seed n."""
    return {"channel": lambda: channel_to_json(
        random_unital_channel(n, 2, np.random.default_rng(n)))}


def df_channel(n: int) -> dict:
    """`df --channel` on a random unital channel with 2 Kraus operators, seed n."""
    return _case(f"df-channel-random-unital-n{n}", ["df", "--channel", "channel"],
                 _random_unital(n))


def analyze_channel(n: int) -> dict:
    """`analyze-channel` on the random unital channel of `df_channel(n)`."""
    return _case(f"analyze-channel-random-unital-n{n}", ["analyze-channel", "--channel", "channel"],
                 _random_unital(n))


def df_unitary(n: int, dephased: bool) -> dict:
    """`df --channel` on a random unitary channel, seed n, or on U (x) qubit dephasing,
    the Kraus operators sqrt(0.7) U (x) 1 and sqrt(0.3) U (x) sz for U of dimension n / 2."""
    def channel():
        if not dephased:
            return channel_to_json(KrausMap([random_unitary(n, np.random.default_rng(n))]))
        u = random_unitary(n // 2, np.random.default_rng(n))
        return channel_to_json(KrausMap([np.sqrt(0.7) * np.kron(u, np.eye(2)),
                                         np.sqrt(0.3) * np.kron(u, sz)]))
    name = "unitary-x-dephasing" if dephased else "unitary"
    return _case(f"df-channel-{name}-n{n}", ["df", "--channel", "channel"], {"channel": channel})


def df_shift_pinching(n: int) -> dict:
    """`df --channel` on Gamma(A) = (S V)† E_D(A) (S V), E_D the pinching to the diagonal,
    S the cyclic shift, V a 0.7 rad rotation of e_0, e_1: the recursion takes n - 1 steps."""
    def channel():
        c, s = np.cos(0.7), np.sin(0.7)
        v = np.eye(n, dtype=complex)
        v[:2, :2] = [[c, -s], [s, c]]
        shift_v = np.roll(np.eye(n), 1, axis=0) @ v
        return channel_to_json(KrausMap([np.outer(e, e) @ shift_v for e in np.eye(n)]))
    return _case(f"df-channel-shift-pinching-n{n}", ["df", "--channel", "channel"],
                 {"channel": channel})


def thermal_ladder(command: str, n: int) -> dict:
    """n levels H = diag(19.2 k / n), one lowering operator through all of them, T = 1."""
    return _case(f"{command}-thermal-ladder-n{n}", [command, "--generator", "ladder"],
                 {"ladder": lambda: {"H": matrix_to_json(np.diag(19.2 * np.arange(n) / n)),
                                     "V": [matrix_to_json(np.diag(np.ones(n - 1), 1))],
                                     "T": 1.0}})


def blocks_random(n: int) -> dict:
    """`blocks --ops` on two random hermitian matrices, seed n: they generate M_n."""
    def ops():
        rng = np.random.default_rng(n)
        return {"ops": [matrix_to_json(random_hermitian(n, rng)) for _ in range(2)]}
    return _case(f"blocks-random-hermitian-n{n}", ["blocks", "--ops", "ops"], {"ops": ops})


def blocks(algebra: str, n_sites: int) -> dict:
    """`blocks --ops` on collective spin ("su2") or adjacent transpositions ("S_N")."""
    def ops():
        mats = (collective_spin(n_sites) if algebra == "su2"
                else build_permutation_rep(n_sites).generators)
        return {"ops": [matrix_to_json(m) for m in mats]}
    return _case(f"blocks-{algebra}-N{n_sites}", ["blocks", "--ops", "ops"], {"ops": ops})


def registry_model(command: str, model: str, n_sites: int) -> dict:
    """`command --generator` on a registry model: "superradiance", collective decay with
    omega = gamma = 1, or "private_bath", one sigma_minus per site and H = 0; `evolve`
    starts from the maximally mixed state."""
    argv = [command, "--generator", "model"]
    params = ({"omega": 1.0, "gamma": 1.0} if model == "superradiance"
              else {"v_site": [matrix_to_json(sm)]})
    inputs = {"model": lambda: {"model": model, "N": n_sites, **params}}
    if command == "invariance":
        argv += ["--sites", str(n_sites)]
    if command == "evolve":
        argv += ["--state", "state"]
        inputs["state"] = lambda: matrix_to_json(np.eye(2 ** n_sites) / 2 ** n_sites)
    return _case(f"{command}-{model.replace('_', '-')}-N{n_sites}", argv, inputs)


EXACT = {"dimension": 1, "certificate": "exact"}
CASES = [
    *(expect(df_channel(n), k_used=1, **EXACT) for n in (64, 128, 256)),
    expect(df_shift_pinching(64), dimension=1, k_used=64),
    *(expect(thermal_ladder("df", n), **EXACT) for n in (64, 256)),
    *(expect(thermal_ladder("analyze-semigroup", n), decoherence_free={"dimension": 1},
             detailed_balance={"stationary": True, "commuting_parts": True,
                               "hermitian_dissipator": True}) for n in (64, 256)),
    expect(blocks("su2", 6), dimension=84, blocks=[[7, 1], [5, 5], [3, 9], [1, 5]]),
    *(expect(case, dimension=132, blocks=[[9, 3], [5, 5], [5, 1], [1, 7]])
      for case in (blocks("S_N", 6), registry_model("df", "superradiance", 6))),
    expect(registry_model("invariance", "superradiance", 6), locally_invariant=True,
           group_algebra_inside_commutant=True),
    expect(registry_model("df", "private_bath", 6), **EXACT),
    expect(registry_model("analyze-semigroup", "private_bath", 6), decoherence_free=EXACT),
    expect(registry_model("invariance", "private_bath", 6), locally_invariant=False,
           global_residual=0.0),
    # at the cap; each of these exits 1 under 1 GiB (ROADMAP items 1 and 3)
    blocks_random(64),
    df_unitary(64, dephased=False),
    df_unitary(64, dephased=True),
    analyze_channel(64),
    registry_model("evolve", "superradiance", 6),
]


def run(case: dict, work_dir: str) -> dict:
    paths = {}
    for key, build in case["inputs"].items():
        paths[key] = os.path.join(work_dir, f"{case['case']}-{key}.json")
        with open(paths[key], "w", encoding="utf-8") as fh:
            json.dump(build(), fh)
    argv = [paths.get(arg, arg) for arg in case["argv"]]
    out = os.path.join(work_dir, f"{case['case']}-report.json")
    proc = capped(CHILD, *argv, "--out", out)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {
        "exit": proc.returncode, "seconds": None, "peak_rss_mb": None}
    line = {"case": case["case"], "command": " ".join(case["argv"]), **result}
    if result["exit"]:
        line["error"] = (proc.stderr.strip().splitlines() or [""])[-1]
    if "expected" in case:
        report = None
        if result["exit"] == 0:
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
        line["expected"] = _holds(report, case["expected"])
    return line


def main(cases: list) -> list:
    results = []
    with tempfile.TemporaryDirectory() as work_dir:
        for case in cases:
            results.append(run(case, work_dir))
            print(json.dumps(results[-1]), flush=True)
    return results


if __name__ == "__main__":
    main(CASES)
