"""Reach of the decofree CLI at the sizes README states: one JSON line per case.

    python3 tools/reach.py

Run from the root of a source checkout; nothing needs to be installed.  Each
case writes its inputs from fixed seeds into a temporary directory, then runs
one subcommand in a fresh interpreter whose address space is capped at 1 GiB
(``RLIMIT_AS``), with one BLAS thread.  The child times ``decofree.cli.main``
after import, with the report written to a file, and prints its exit code,
that time and its peak resident set size (``VmHWM``).  This script prints,
per case, ``{"case", "command", "exit", "seconds", "peak_rss_mb"}``.

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
from decofree.operators import random_hermitian, random_unitary, sz  # noqa: E402
from decofree.symmetry import build_permutation_rep, collective_spin  # noqa: E402

LIMIT = 1 << 30
CHILD = f"""
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, ({LIMIT}, {LIMIT}))
from decofree.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
seconds = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({{"exit": code, "seconds": round(seconds, 2), "peak_rss_mb": hwm // 1024}}))
"""


def _case(name: str, argv: list, inputs: dict) -> dict:
    """argv names each input file by its key in inputs, a builder of its JSON object."""
    return {"case": name, "argv": argv, "inputs": inputs}


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


def superradiance(command: str, n_sites: int) -> dict:
    """`command --generator` on the collective-decay model, omega = gamma = 1; `evolve`
    starts from the maximally mixed state."""
    argv = [command, "--generator", "model"]
    inputs = {"model": lambda: {"model": "superradiance", "N": n_sites,
                                "omega": 1.0, "gamma": 1.0}}
    if command == "invariance":
        argv += ["--sites", str(n_sites)]
    if command == "evolve":
        argv += ["--state", "state"]
        inputs["state"] = lambda: matrix_to_json(np.eye(2 ** n_sites) / 2 ** n_sites)
    return _case(f"{command}-superradiance-N{n_sites}", argv, inputs)


CASES = [
    *(df_channel(n) for n in (64, 128, 256)),
    df_shift_pinching(64),
    *(thermal_ladder(command, n) for command in ("df", "analyze-semigroup") for n in (64, 256)),
    blocks("su2", 6),
    blocks("S_N", 6),
    superradiance("df", 6),
    superradiance("invariance", 6),
    # at the cap; each of these exits 1 under 1 GiB (ROADMAP items 1 and 3)
    blocks_random(64),
    df_unitary(64, dephased=False),
    df_unitary(64, dephased=True),
    analyze_channel(64),
    superradiance("evolve", 6),
]


def run(case: dict, work_dir: str) -> dict:
    paths = {}
    for key, build in case["inputs"].items():
        paths[key] = os.path.join(work_dir, f"{case['case']}-{key}.json")
        with open(paths[key], "w", encoding="utf-8") as fh:
            json.dump(build(), fh)
    argv = [paths.get(arg, arg) for arg in case["argv"]]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = os.path.join(work_dir, f"{case['case']}-report.json")
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv, "--out", out], env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {
        "exit": proc.returncode, "seconds": None, "peak_rss_mb": None}
    return {"case": case["case"], "command": " ".join(case["argv"]), **result}


def main(cases: list) -> list:
    results = []
    with tempfile.TemporaryDirectory() as work_dir:
        for case in cases:
            results.append(run(case, work_dir))
            print(json.dumps(results[-1]), flush=True)
    return results


if __name__ == "__main__":
    main(CASES)
