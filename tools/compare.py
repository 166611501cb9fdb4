"""In-process A/B of the decofree CLI against a git revision: one JSON line per workload and seed.

    python3 tools/compare.py BASE

Run from the root of a git checkout; nothing needs to be installed.  BASE's
``src/decofree`` is extracted with ``git archive`` into a temporary directory
and imported as the package ``decofree_base``, beside the working tree's
``decofree``: every import inside the package is relative, so the two copies
load side by side in one process.  Each workload's jobs come from
``perfbench/workloads.py`` at seeds 301 and 7717, their inputs written into a
temporary directory.  Every job runs once per side to warm up, then in ROUNDS
rounds on both sides back to back, the side that goes first alternating per
job and per round.  A run is one ``cli.main(argv)`` call with stdout captured.

Per workload and seed it prints ``{"workload", "seed", "base", "rounds",
"jobs", "ratio", "ci95", "tree_minflt", "base_minflt", "differs"}``:
``ratio`` is the geometric mean over jobs of the median time of the working
tree over the median time of BASE, ``ci95`` a seeded 95% bootstrap interval
over jobs, ``tree_minflt`` and ``base_minflt`` each side's mean minor page
faults per timed call (``ru_minflt`` of this process around the call; a
temporary that the allocator maps and unmaps on every call shows here), and
``differs`` the ids of jobs whose exit code or stdout differs between the
sides.  The tool reports and does not gate: HEAD against itself has read
ratios up to 3% off 1.

``main(base, workloads, seeds, rounds)`` runs any selection and returns the lines.
"""

from __future__ import annotations

import os
import sys

# the BLAS thread count has to be fixed before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402

from workloads import WORKLOADS, build  # noqa: E402

SEEDS = (301, 7717)
ROUNDS = 15
BOOTSTRAP = 2000


def _base_cli(base: str, tmp: str):
    """decofree.cli of git revision base, extracted under tmp and imported as decofree_base."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", base, "src/decofree"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(tmp, filter="data")
    pkg = os.path.join(tmp, "src", "decofree")
    for name in [m for m in sys.modules if m.split(".")[0] == "decofree_base"]:
        del sys.modules[name]  # a copy an earlier call loaded
    spec = importlib.util.spec_from_file_location(
        "decofree_base", os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules["decofree_base"] = module
    spec.loader.exec_module(module)
    return importlib.import_module("decofree_base.cli")


def _run(cli, argv) -> tuple:
    """(seconds, minor page faults, exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = perf_counter()
        code = cli.main(list(argv))
        seconds = perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return seconds, faults, code, out.getvalue()


def _compare(clis, jobs, rounds: int) -> tuple:
    """(per-job median time ratios tree / base, mean minor faults per call of each side,
    ids of jobs whose exit or stdout differs).

    The first run of each job on each side warms it up and gives the outputs compared.
    """
    differs = [job["id"] for job in jobs
               if _run(clis[0], job["argv"])[2:] != _run(clis[1], job["argv"])[2:]]
    times = np.zeros((len(jobs), rounds, 2))
    faults = np.zeros((len(jobs), rounds, 2))
    for r in range(rounds):
        for j, job in enumerate(jobs):
            for side in ((0, 1) if (j + r) % 2 == 0 else (1, 0)):
                times[j, r, side], faults[j, r, side] = _run(clis[side], job["argv"])[:2]
    median = np.median(times, axis=1)
    return median[:, 0] / median[:, 1], faults.mean(axis=(0, 1)), differs


def main(base: str, workloads=WORKLOADS, seeds=SEEDS, rounds: int = ROUNDS) -> list:
    import decofree.cli as tree

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        clis = (tree, _base_cli(base, tmp))
        for workload in workloads:
            for seed in seeds:
                jobs = build(workload, seed, os.path.join(tmp, f"{workload}-{seed}"))
                ratios, faults, differs = _compare(clis, jobs, rounds)
                logs = np.log(ratios)
                rng = np.random.default_rng(seed)
                boot = logs[rng.integers(0, len(logs), size=(BOOTSTRAP, len(logs)))].mean(axis=1)
                line = {"workload": workload, "seed": seed, "base": base, "rounds": rounds,
                        "jobs": len(jobs), "ratio": round(float(np.exp(logs.mean())), 4),
                        "ci95": [round(float(np.exp(q)), 4)
                                 for q in np.percentile(boot, [2.5, 97.5])],
                        "tree_minflt": round(float(faults[0]), 2),
                        "base_minflt": round(float(faults[1]), 2), "differs": differs}
                print(json.dumps(line), flush=True)
                lines.append(line)
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
