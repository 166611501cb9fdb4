"""Benchmark of the decofree CLI: end-to-end metrics or per-layer traces.

    python3 perfbench/run.py --workload born-budget --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding
``BENCHMARK.json``, ``src/decofree`` and ``perfbench``); nothing needs to be
installed.  One run:

1. compiles the package and the benchmark to bytecode;
2. times set-up in fresh interpreters (import decofree, write the seeded
   inputs): one discarded warm-up, then ``SETUP_SAMPLES`` timed ones, some
   before and the rest after the timed loop;
3. runs the timed loop in one more fresh interpreter (``worker.py``): whole
   rounds of in-process ``decofree.cli.main(argv)`` calls, one client, closed
   loop, until ``--seconds`` have passed;
4. checks every report of the first round (``checks.py``) and that later
   rounds repeat it byte for byte; a job that fails, other than the known
   faults in ``workloads.KNOWN_FAILURES``, makes the run incorrect;
5. writes ``perfbench/results/<workload>-seed<n>-trace<t>.json`` and prints,
   as its last line, ``{"correct", "attempted", "failed", "metrics"}``: the
   end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

The metric names and units come from ``BENCHMARK.json``.  The BLAS thread
count is fixed to one before numpy is imported, here and in every worker.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn_setup(common: list, deadline: float) -> float:
    """Seconds from spawning a fresh interpreter to its READY line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "setup", *common],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed:\n{err}")
    return elapsed


def _run_loop(common: list, args, out: str, spans: str, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "loop", *common, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out, "--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("timed loop overran the run budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"timed loop exited {proc.returncode}:\n{err}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _source_lines() -> int:
    pkg = os.path.join(SRC, "decofree")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def _tail(samples: list):
    """Highest whole percentile with at least ten samples beyond it (>= 40 samples)."""
    n = len(samples)
    if n < 40:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="decofree CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(SRC, "decofree", "__init__.py")):
        print(f"no package source at {os.path.join(SRC, 'decofree')}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    compileall.compile_dir(os.path.join(SRC, "decofree"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    work = os.path.join(HERE, "work", f"{args.workload}-seed{args.seed}")
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]

    try:
        _spawn_setup(common, deadline)  # warm-up: file cache and bytecode
        # samples on both sides of the loop, so the median spans the run
        setup = [_spawn_setup(common, deadline) for _ in range(SETUP_SAMPLES // 2)]
        loop = _run_loop(common, args, os.path.join(work, f"loop-trace{args.trace}.json"),
                         stem + "-spans.tsv.gz", deadline)
        setup += [_spawn_setup(common, deadline) for _ in range(SETUP_SAMPLES - len(setup))]
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    sys.path[:0] = [HERE, SRC]
    import numpy as np
    import scipy

    import checks
    import decofree.cli as cli
    import workloads

    jobs = loop["jobs"]
    samples = loop["samples"]
    codes = {}
    for j, _, code in samples:
        codes.setdefault(j, set()).add(code)
    failures, mended = [], []
    for j, c in sorted(codes.items()):
        jid = jobs[j]["id"]
        if len(c) > 1:
            failures.append(f"{jid}: exit code varies between rounds {sorted(c)}")
        elif c != {0} and jid not in workloads.KNOWN_FAILURES:
            failures.append(f"{jid}: unexpected failure, exit {min(c)}: {loop['errors'][jid]}")
        elif c == {0} and jid in workloads.KNOWN_FAILURES:
            mended.append(jid)  # its report is checked like any other below
    passed = {jobs[j]["id"]: loop["reports"][jobs[j]["id"]]
              for j, c in codes.items() if c == {0}}
    failures += checks.run(cli, jobs, passed)
    failures += [f"{jid}: report differs between rounds" for jid in loop["nondeterministic"]]
    failed = sum(1 for _, _, code in samples if code != 0)

    times = [dt for _, dt, _ in samples]
    per_job = [statistics.median(dt for j, dt, _ in samples if j == k) for k in range(len(jobs))]
    repeat = [job.get("repeat", 1) for job in jobs]
    end_to_end = {
        "setup_s": statistics.median(setup),
        # each job of the round weighs the same, however often it runs in a
        # round and however long it takes
        "jobs_per_s": 1.0 / statistics.geometric_mean(per_job),
        "job_p50_s": statistics.median(times),
        "peak_rss_mb": loop["maxrss_kb"] / 1024.0,
    }
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": loop["blas"],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "src_decofree_lines": _source_lines(),
    }
    tail = _tail(times)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts,
        "jobs_per_round": sum(repeat), "rounds": loop["rounds"], "loop_s": loop["loop_s"],
        "attempted": len(samples), "failed": failed,
        "failed_jobs": loop["errors"], "check_failures": failures,
        "setup_samples_s": setup, "samples": len(times),
        "tail_percentile": list(tail) if tail else None,
        "job_median_s": {job["id"]: t for job, t in zip(jobs, per_job)},
        "end_to_end": end_to_end,
    }

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    if args.trace:
        summary["per_layer"] = loop["per_layer"]
        summary["spans_file"] = os.path.relpath(stem + "-spans.tsv.gz", ROOT)
        summary["span_count"] = loop["span_count"]
        values = loop["per_layer"]
    else:
        values = end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    print(f"# {args.workload} seed {args.seed}: {sum(repeat)} jobs/round x {loop['rounds']} rounds "
          f"in {loop['loop_s']:.1f} s; attempted {len(samples)}, failed {failed}")
    for jid, err in loop["errors"].items():
        kind = "known fault" if jid in workloads.KNOWN_FAILURES else "UNEXPECTED"
        print(f"#   failed ({kind}): {jid}: {err}")
    for jid in mended:
        print(f"#   known fault mended: {jid} exits 0; its report is checked")
    for msg in failures:
        print(f"#   CHECK FAILED: {msg}")
    print(f"# machine: nproc {facts['nproc']}, BLAS threads {facts['blas_threads']['threads']}, "
          f"numpy {facts['numpy']}, scipy {facts['scipy']}, "
          f"src/decofree {facts['src_decofree_lines']} lines")
    print(f"# job wall time: median {end_to_end['job_p50_s']:.4f} s over {len(times)} samples; "
          + (f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile (< 40 samples)"))
    print(f"# summary: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
