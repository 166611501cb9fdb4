"""One fresh interpreter of the benchmark.

``worker.py setup ...`` imports the package, writes the workload's inputs,
prints READY and exits: the parent times it from spawn to READY.

``worker.py loop ...`` does the same set-up, then runs whole rounds of the
workload's jobs, each one in-process ``decofree.cli.main(argv)`` call, until
``--seconds`` have passed.  A round makes passes over the jobs with a
``repeat`` count and spreads the jobs that run once between the passes.
It records every job's wall time and exit code, the first report of every
job, a digest of every later one, its own peak resident memory and, with
``--trace 1``, spans and counts; it writes all of that as JSON to
``--out`` and the spans to ``--spans``.
"""

from __future__ import annotations

import os
import sys

# the BLAS thread count has to be fixed before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def blas_threads() -> dict:
    """Thread count reported by the loaded OpenBLAS, else the environment's."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"threads": int(fn()), "source": sym}
    return {"threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "source": "OPENBLAS_NUM_THREADS"}


def round_order(jobs) -> list:
    """Job indices of one round: passes over the repeated jobs, with the
    jobs that run once spread evenly between the passes, so the samples of
    the short jobs cover the whole round rather than one stretch of it."""
    repeat = [job.get("repeat", 1) for job in jobs]
    passes = max(repeat)
    once = [j for j, r in enumerate(repeat) if r == 1]
    order = []
    for p in range(passes):
        order += [j for j, r in enumerate(repeat) if r > 1 and p < r]
        order += [j for i, j in enumerate(once) if i * passes // len(once) == p]
    return order


def run_loop(args, cli, jobs) -> dict:
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    samples = []
    reports, errors, mismatched = {}, {}, set()
    digests = {}
    rounds = 0
    t_begin = perf_counter()
    order = round_order(jobs)
    while True:
        for j in order:
            job = jobs[j]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = perf_counter()
                try:
                    if tracer is None:
                        code = cli.main(job["argv"])
                    else:
                        code = tracer.run_job(len(samples), cli.main, job["argv"])
                except Exception:
                    # what escapes main() ends the real CLI with a traceback, exit 1
                    traceback.print_exc()
                    code = 1
                dt = perf_counter() - t0
            samples.append([j, dt, int(code)])
            text = out.getvalue()
            digest = hashlib.sha256(text.encode()).hexdigest()
            if job["id"] not in digests:
                reports[job["id"]] = text
                digests[job["id"]] = digest
                if code != 0:
                    lines = err.getvalue().strip().splitlines() or text.strip().splitlines()
                    errors[job["id"]] = lines[-1] if lines else f"exit {code}"
            elif digest != digests[job["id"]]:
                mismatched.add(job["id"])
        rounds += 1
        if perf_counter() - t_begin >= args.seconds:
            break
    loop_s = perf_counter() - t_begin
    result = {
        "rounds": rounds,
        "loop_s": loop_s,
        "samples": samples,
        "reports": reports,
        "errors": errors,
        "nondeterministic": sorted(mismatched),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas": blas_threads(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.per_layer(len(order), rounds)
        result["span_count"] = tracer.write(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "loop"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for the generated inputs")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON result file of the loop")
    parser.add_argument("--spans", help="gzipped span file written with --trace 1")
    args = parser.parse_args(argv)

    import decofree.cli as cli
    import workloads

    jobs = workloads.build(args.workload, args.seed, args.work)
    if args.mode == "setup":
        print("READY", flush=True)
        return 0
    result = run_loop(args, cli, jobs)
    result["jobs"] = jobs
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
