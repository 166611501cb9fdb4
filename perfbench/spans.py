"""In-memory spans and counts around the package's layer boundaries.

Each layer is a module of ``decofree``.  ``Tracer.install`` replaces a
layer's public functions by wrappers at every place they are looked up: the
attribute of every loaded ``decofree`` module that holds the function (so a
name imported into another module is wrapped too) and, for methods, the
class attribute.  A function a layer imports from another module (such as
``born.sandwich_superop``) is wrapped in that layer's namespace only.

A span records its name, start, end, parent span and job id; its self time
is its duration minus the time covered by its child spans.  Count-only
targets add no span, so their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


# (label, module, owner inside the module or None, attribute, mode)
# mode: "span" times the call and counts it, "count" only counts it
TARGETS = (
    ("jsonio.load", "jsonio", None, "load_json", "span"),
    ("jsonio.dump", "jsonio", None, "dump_json", "span"),
    ("born.interaction_ops", "born", None, "interaction_ops", "span"),
    ("born.propagator", "born", "ControlTrajectory", "propagator", "count"),
    ("born.rescaled", "born", "ControlTrajectory", "rescaled", "count"),
    ("born.error_map", "born", None, "error_map", "span"),
    ("born.sandwich_superop", "born", None, "sandwich_superop", "count"),
    ("born.error_time_domain", "born", None, "error_time_domain", "span"),
    ("born.filter_operators", "born", None, "filter_operators", "span"),
    ("born.device_correlator", "born", None, "device_correlator", "span"),
    ("born.error_frequency_domain", "born", None, "error_frequency_domain", "span"),
    ("born.bath_eval", "born", "Bath", "spectral_matrix", "span"),
    ("born.bath_eval", "born", "Bath", "correlation_matrix", "span"),
    ("born.gate_speed_scan", "born", None, "gate_speed_scan", "span"),
    ("algebra.nullspace", "algebra", None, "nullspace", "span"),
    ("algebra.commutant", "algebra", None, "commutant", "span"),
    ("algebra.generated_algebra", "algebra", None, "generated_algebra", "span"),
    ("algebra.block_decompose", "algebra", None, "block_decompose", "span"),
    ("algebra.multiplicative_domain", "algebra", None, "multiplicative_domain", "span"),
    ("algebra.intersect_spans", "algebra", None, "intersect_spans", "span"),
    ("algebra.df_algebra_discrete", "algebra", None, "df_algebra_discrete", "span"),
    ("algebra.df_algebra_semigroup", "algebra", None, "df_algebra_semigroup", "span"),
    ("algebra.fixed_points", "algebra", None, "fixed_points", "span"),
    ("channels.compose", "channels", None, "compose", "span"),
    ("channels.reduce_kraus", "channels", None, "reduce_kraus", "span"),
    ("channels.choi_matrix", "channels", None, "choi_matrix", "span"),
    ("lindblad.dissipator_matrix", "lindblad", "GKLSGenerator", "dissipator_matrix", "span"),
    ("lindblad.detailed_balance_check", "lindblad", None, "detailed_balance_check", "span"),
    ("lindblad.evolve_state", "lindblad", None, "evolve_state", "span"),
    ("symmetry.local_invariance_check", "symmetry", None, "local_invariance_check", "span"),
    ("symmetry.global_invariance_residual", "symmetry", None, "global_invariance_residual",
     "span"),
)

SUBCOMMANDS = ("analyze-channel", "analyze-semigroup", "df", "blocks", "invariance",
               "born-error", "scan", "evolve")


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.labels: list[str] = []
        self._label_index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.parent = array("q")
        self.job = array("i")
        self.calls: Counter = Counter()
        self.nullspace_max_rows = 0
        self.job_id = -1
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        self._cli_spans: dict = {}

    def _intern(self, label: str) -> int:
        if label not in self._label_index:
            self._label_index[label] = len(self.labels)
            self.labels.append(label)
        return self._label_index[label]

    def span_wrapper(self, label: str, fn):
        idx = self._intern(label)
        stack = self._stack
        calls = self.calls
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[label] += 1
            i = len(self.start)
            self.name.append(idx)
            self.parent.append(stack[-1][0] if stack else -1)
            self.job.append(self.job_id)
            self.end.append(0.0)
            self.self_time.append(0.0)
            frame = [i, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[i] = t1
                self.self_time[i] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return wrapper

    def count_wrapper(self, label: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def nullspace_rows(self, fn):
        """Wrap ``algebra.nullspace(mat, ...)`` to keep the tallest matrix seen."""

        @functools.wraps(fn)
        def wrapper(mat, *args, **kwargs):
            self.nullspace_max_rows = max(self.nullspace_max_rows, int(np.shape(mat)[0]))
            return fn(mat, *args, **kwargs)

        return wrapper

    def run_job(self, job_id: int, main, argv: list) -> int:
        """Run one CLI call as the root span cli.<subcommand>."""
        self.job_id = job_id
        label = "cli." + argv[0]
        if label not in self._cli_spans:
            self._cli_spans[label] = self.span_wrapper(label, main)
        return self._cli_spans[label](argv)

    def install(self) -> None:
        for label, module_name, owner_name, attr, mode in TARGETS:
            module = sys.modules["decofree." + module_name]
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            if label == "algebra.nullspace":
                wrapped = self.span_wrapper(label, self.nullspace_rows(original))
            elif mode == "span":
                wrapped = self.span_wrapper(label, original)
            else:
                wrapped = self.count_wrapper(label, original)
            if owner_name or original.__module__ != module.__name__:
                # a method, or a function this layer imports from another one
                self._patch(owner, attr, wrapped)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "decofree" or name.startswith("decofree."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def per_layer(self, jobs_per_round: int, rounds: int) -> dict:
        """Per-layer metrics: self time per round (median over rounds),
        calls per round, cli.<subcommand> median wall time, and the tallest
        matrix passed to ``algebra.nullspace``."""
        names = np.array(self.name, dtype=np.int64)
        selfs = np.array(self.self_time)
        durations = np.array(self.end) - np.array(self.start)
        rnd = np.array(self.job, dtype=np.int64) // max(jobs_per_round, 1)
        out = {}
        for label, _, _, _, mode in TARGETS:
            out[f"{label}.calls"] = self.calls[label] / rounds
            if mode == "span":
                mask = names == self._label_index.get(label, -1)
                per_round = np.zeros(rounds)
                np.add.at(per_round, rnd[mask], selfs[mask])
                out[f"{label}.self_s"] = float(np.median(per_round))
        for sub in SUBCOMMANDS:
            mask = names == self._label_index.get("cli." + sub, -1)
            out[f"cli.{sub}.p50_s"] = float(np.median(durations[mask])) if mask.any() else 0.0
        out["algebra.nullspace.max_rows"] = self.nullspace_max_rows
        return out

    def write(self, path: str) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tself_s\tparent\tjob\n")
            for i in range(len(self.start)):
                fh.write(f"{self.labels[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.self_time[i]:.9f}\t"
                         f"{self.parent[i]}\t{self.job[i]}\n")
            fh.write("# calls\n")
            for label, n in sorted(self.calls.items()):
                fh.write(f"{label}\t{n}\n")
        return len(self.start)
