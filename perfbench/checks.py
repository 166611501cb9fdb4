"""Correctness checks of the CLI reports, run after the timed loop.

Each check compares a report with a closed form, a brute-force numpy
computation from ``reference``, or a property the method must have; none
compares with a stored copy of an earlier output.  ``run`` returns a list
of failure messages, empty when every report passes.  Jobs whose CLI call
failed are not checked here; the caller counts them as failed.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import reference as ref
from workloads import LAMBDAS


def _cli_report(cli, argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"reference run {argv} exited {code}")
    return json.loads(out.getvalue())


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class _Checker:
    def __init__(self, cli):
        self.cli = cli
        self.failures: list[str] = []

    def expect(self, ok: bool, job_id: str, what: str) -> None:
        if not ok:
            self.failures.append(f"{job_id}: {what}")

    # -- born-budget -------------------------------------------------------

    def born(self, job, rep):
        jid = job["id"]
        eps_t, eps_f = rep.get("epsilon_time"), rep.get("epsilon_frequency")
        for eps in (eps_t, eps_f):
            if eps is not None:
                self.expect(eps >= -1e-12, jid, f"negative error {eps}")
        if job["family"] == "tabulated":
            self.expect(eps_t is None and eps_f is not None, jid,
                        "tabulated bath must run the frequency route only")
            analytic = _cli_report(self.cli, job["twin_argv"])["epsilon_frequency"]
            self.expect(abs(eps_f - analytic) <= 1e-4 * abs(analytic), jid,
                        f"tabulated {eps_f} vs analytic gaussian {analytic}")
        else:
            self.expect(eps_t is not None and eps_f is not None, jid, "both routes expected")
            if eps_t is not None and eps_f is not None:
                self.expect(abs(eps_t - eps_f) <= max(1e-6, 1e-3 * abs(eps_t)), jid,
                            f"time route {eps_t} vs frequency route {eps_f}")

    def erf(self, job, rep):
        for key in ("epsilon_time", "epsilon_frequency"):
            self.expect(abs(rep[key] - job["expect"]) <= 1e-6, job["id"],
                        f"{key} {rep[key]} vs erf closed form {job['expect']}")

    def zero(self, job, rep):
        for key in ("epsilon_time", "epsilon_frequency"):
            self.expect(abs(rep[key]) <= 1e-12, job["id"], f"{key} {rep[key]} is not 0")

    # -- gate-scan ---------------------------------------------------------

    def _scan_eps(self, job, rep) -> list:
        lams = [p["lambda"] for p in rep["points"]]
        self.expect(lams == list(LAMBDAS), job["id"], f"lambdas {lams}")
        eps = [p["epsilon"] for p in rep["points"]]
        self.expect(all(e >= -1e-12 for e in eps), job["id"], f"negative error in {eps}")
        return eps

    def _rescaled_bath_identity(self, job, rep, bath_at) -> list:
        """eps(lambda) equals the time-route eps of the unscaled schedule with
        the bath lambda R(w / lambda), which bath_at(lambda) spells out."""
        coupling = _load(job["files"]["coupling"])
        eps = self._scan_eps(job, rep)
        for lam, value in zip(LAMBDAS, eps):
            path = job["files"]["coupling"][: -len(".json")] + f"-lambda{lam:g}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"S": coupling["S"], "bath": bath_at(lam)}, fh)
            argv = ["born-error", "--traj", job["files"]["traj"], "--coupling", path,
                    "--psi", job["files"]["psi"]]
            expect = _cli_report(self.cli, argv)["epsilon_time"]
            self.expect(abs(value - expect) <= 1e-3 * abs(expect), job["id"],
                        f"lambda {lam}: {value} vs rescaled-bath time route {expect}")
        return eps

    def scan_gaussian(self, job, rep):
        bath = job["bath"]
        self._rescaled_bath_identity(job, rep, lambda lam: {
            "type": "gaussian", "coupling": (np.asarray(bath["coupling"]) * lam).tolist(),
            "width": bath["width"] * lam})

    def scan_flat(self, job, rep):
        eps = self._scan_eps(job, rep)
        ratio = eps[1] / eps[0]
        self.expect(abs(ratio - 2.0) <= 0.1, job["id"], f"flat bath eps(2)/eps(1) = {ratio}")

    def scan_quartic(self, job, rep):
        bath = job["bath"]
        eps = self._rescaled_bath_identity(job, rep, lambda lam: {
            "type": "quartic-gaussian", "coupling": bath["coupling"] * lam ** -1.5,
            "width": bath["width"] * lam})
        if job["zero_control"]:
            self.expect(eps[0] > eps[1] > eps[2], job["id"],
                        f"quartic spectrum: eps not decreasing over lambda 1, 2, 4: {eps}")

    # -- df-structure ------------------------------------------------------

    def algebra(self, job, rep) -> list:
        """A returned basis: a unital *-algebra with the closed-form blocks."""
        basis = [ref.dec_matrix(b) for b in rep["basis"]]
        jid = job["id"]
        self.expect(len(basis) == rep["dimension"] and basis, jid, "basis size != dimension")
        if not basis:
            return basis
        res = ref.algebra_closure(basis)
        self.expect(res["rank"] == len(basis), jid, "basis is not independent")
        for key in ("unit", "adjoint", "product"):
            self.expect(res[key] <= 1e-7, jid, f"{key} closure residual {res[key]:.3e}")
        self._blocks(job, rep)
        if job.get("permutations"):
            worst = ref.contains(basis, ref.all_permutation_matrices(job["permutations"]))
            self.expect(worst <= 1e-7, jid, f"a permutation lies outside the algebra ({worst:.3e})")
        return basis

    def _blocks(self, job, rep):
        blocks = job.get("blocks")
        if blocks:
            got = sorted(tuple(b) for b in rep["blocks"])
            self.expect(got == sorted(tuple(b) for b in blocks), job["id"],
                        f"blocks {got}, closed form {sorted(map(tuple, blocks))}")
            self.expect(rep["dimension"] == ref.blocks_dimension(blocks), job["id"],
                        f"dimension {rep['dimension']} != {ref.blocks_dimension(blocks)}")

    def df_channel(self, job, rep):
        basis = self.algebra(job, rep)
        kraus = [ref.dec_matrix(m) for m in _load(job["kraus_file"])["kraus"]]
        if basis:
            worst = ref.multiplicativity_residual(kraus, basis, max(1, rep["k_used"]))
            self.expect(worst <= 1e-8, job["id"], f"Gamma^k not multiplicative ({worst:.3e})")

    def analyze_channel(self, job, rep):
        jid = job["id"]
        kraus = [ref.dec_matrix(m) for m in _load(job["kraus_file"])["kraus"]]
        n = kraus[0].shape[0]
        self.expect(rep["completely_positive"] and rep["choi_min_eigenvalue"] >= -1e-10, jid,
                    f"CP check {rep['completely_positive']}, {rep['choi_min_eigenvalue']}")
        s = np.linalg.svd(np.stack([ref.vec(w) for w in kraus]), compute_uv=False)
        rank = int(np.sum(s > 1e-5 * s[0]))
        self.expect(rep["kraus_rank"] == rank, jid, f"Kraus rank {rep['kraus_rank']} != {rank}")
        fixed = ref.nullity(ref.heisenberg_superop(kraus) - np.eye(n * n))
        self.expect(rep["fixed_point_dimension"] == fixed, jid,
                    f"fixed points {rep['fixed_point_dimension']} != {fixed}")
        self._blocks(job, rep["multiplicative_domain"])

    def analyze_semigroup(self, job, rep):
        jid = job["id"]
        self.expect(rep["generator_unitality_defect"] <= 1e-10, jid, "generator is not unital")
        self.expect(rep["dissipativity_min_eigenvalue"] >= -1e-10, jid, "dissipativity violated")
        self._blocks(job, rep["decoherence_free"])

    def invariance(self, job, rep):
        jid = job["id"]
        self.expect(rep["global_residual"] <= 1e-10, jid,
                    f"global residual {rep['global_residual']}")
        if job["locally_invariant"]:
            self.expect(rep["local_residual"] <= 1e-10 and rep["locally_invariant"]
                        and rep["group_algebra_inside_commutant"], jid, "expected local invariance")
        else:
            self.expect(not rep["locally_invariant"], jid,
                        "private bath reported locally invariant")

    def evolve(self, job, rep):
        rho0 = ref.dec_matrix(_load(job["state"]))
        for entry in rep["states"]:
            rho = ref.dec_matrix(entry["state"])
            drift = float(np.max(np.abs(rho - rho0)))
            self.expect(drift <= 1e-9, job["id"],
                        f"dark state moved by {drift:.3e} at t={entry['t']}")
            self.expect(abs(entry["trace"] - 1.0) <= 1e-10 and entry["min_eigenvalue"] >= -1e-10,
                        job["id"], f"not a state at t={entry['t']}")


def run(cli, jobs: list, reports: dict) -> list:
    """Check every report in ``reports`` (job id -> JSON text)."""
    checker = _Checker(cli)
    for job in jobs:
        if job["id"] not in reports:
            continue
        rep = json.loads(reports[job["id"]])
        method = getattr(checker, job["check"])
        try:
            method(job, rep)
        except (KeyError, TypeError, ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
            checker.failures.append(f"{job['id']}: check raised {exc!r}")
    return checker.failures
