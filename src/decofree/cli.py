"""Command-line front end.

Subcommands load JSON model files, run one analysis and emit a JSON report
that is a pure function of (input files, flags, seed): byte-identical across
runs.  Exit codes: 0 success, 2 input validation failure (with a
machine-readable diagnostic on stdout), 1 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

import numpy as np

from . import algebra, born, channels, jsonio, lindblad, symmetry
from .jsonio import ValidationError
from .operators import LiouvilleMetric, dag, eye

DEFAULT_SEED = 1234
DEFAULT_TOL = float(os.environ.get("DECOFREE_TOL", "1e-9"))


def _emit(report: dict, out: str | None) -> None:
    text = jsonio.dump_json(report, out)
    if out is None:
        sys.stdout.write(text)


def _algebra_report(alg: algebra.MatrixAlgebra, *, seed: int, certificate: str,
                    include_basis: bool = True) -> dict:
    blocks = algebra.block_decompose(alg, seed=seed)
    rep = {
        "dimension": alg.dim,
        "blocks": [[int(nj), int(dj)] for nj, dj in blocks.blocks],
        "certificate": certificate,
    }
    if include_basis:
        rep["basis"] = [jsonio.matrix_to_json(b) for b in alg.basis]
    return rep


def _load_channel(path: str, tol: float) -> channels.KrausMap:
    return jsonio.channel_from_json(jsonio.load_json(path), tol=tol)


def _load_generator(path: str, tol: float):
    return jsonio.generator_from_json(jsonio.load_json(path), tol=tol)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_analyze_channel(args) -> dict:
    channel = _load_channel(args.channel, args.tol)
    cp = channels.cp_check(channel, args.tol)
    reduced = channels.reduce_kraus(channel)
    nalg = algebra.multiplicative_domain(channel)
    fixed = algebra.fixed_points(channel)
    report = {
        "command": "analyze-channel",
        "dim": channel.dim,
        "unitality_defect": channel.unitality_defect,
        "completely_positive": cp.is_cp,
        "choi_min_eigenvalue": cp.min_eigenvalue,
        "kraus_rank": len(reduced.kraus_ops),
        "multiplicative_domain": _algebra_report(
            nalg, seed=args.seed, certificate="exact", include_basis=False
        ),
        "fixed_point_dimension": fixed.dim,
        "faithful_stationary_state": fixed.faithful,
    }
    return report


def cmd_analyze_semigroup(args) -> dict:
    loaded = _load_generator(args.generator, args.tol)
    gibbs = loaded if isinstance(loaded, lindblad.GibbsGenerator) else None
    gen = gibbs.generator if gibbs else loaded
    rng = np.random.default_rng(args.seed)
    unit_defect = float(np.max(np.abs(gen(eye(gen.dim)))))
    worst_diss = 0.0
    for _ in range(20):
        a = rng.normal(size=(gen.dim,) * 2) + 1j * rng.normal(size=(gen.dim,) * 2)
        defect = lindblad.dissipativity_defect(gen, a)
        worst_diss = min(
            worst_diss, float(np.linalg.eigvalsh(0.5 * (defect + dag(defect))).min())
        )
    report = {
        "command": "analyze-semigroup",
        "dim": gen.dim,
        "n_lindblad": len(gen.lindblad_ops),
        "generator_unitality_defect": unit_defect,
        "dissipativity_min_eigenvalue": worst_diss,
    }
    if gibbs is not None:
        metric = gibbs.metric()
        db = lindblad.detailed_balance_check(gen, metric)
        res = algebra.df_algebra_semigroup(gen, metric)
        report["detailed_balance"] = {
            "stationary": db.stationary,
            "commuting_parts": db.commuting_parts,
            "hermitian_dissipator": db.hermitian_dissipator,
            "residuals": {k: float(v) for k, v in db.residuals.items()},
        }
    else:
        res = algebra.df_algebra_semigroup(gen)
    report["decoherence_free"] = _algebra_report(
        res.algebra, seed=args.seed, certificate=res.certificate, include_basis=False
    )
    return report


def cmd_df(args) -> dict:
    if bool(args.channel) == bool(args.generator):
        raise ValidationError("df needs exactly one of --channel or --generator")
    if args.channel:
        if args.max_k < 1:
            raise ValidationError("--max-k must be at least 1")
        channel = _load_channel(args.channel, args.tol)
        res = algebra.df_algebra_discrete(channel, max_k=args.max_k)
        report = _algebra_report(res.algebra, seed=args.seed, certificate=res.certificate)
        report.update({"command": "df", "k_used": res.k_used})
    else:
        loaded = _load_generator(args.generator, args.tol)
        if isinstance(loaded, lindblad.GibbsGenerator):
            res = algebra.df_algebra_semigroup(loaded.generator, loaded.metric())
        else:
            metric = None
            if args.metric:
                metric = LiouvilleMetric(jsonio.state_from_json(jsonio.load_json(args.metric)))
            res = algebra.df_algebra_semigroup(loaded, metric)
        report = _algebra_report(res.algebra, seed=args.seed, certificate=res.certificate)
        report["command"] = "df"
    return report


def cmd_blocks(args) -> dict:
    obj = jsonio.load_json(args.ops)
    if not isinstance(obj, dict) or "ops" not in obj:
        raise ValidationError("ops object must have an 'ops' field")
    mats = [jsonio.matrix_from_json(m) for m in obj["ops"]]
    alg = algebra.generated_algebra(mats)
    report = _algebra_report(alg, seed=args.seed, certificate="exact")
    report.update({"command": "blocks", "n_generators": len(mats)})
    return report


def cmd_invariance(args) -> dict:
    if bool(args.channel) == bool(args.generator):
        raise ValidationError("invariance needs exactly one of --channel or --generator")
    if args.channel:
        dyn = _load_channel(args.channel, args.tol)
        ops = list(dyn.kraus_ops)
        dim = dyn.dim
    else:
        loaded = _load_generator(args.generator, args.tol)
        dyn = loaded.generator if isinstance(loaded, lindblad.GibbsGenerator) else loaded
        ops = list(dyn.lindblad_ops)
        dim = dyn.dim
    n_sites = args.sites
    if n_sites < 1:
        raise ValidationError("--sites must be at least 1")
    site_dim = round(dim ** (1.0 / n_sites))
    if site_dim ** n_sites != dim:
        raise ValidationError(
            f"dimension {dim} is not a {n_sites}-fold tensor power", {"dim": dim}
        )
    rep = symmetry.build_permutation_rep(n_sites, site_dim)
    local = symmetry.local_invariance_check(ops, rep, tol=args.tol * 10)
    report = {
        "command": "invariance",
        "dim": dim,
        "sites": n_sites,
        "site_dim": site_dim,
        "global_residual": symmetry.global_invariance_residual(dyn, rep),
        "local_residual": local.residual,
        "locally_invariant": local.invariant,
        "group_algebra_inside_commutant": local.containment_holds,
    }
    return report


def _born_inputs(args):
    """Loaded model plus the report fields born-error and scan share."""
    traj = jsonio.trajectory_from_json(jsonio.load_json(args.traj))
    coupling = jsonio.coupling_from_json(jsonio.load_json(args.coupling))
    psi = jsonio.pure_state_from_json(jsonio.load_json(args.psi))
    if coupling.dim != traj.dim or psi.size != traj.dim:
        raise ValidationError("trajectory, coupling and state dimensions disagree")
    if args.time_points < 3 or args.time_points % 2 == 0:
        raise ValidationError("--time-points must be an odd number >= 3")
    try:
        grid = born.FrequencyGrid.for_trajectory(
            traj, n_points=args.grid_points, omega_max=args.grid_omega_max
        )
    except ValueError as exc:
        raise ValidationError(f"bad frequency grid: {exc}") from exc
    shared = {
        "dim": traj.dim,
        "tau": traj.tau,
        "grids": {
            "time_points": args.time_points,
            "omega_max": grid.omega_max,
            "omega_points": grid.n_points,
        },
    }
    return traj, coupling, psi, grid, shared


def cmd_born_error(args) -> dict:
    traj, coupling, psi, grid, shared = _born_inputs(args)
    report = {"command": "born-error", **shared}
    if coupling.bath.correlation is not None:
        report["epsilon_time"] = born.error_time_domain(
            traj, coupling, psi, n_time=args.time_points
        )
    if coupling.bath.spectral is not None:
        res = born.error_frequency_domain(traj, coupling, psi, grid, n_time=args.time_points)
        report["epsilon_frequency"] = res.epsilon
        report["boundary_fraction"] = res.boundary_fraction
        report["boundary_warning"] = res.boundary_warning
    if "epsilon_time" not in report and "epsilon_frequency" not in report:
        raise ValidationError("bath carries neither correlations nor a spectrum")
    return report


def cmd_scan(args) -> dict:
    traj, coupling, psi, grid, shared = _born_inputs(args)
    try:
        lambdas = [float(x) for x in args.lambdas.split(",") if x]
    except ValueError as exc:
        raise ValidationError(f"bad --lambdas: {exc}") from exc
    if not lambdas or not all(0.0 < x < np.inf for x in lambdas):
        raise ValidationError("scan needs a comma-separated list of finite positive factors")
    result = born.gate_speed_scan(
        traj, coupling, psi, lambdas, grid=grid, n_time=args.time_points
    )
    return {
        "command": "scan",
        **shared,
        "points": [
            {"lambda": p.lam, "epsilon": p.epsilon, "boundary_warning": p.boundary_warning}
            for p in result.points
        ],
        "monotone_decreasing": result.monotone_decreasing,
        "monotone_increasing": result.monotone_increasing,
    }


def cmd_evolve(args) -> dict:
    state = jsonio.state_from_json(jsonio.load_json(args.state))
    report = {"command": "evolve", "states": []}
    if bool(args.channel) == bool(args.generator):
        raise ValidationError("evolve needs exactly one of --channel or --generator")
    if args.channel:
        channel = _load_channel(args.channel, args.tol)
        if state.shape[0] != channel.dim:
            raise ValidationError("state dimension does not match the channel")
        steps = args.steps
        current = state
        for k in range(steps + 1):
            report["states"].append(_state_entry(float(k), current))
            current = channel.apply_dual(current)
        report["dim"] = channel.dim
    else:
        loaded = _load_generator(args.generator, args.tol)
        gen = loaded.generator if isinstance(loaded, lindblad.GibbsGenerator) else loaded
        if state.shape[0] != gen.dim:
            raise ValidationError("state dimension does not match the generator")
        times = [float(x) for x in args.times.split(",") if x]
        if any(t < 0 for t in times):
            raise ValidationError("evolution times must be non-negative")
        for t in sorted(times):
            report["states"].append(_state_entry(t, lindblad.evolve_state(gen, state, t)))
        report["dim"] = gen.dim
    return report


def _state_entry(t: float, rho: np.ndarray) -> dict:
    evals = np.linalg.eigvalsh(0.5 * (rho + dag(rho)))
    return {
        "t": t,
        "state": jsonio.matrix_to_json(rho),
        "trace": float(np.trace(rho).real),
        "min_eigenvalue": float(evals.min()),
    }


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="validation tolerance (env DECOFREE_TOL overrides the default)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for randomized algebra steps (fixed default for reproducibility)")
    common.add_argument("--out", type=str, default=None, help="write the JSON report here")

    parser = argparse.ArgumentParser(
        prog="decofree",
        description="Decoherence-free subalgebras and Born-approximation error budgets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-channel", parents=[common],
                       help="validate a Kraus channel and report its structure")
    p.add_argument("--channel", required=True)
    p.set_defaults(func=cmd_analyze_channel)

    p = sub.add_parser("analyze-semigroup", parents=[common],
                       help="validate a GKLS generator and report its structure")
    p.add_argument("--generator", required=True)
    p.set_defaults(func=cmd_analyze_semigroup)

    p = sub.add_parser("df", parents=[common],
                       help="decoherence-free subalgebra of a channel or semigroup")
    p.add_argument("--channel")
    p.add_argument("--generator")
    p.add_argument("--metric", help="faithful state JSON; adds a detailed-balance check")
    p.add_argument("--max-k", type=int, default=25, dest="max_k",
                   help="cap on recursion steps for --channel: the domains of "
                        "Gamma^k are followed up to k = MAX_K")
    p.set_defaults(func=cmd_df)

    p = sub.add_parser("blocks", parents=[common],
                       help="Wedderburn block structure of the algebra generated by operators")
    p.add_argument("--ops", required=True, help='JSON {"ops": [<matrix>...]}')
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("invariance", parents=[common],
                       help="permutation invariance residuals of a model")
    p.add_argument("--channel")
    p.add_argument("--generator")
    p.add_argument("--sites", type=int, required=True, help="number of tensor factors")
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("born-error", parents=[common],
                       help="control error of an initial state in Born approximation")
    p.add_argument("--traj", required=True)
    p.add_argument("--coupling", required=True, help='JSON {"S": [...], "bath": {...}}')
    p.add_argument("--psi", required=True)
    p.add_argument("--grid-omega-max", type=float, default=None, dest="grid_omega_max")
    p.add_argument("--grid-points", type=int, default=born.DEFAULT_FREQ_POINTS, dest="grid_points")
    p.add_argument("--time-points", type=int, default=born.DEFAULT_TIME_POINTS, dest="time_points")
    p.set_defaults(func=cmd_born_error)

    p = sub.add_parser("scan", parents=[common], help="error versus gate-speed rescaling")
    p.add_argument("--traj", required=True)
    p.add_argument("--coupling", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--lambdas", default="1,2,4")
    p.add_argument("--grid-omega-max", type=float, default=None, dest="grid_omega_max")
    p.add_argument("--grid-points", type=int, default=born.DEFAULT_FREQ_POINTS, dest="grid_points")
    p.add_argument("--time-points", type=int, default=born.DEFAULT_TIME_POINTS, dest="time_points")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("evolve", parents=[common], help="evolve a state under a channel or semigroup")
    p.add_argument("--channel")
    p.add_argument("--generator")
    p.add_argument("--state", required=True)
    p.add_argument("--times", default="0,1", help="comma-separated times (generator mode)")
    p.add_argument("--steps", type=int, default=5, help="iteration count (channel mode)")
    p.set_defaults(func=cmd_evolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except ValidationError as exc:
        _emit(exc.as_json(), args.out)
        return 2
    except (OSError, FileNotFoundError) as exc:
        _emit({"error": "validation", "message": str(exc)}, args.out)
        return 2
    except Exception:
        sys.stderr.write(traceback.format_exc())
        return 1
    report.update(tolerances={"tol": args.tol}, seed=args.seed)
    _emit(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
