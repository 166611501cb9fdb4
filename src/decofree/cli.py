"""Command-line front end.

Subcommands load JSON model files, run one analysis and return their own report
fields; ``main`` alone adds the envelope (command, tolerances, seed) and writes the
report, a pure function of (input files, flags) and byte-identical across runs:
every input is checked at DEFAULT_TOL and every randomized step draws DEFAULT_SEED,
the values the envelope states.  Exit codes: 0 success, 2 invalid input, 1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

import numpy as np

from . import algebra, born, channels, jsonio, lindblad, symmetry
from .jsonio import ValidationError
from .operators import DEFAULT_SEED, DEFAULT_TOL, LiouvilleMetric, dag, eye


def _algebra_report(alg: algebra.MatrixAlgebra, *, include_basis=True) -> dict:
    # a generated algebra carries the blocks its construction found
    blocks = alg._blocks or algebra.block_decompose(alg).blocks
    rep = {
        "dimension": alg.dim,
        "blocks": [[int(nj), int(dj)] for nj, dj in blocks],
        "certificate": "exact",  # each algebra reported is the one asked for, not a bound
    }
    if include_basis:
        rep["basis"] = [jsonio.matrix_to_json(b) for b in alg.basis]
    return rep


def _dynamics(args):
    """The model of --channel or --generator: a KrausMap or a GKLSGenerator, and
    the GibbsGenerator a thermal ("T") generator loads as, otherwise None."""
    if bool(args.channel) == bool(args.generator):
        raise ValidationError(f"{args.command} needs exactly one of --channel or --generator")
    if args.channel:
        return jsonio.channel_from_json(jsonio.load_json(args.channel)), None
    loaded = jsonio.generator_from_json(jsonio.load_json(args.generator))
    if isinstance(loaded, lindblad.GibbsGenerator):
        return loaded.generator, loaded
    return loaded, None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_analyze_channel(args) -> dict:
    channel, _ = _dynamics(args)
    cp = channels.cp_check(channel)
    reduced = channels.reduce_kraus(channel)
    nalg = algebra.multiplicative_domain(channel)
    fixed = algebra.fixed_points(channel)
    return {
        "dim": channel.dim,
        "unitality_defect": channel.unitality_defect,
        "completely_positive": cp.is_cp,
        "choi_min_eigenvalue": cp.min_eigenvalue,
        "kraus_rank": len(reduced.kraus_ops),
        "multiplicative_domain": _algebra_report(nalg, include_basis=False),
        "fixed_point_dimension": fixed.dim,
        "faithful_stationary_state": fixed.faithful,
    }


def cmd_analyze_semigroup(args) -> dict:
    gen, gibbs = _dynamics(args)
    # the state whose detailed balance is reported: a thermal generator's
    # Gibbs state or --metric, each invalid input unless faithful
    metric = gibbs and jsonio._checked(gibbs.metric, details={"temperature": gibbs.temperature})
    if args.metric:
        if gibbs is not None:
            raise ValidationError('--metric applies only to a --generator without "T"')
        sigma = jsonio.matrix_from_json(jsonio.load_json(args.metric))
        if sigma.shape[0] != gen.dim:
            raise ValidationError("metric dimension does not match the generator")
        metric = jsonio._checked(lambda: LiouvilleMetric(sigma))
    unit_defect = float(np.max(np.abs(gen(eye(gen.dim)))))
    # 20 random A, drawn real part then imaginary part each, as one stack
    z = np.random.default_rng(DEFAULT_SEED).normal(size=(20, 2, gen.dim, gen.dim))
    defect = lindblad.dissipativity_defect(gen, z[:, 0] + 1j * z[:, 1])
    herm = 0.5 * (defect + dag(defect))
    worst_diss = min(0.0, float(np.linalg.eigvalsh(herm).min()))
    report = {
        "dim": gen.dim,
        "n_lindblad": len(gen.lindblad_ops),
        "generator_unitality_defect": unit_defect,
        "dissipativity_min_eigenvalue": worst_diss,
    }
    if metric is not None:
        db = lindblad.detailed_balance_check(gen, metric)
        report["detailed_balance"] = {
            "stationary": db.stationary,
            "commuting_parts": db.commuting_parts,
            "hermitian_dissipator": db.hermitian_dissipator,
            "residuals": {k: float(v) for k, v in db.residuals.items()},
        }
    report["decoherence_free"] = _algebra_report(algebra.df_algebra_semigroup(gen),
                                                 include_basis=False)
    return report


def cmd_df(args) -> dict:
    dyn, _ = _dynamics(args)
    if args.generator:
        return _algebra_report(algebra.df_algebra_semigroup(dyn))
    res = algebra.df_algebra_discrete(dyn)
    return {**_algebra_report(res.algebra), "k_used": res.k_used}


def cmd_blocks(args) -> dict:
    mats = jsonio.ops_from_json(jsonio.load_json(args.ops))
    alg = algebra.generated_algebra(mats)
    return {**_algebra_report(alg), "n_generators": len(mats)}


def cmd_invariance(args) -> dict:
    dyn, _ = _dynamics(args)
    ops = list(dyn.kraus_ops if args.channel else dyn.lindblad_ops)
    dim = dyn.dim
    n_sites = args.sites
    if n_sites < 1:
        raise ValidationError("--sites must be at least 1")
    site_dim = round(dim ** (1.0 / n_sites))
    if site_dim ** n_sites != dim:
        raise ValidationError(
            f"dimension {dim} is not a {n_sites}-fold tensor power", {"dim": dim}
        )
    # site_dim 1 and products beyond the size cap are refused here
    rep = jsonio._checked(lambda: symmetry.build_permutation_rep(n_sites, site_dim),
                          details={"dim": dim})
    local = symmetry.local_invariance_check(ops, rep)
    return {
        "dim": dim,
        "sites": n_sites,
        "site_dim": site_dim,
        "global_residual": symmetry.global_invariance_residual(dyn, rep),
        "local_residual": local.residual,
        "locally_invariant": local.invariant,
        "group_algebra_inside_commutant": local.containment_holds,
    }


def _born_inputs(args):
    """Loaded model plus the report fields born-error and scan share."""
    traj = jsonio.trajectory_from_json(jsonio.load_json(args.traj))
    coupling = jsonio.coupling_from_json(jsonio.load_json(args.coupling))
    psi = jsonio.pure_state_from_json(jsonio.load_json(args.psi))
    if coupling.dim != traj.dim or psi.size != traj.dim:
        raise ValidationError("trajectory, coupling and state dimensions disagree")
    if args.time_points < 3 or args.time_points % 2 == 0:
        raise ValidationError("--time-points must be an odd number >= 3")
    grid = jsonio._checked(lambda: born.FrequencyGrid.for_trajectory(
        traj, n_points=args.grid_points, omega_max=args.grid_omega_max), "bad frequency grid: ")
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
    traj, coupling, psi, grid, report = _born_inputs(args)
    eps_time, res = born.route_errors(traj, coupling, psi, grid, n_time=args.time_points)
    if eps_time is not None:
        report["epsilon_time"] = eps_time
    report["epsilon_frequency"] = res.epsilon  # every loaded bath has a spectral density
    report["boundary_fraction"] = res.boundary_fraction
    report["boundary_warning"] = res.boundary_warning
    return report


def cmd_scan(args) -> dict:
    traj, coupling, psi, grid, shared = _born_inputs(args)
    lambdas = _float_list(args.lambdas, "--lambdas", lambda x: 0.0 < x < np.inf,
                          "scan needs a comma-separated list of finite positive factors")
    result = born.gate_speed_scan(
        traj, coupling, psi, lambdas, grid=grid, n_time=args.time_points
    )
    return {
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
    dyn, _ = _dynamics(args)
    # the parser default None shows a flag given with the other mode
    if args.channel and args.times is not None:
        raise ValidationError("--times applies only to --generator")
    if args.generator and args.steps is not None:
        raise ValidationError("--steps applies only to --channel")
    if state.shape[0] != dyn.dim:
        kind = "channel" if args.channel else "generator"
        raise ValidationError(f"state dimension does not match the {kind}")
    report = {"dim": dyn.dim, "states": []}
    if args.channel:
        steps = 5 if args.steps is None else args.steps
        if steps < 0:
            raise ValidationError("--steps must be non-negative")
        current = state
        for k in range(steps + 1):
            report["states"].append(_state_entry(float(k), current))
            current = dyn.apply_dual(current)
    else:
        times = _float_list("0,1" if args.times is None else args.times, "--times",
                            lambda t: 0.0 <= t < np.inf,
                            "evolve needs a comma-separated list of finite non-negative times")
        for t in sorted(times):
            report["states"].append(_state_entry(t, lindblad.evolve_state(dyn, state, t)))
    return report


def _float_list(text: str, flag: str, valid, message: str) -> list:
    """The numbers of a comma-separated flag value; invalid input unless it lists at
    least one and each passes valid, which message states."""
    try:
        values = [float(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise ValidationError(f"bad {flag}: {exc}") from exc
    if not values or not all(map(valid, values)):
        raise ValidationError(message)
    return values


def _state_entry(t: float, rho: np.ndarray) -> dict:
    if not np.all(np.isfinite(rho)):  # exp(t L*) overflowed at this time
        raise ValidationError(f"the state at time {t:g} is not finite", {"time": t})
    evals = np.linalg.eigvalsh(0.5 * (rho + dag(rho)))
    return {
        "t": t,
        "state": jsonio.matrix_to_json(rho),
        "trace": float(np.trace(rho).real),
        "min_eigenvalue": float(evals.min()),
    }


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call.

    ``parse_args`` returns a fresh namespace and leaves the parser as it was,
    so one parser serves any number of calls in a process.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None, help="write the JSON report here")

    # one declaration per flag that several subcommands read
    dynamics = argparse.ArgumentParser(add_help=False)
    dynamics.add_argument("--channel")
    dynamics.add_argument("--generator")

    born_inputs = argparse.ArgumentParser(add_help=False)
    born_inputs.add_argument("--traj", required=True)
    born_inputs.add_argument("--coupling", required=True, help='JSON {"S": [...], "bath": {...}}')
    born_inputs.add_argument("--psi", required=True)
    born_inputs.add_argument("--grid-omega-max", type=float, default=None, dest="grid_omega_max")
    born_inputs.add_argument("--grid-points", type=int, default=born.DEFAULT_FREQ_POINTS,
                             dest="grid_points")
    born_inputs.add_argument("--time-points", type=int, default=born.DEFAULT_TIME_POINTS,
                             dest="time_points")

    parser = argparse.ArgumentParser(
        prog="decofree",
        description="Decoherence-free subalgebras and Born-approximation error budgets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-channel", parents=[common],
                       help="validate a Kraus channel and report its structure")
    p.add_argument("--channel", required=True)
    p.set_defaults(func=cmd_analyze_channel, generator=None)

    p = sub.add_parser("analyze-semigroup", parents=[common],
                       help="validate a GKLS generator and report its structure")
    p.add_argument("--generator", required=True)
    p.add_argument("--metric", help="faithful state JSON for a generator without \"T\"; "
                                    "reports its detailed balance")
    p.set_defaults(func=cmd_analyze_semigroup, channel=None)

    p = sub.add_parser("df", parents=[common, dynamics],
                       help="decoherence-free subalgebra of a channel or semigroup")
    p.set_defaults(func=cmd_df)

    p = sub.add_parser("blocks", parents=[common],
                       help="Wedderburn block structure of the algebra generated by operators")
    p.add_argument("--ops", required=True, help='JSON {"ops": [<matrix>...]}')
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("invariance", parents=[common, dynamics],
                       help="permutation invariance residuals of a model")
    p.add_argument("--sites", type=int, required=True, help="number of tensor factors")
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("born-error", parents=[common, born_inputs],
                       help="control error of an initial state in Born approximation")
    p.set_defaults(func=cmd_born_error)

    p = sub.add_parser("scan", parents=[common, born_inputs],
                       help="error versus gate-speed rescaling")
    p.add_argument("--lambdas", default="1,2,4")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("evolve", parents=[common, dynamics],
                       help="evolve a state under a channel or semigroup")
    p.add_argument("--state", required=True)
    p.add_argument("--times", help="comma-separated times (--generator only; default 0,1)")
    p.add_argument("--steps", type=int, help="iteration count (--channel only; default 5)")
    p.set_defaults(func=cmd_evolve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            report, code = {"command": args.command, **args.func(args),
                            "tolerances": {"tol": DEFAULT_TOL}, "seed": DEFAULT_SEED}, 0
        except ValidationError as exc:
            report, code = exc.as_json(), 2
        # inside the try: a report value the encoder refuses is an internal error
        text = jsonio.dump_json(report)
    except Exception:
        sys.stderr.write(traceback.format_exc())
        return 1
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as exc:  # the diagnostic goes where it can be read
            text, code = jsonio.dump_json(ValidationError(str(exc)).as_json()), 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
