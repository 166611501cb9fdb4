"""GKLS semigroup generators and detailed-balance structure.

The Heisenberg generator is

    L(A) = i[H, A] + sum_j V_j† A V_j - 1/2 {sum_j V_j† V_j, A}

so that L(1) = 0 and the dual semigroup on states is trace preserving.
The dissipative part L_D is the V-sum alone; the split into L_H and L_D is
taken from the input structure and never re-derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    DEFAULT_TOL,
    LiouvilleMetric,
    TermMap,
    commutator_norm,
    dag,
    is_hermitian,
    unvec,
    vec,
)


class GKLSGenerator(TermMap):
    """GKLS generator L(X) = K† X + X K + sum_j V_j† X V_j with K = -iH + K_D and
    K_D = -1/2 sum_j V_j† V_j; `hamiltonian_part` is i[H, X] and `dissipator` L_D."""

    def __init__(self, hamiltonian, lindblad_ops=(), *, tol: float = DEFAULT_TOL):
        h = np.asarray(hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("hamiltonian must be a square matrix")
        if not is_hermitian(h, tol):
            raise ValueError("hamiltonian is not hermitian within tolerance")
        ops = tuple(np.asarray(v, dtype=complex) for v in lindblad_ops)
        for v in ops:
            if v.shape != h.shape:
                raise ValueError("Lindblad operator dimension does not match H")
        n = h.shape[0]
        jumps = [(1.0, dag(v), v) for v in ops]
        k_d = -0.5 * sum((l @ r for _, l, r in jumps), np.zeros_like(h))
        k = k_d - 1j * h
        super().__init__(n, [(1.0, dag(k), None), (1.0, None, k)] + jumps)
        self.hamiltonian = h
        self.lindblad_ops = ops
        self.hamiltonian_part = TermMap(n, [(1j, h, None), (-1j, None, h)])
        self.dissipator = TermMap(n, [(1.0, k_d, None), (1.0, None, k_d)] + jumps if ops else [])

    def dissipative_part(self, a: np.ndarray) -> np.ndarray:
        return self.dissipator(a)

    def hamiltonian_matrix(self) -> np.ndarray:
        return self.hamiltonian_part.heisenberg_matrix()

    def dissipator_matrix(self) -> np.ndarray:
        return self.dissipator.heisenberg_matrix()

    def __repr__(self):
        return f"GKLSGenerator(dim={self.dim}, n_lindblad={len(self.lindblad_ops)})"


def evolve_state(gen: GKLSGenerator, rho: np.ndarray, t: float) -> np.ndarray:
    """Schrodinger evolution exp(t L*) applied to a state."""
    if t < 0:
        raise ValueError("semigroup parameter must be non-negative")
    from scipy.linalg import expm  # a generator is not normal in general

    s = expm(t * gen.schrodinger_matrix())
    return unvec(s @ vec(np.asarray(rho, dtype=complex)), gen.dim)


def dissipativity_defect(gen: GKLSGenerator, a: np.ndarray) -> np.ndarray:
    """L(A†A) - L(A†)A - A†L(A); PSD, and equal to sum_j [V_j,A]†[V_j,A].

    a may be one operator or a stack (..., n, n); the defect is taken per operator.
    """
    a = np.asarray(a, dtype=complex)
    a_dag = dag(a)
    return gen(a_dag @ a) - gen(a_dag) @ a - a_dag @ gen(a)


# ---------------------------------------------------------------------------
# Detailed balance


@dataclass(frozen=True)
class DetailedBalanceReport:
    stationary: bool
    commuting_parts: bool
    hermitian_dissipator: bool
    residuals: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.stationary and self.commuting_parts and self.hermitian_dissipator


def detailed_balance_check(
    gen: GKLSGenerator, metric: LiouvilleMetric, tol: float = 1e-8
) -> DetailedBalanceReport:
    """Verify the three detailed-balance conditions for sigma = metric.sigma.

    1. sigma is stationary for the dual generator and [H, sigma] = 0,
    2. the Hamiltonian and dissipative parts commute as superoperators,
    3. L_D is hermitian with respect to <A, B>_sigma: G L_D = L_D† G, G: X -> X sigma.

    The residuals of 2 and 3 are relative Frobenius norms of Kronecker sums of
    the generator's terms; no n^2 x n^2 matrix is built.
    """
    if metric.dim != gen.dim:
        raise ValueError("metric dimension does not match the generator")
    sigma = metric.sigma
    stat_res = float(np.max(np.abs(gen.apply_dual(sigma))))
    ham_res = float(np.max(np.abs(gen.hamiltonian @ sigma - sigma @ gen.hamiltonian)))
    s_d = gen.dissipator.terms()
    comm_res = commutator_norm(gen.hamiltonian_part.terms(), s_d)
    herm_res = metric.hermiticity_residual(s_d)

    return DetailedBalanceReport(
        stationary=(stat_res <= tol and ham_res <= tol),
        commuting_parts=(comm_res <= tol),
        hermitian_dissipator=(herm_res <= tol),
        residuals={
            "stationarity": stat_res,
            "hamiltonian_commutes_with_sigma": ham_res,
            "parts_commute": comm_res,
            "dissipator_hermiticity": herm_res,
        },
    )


# ---------------------------------------------------------------------------
# Thermal (Gibbs) generator


def gibbs_state(hamiltonian: np.ndarray, temperature: float) -> np.ndarray:
    """Normalized exp(-H/T) of a hermitian H."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    evals, evecs = np.linalg.eigh(np.asarray(hamiltonian, dtype=complex))
    # weights relative to the ground state, so a low T cannot overflow
    rho = (evecs * np.exp(-(evals - evals[0]) / temperature)) @ dag(evecs)
    return rho / np.trace(rho)


def bohr_frequency(hamiltonian: np.ndarray, v: np.ndarray, *, tol: float = 1e-8) -> float:
    """Frequency omega >= 0 of an energy-lowering eigenoperator, [H, V] = -omega V.

    Extracted basis-free as omega = -Tr(V†[H,V]) / Tr(V†V); a residual in
    [H,V] + omega V beyond tol, or omega < 0, is an error.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    v = np.asarray(v, dtype=complex)
    comm = h @ v - v @ h
    norm2 = float(np.real(np.sum(v.conj() * v)))
    if norm2 <= 0:
        raise ValueError("eigenoperator must be nonzero")
    omega = -complex(np.sum(v.conj() * comm)) / norm2
    if abs(omega.imag) > tol:
        raise ValueError(f"eigenoperator frequency is not real ({omega:.3e})")
    omega = omega.real
    scale = float(np.max(np.abs(v)))
    residual = float(np.max(np.abs(comm + omega * v))) / max(scale, 1e-300)
    if residual > tol:
        raise ValueError(
            f"[H, V] = -omega V violated beyond tolerance (residual {residual:.3e})"
        )
    if omega < -tol:
        raise ValueError(
            f"eigenoperator raises the energy (omega = {omega:.6g} < 0); pass V† instead"
        )
    return max(omega, 0.0)


@dataclass(frozen=True)
class GibbsGenerator:
    """Detailed-balance generator with stationary Gibbs state exp(-H/T)/Z.

    Each eigenoperator V_j lowers the energy by omega_j >= 0 and contributes
    the Lindblad pair {V_j, exp(-omega_j / 2T) V_j†}, so downward transitions
    run at full rate and upward ones are thermally suppressed.
    """

    hamiltonian: np.ndarray
    temperature: float
    eigen_ops: tuple  # pairs (V_j, omega_j)
    generator: GKLSGenerator
    stationary_state: np.ndarray

    def metric(self) -> LiouvilleMetric:
        return LiouvilleMetric(self.stationary_state)


def build_gibbs_generator(hamiltonian: np.ndarray, temperature: float, eigen_ops) -> GibbsGenerator:
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    h = np.asarray(hamiltonian, dtype=complex)
    pairs = []
    lindblad = []
    for v in eigen_ops:
        v = np.asarray(v, dtype=complex)
        omega = bohr_frequency(h, v)
        pairs.append((v, omega))
        lindblad.append(v)
        lindblad.append(np.exp(-omega / (2.0 * temperature)) * dag(v))
    gen = GKLSGenerator(h, lindblad)
    sigma = gibbs_state(h, temperature)
    stat_res = float(np.max(np.abs(gen.apply_dual(sigma))))
    if stat_res > 1e-7:
        raise ValueError(f"Gibbs state is not stationary (residual {stat_res:.3e})")
    return GibbsGenerator(
        hamiltonian=h,
        temperature=float(temperature),
        eigen_ops=tuple(pairs),
        generator=gen,
        stationary_state=sigma,
    )
