"""Born-approximation error budget for controlled open systems.

A device runs on the window [-tau, tau] under a piecewise-constant control
Hamiltonian and couples to a bath through H_int = sum_a S_a (x) R_a.  To
second order in the coupling, with a factorized initial state, the reduced
Schrodinger dynamics is

    Gamma*(rho) = U ( rho + Phi*(rho) - 1/2 {K, rho} ) U†

where the completely positive error map

    Phi*(rho) = sum_ab  integral ds du  C_ab(s - u)  S_b(s) rho S_a(u)

is built from the bath correlation matrix C_ab(t) and the interaction-picture
coupling operators S_a(s) = U(s,-tau)† S_a U(s,-tau), and K is the image of
the identity under the Heisenberg dual of Phi*.  In the frequency domain the
same map reads  Phi*(rho) = sum_ab integral dw R_ab(w) Y_b(w) rho Y_a(w)†
with the windowed Fourier transforms Y_a(w) = integral S_a(s) e^{-iws} ds and
the bath spectral density R_ab(w) = Fourier pair of C_ab per
C(t) = integral R(w) e^{-iwt} dw.

The error of a pure initial state psi against the ideal unitary is

    eps = <psi| K |psi> - <psi| Phi*(|psi><psi|) |psi>
        = 2 tau  integral dw  sum_ab R_ab(w) S_ab(w)

with the device correlator
S_ab(w) = [<Y_a† Y_b> - <Y_a†><Y_b>] / (2 tau), a PSD matrix at every w.

Quadrature: composite Simpson in time (default 401 points per axis),
trapezoid in frequency (default cutoff 40/tau, 4001 points).  No Lamb-shift
counterterm is computed; the control Hamiltonian is taken as the full
physical one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import gamma as gamma_function

from .operators import dag, eye, hermitian_part, is_hermitian, sandwich_superop, unvec, vec

DEFAULT_TIME_POINTS = 401
DEFAULT_FREQ_POINTS = 4001
TIME_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Control trajectories


@dataclass(frozen=True)
class Segment:
    duration: float
    hamiltonian: np.ndarray


class ControlTrajectory:
    """Piecewise-constant control Hamiltonian on [-tau, tau].

    Segment durations must be positive and sum to 2 tau; smooth controls must
    be pre-sampled by the caller.  Segment exponentials keep the propagator
    cocycle exact.
    """

    def __init__(self, tau: float, segments, *, tol: float = 1e-9):
        if tau <= 0:
            raise ValueError("tau must be positive")
        segs = []
        for seg in segments:
            if isinstance(seg, Segment):
                d, h = seg.duration, seg.hamiltonian
            else:
                d, h = seg
            h = np.asarray(h, dtype=complex)
            if d <= 0:
                raise ValueError("segment durations must be positive")
            if not is_hermitian(h, tol):
                raise ValueError("segment Hamiltonians must be hermitian")
            segs.append(Segment(float(d), h))
        if not segs:
            raise ValueError("trajectory needs at least one segment")
        total = sum(s.duration for s in segs)
        if abs(total - 2.0 * tau) > TIME_SLACK * max(1.0, 2.0 * tau):
            raise ValueError(f"segment durations sum to {total}, expected {2 * tau}")
        self.tau = float(tau)
        self.segments = tuple(segs)
        self.dim = segs[0].hamiltonian.shape[0]
        for s in segs:
            if s.hamiltonian.shape != (self.dim, self.dim):
                raise ValueError("all segments must share one dimension")
        bounds = np.concatenate([[0.0], np.cumsum([s.duration for s in segs])]) - tau
        bounds[-1] = tau
        self._bounds = bounds

    def _check_time(self, t: float) -> float:
        if t < -self.tau - TIME_SLACK or t > self.tau + TIME_SLACK:
            raise ValueError(f"time {t} outside the control window [{-self.tau}, {self.tau}]")
        return min(max(t, -self.tau), self.tau)

    def propagator(self, s: float, t: float) -> np.ndarray:
        """Time-ordered evolution U(t, s) from time s to time t."""
        s = self._check_time(s)
        t = self._check_time(t)
        if t < s:
            return dag(self.propagator(t, s))
        u = eye(self.dim)
        for k, seg in enumerate(self.segments):
            a, b = self._bounds[k], self._bounds[k + 1]
            lo, hi = max(a, s), min(b, t)
            if hi - lo > 0:
                u = expm(-1j * seg.hamiltonian * (hi - lo)) @ u
        return u

    def rescaled(self, lam: float) -> "ControlTrajectory":
        """Slow down (lam > 1) or speed up the same unitary path.

        Segments become (lam * duration, H / lam) on [-lam tau, lam tau], so
        the total unitary is unchanged.
        """
        if lam <= 0:
            raise ValueError("rescaling factor must be positive")
        return ControlTrajectory(
            lam * self.tau,
            [(lam * s.duration, s.hamiltonian / lam) for s in self.segments],
        )


def constant_trajectory(hamiltonian: np.ndarray, tau: float) -> ControlTrajectory:
    return ControlTrajectory(tau, [(2.0 * tau, hamiltonian)])


# ---------------------------------------------------------------------------
# Baths and couplings


@dataclass(frozen=True)
class Bath:
    """Stationary bath seen through its correlation matrix and/or spectral density.

    `spectral(w)` returns the hermitian PSD matrix [R_ab(w)]; `correlation(t)`
    returns [C_ab(t)] with C_ab(-t) = conj(C_ba(t)).  Analytic families carry
    both as exact Fourier pairs; tabulated baths may carry only the spectrum.
    """

    n_ops: int
    label: str
    spectral: object = None     # callable w -> (n_ops, n_ops)
    correlation: object = None  # callable t -> (n_ops, n_ops)

    def spectral_matrix(self, omega: float) -> np.ndarray:
        if self.spectral is None:
            raise ValueError(f"bath '{self.label}' has no spectral density")
        return np.atleast_2d(np.asarray(self.spectral(omega), dtype=complex))

    def correlation_matrix(self, t: float) -> np.ndarray:
        if self.correlation is None:
            raise ValueError(f"bath '{self.label}' has no correlation function")
        return np.atleast_2d(np.asarray(self.correlation(t), dtype=complex))


def _coupling_matrix(amplitude, n_ops: int) -> np.ndarray:
    m = np.atleast_2d(np.asarray(amplitude, dtype=complex))
    if m.shape == (1, 1) and n_ops > 1:
        m = m[0, 0] * np.eye(n_ops)
    if m.shape != (n_ops, n_ops):
        raise ValueError("coupling amplitude must be a scalar or an (n, n) matrix")
    if np.max(np.abs(m - dag(m))) > 1e-12 or np.linalg.eigvalsh(hermitian_part(m)).min() < -1e-12:
        raise ValueError("coupling amplitude matrix must be hermitian PSD")
    return m


def gaussian_bath(amplitude=1.0, width: float = 1.0, n_ops: int = 1) -> Bath:
    """R(w) = amplitude * exp(-w^2 / 2 width^2); C(t) = amplitude * width sqrt(2 pi) exp(-width^2 t^2 / 2)."""
    m = _coupling_matrix(amplitude, n_ops)
    w = float(width)
    return Bath(
        n_ops=n_ops,
        label="gaussian",
        spectral=lambda omega: m * np.exp(-omega ** 2 / (2.0 * w ** 2)),
        correlation=lambda t: m * (w * np.sqrt(2.0 * np.pi) * np.exp(-0.5 * (w * t) ** 2)),
    )


def flat_bath(level=1.0, cutoff: float = 50.0, n_ops: int = 1) -> Bath:
    """White spectrum up to a sharp cutoff; C(t) = 2 * level * sin(cutoff t)/t."""
    m = _coupling_matrix(level, n_ops)
    wc = float(cutoff)

    def corr(t):
        if abs(t) < 1e-300:
            return m * (2.0 * wc)
        return m * (2.0 * np.sin(wc * t) / t)

    return Bath(
        n_ops=n_ops,
        label="flat",
        spectral=lambda omega: m * (1.0 if abs(omega) <= wc else 0.0),
        correlation=corr,
    )


def ohmic_bath(coupling: float = 1.0, exponent: float = 1.0, cutoff: float = 1.0,
               n_ops: int = 1) -> Bath:
    """One-sided power-law spectrum R(w) = g^2 w^k exp(-w/wc) for w > 0.

    C(t) = g^2 Gamma(k+1) wc^(k+1) / (1 + i wc t)^(k+1).
    """
    if exponent <= -1:
        raise ValueError("spectral exponent must exceed -1")
    g2 = float(coupling) ** 2
    k = float(exponent)
    wc = float(cutoff)
    m = _coupling_matrix(1.0, n_ops)

    def spec(omega):
        if omega <= 0.0:
            return m * 0.0
        return m * (g2 * omega ** k * np.exp(-omega / wc))

    pref = g2 * gamma_function(k + 1.0) * wc ** (k + 1.0)

    def corr(t):
        return m * (pref / (1.0 + 1j * wc * t) ** (k + 1.0))

    return Bath(n_ops=n_ops, label="ohmic", spectral=spec, correlation=corr)


def quartic_gaussian_bath(coupling: float = 1.0, width: float = 1.0, n_ops: int = 1) -> Bath:
    """Symmetric super-ohmic spectrum R(w) = g^2 w^4 exp(-w^2 / width^2).

    C(t) follows from four time derivatives of the gaussian transform:
    C(t) = g^2 sqrt(pi) w (w/2)^4 H4(w t / 2) exp(-(w t / 2)^2),
    H4(x) = 16 x^4 - 48 x^2 + 12.
    """
    g2 = float(coupling) ** 2
    w = float(width)
    m = _coupling_matrix(1.0, n_ops)

    def corr(t):
        x = 0.5 * w * t
        h4 = 16.0 * x ** 4 - 48.0 * x ** 2 + 12.0
        return m * (g2 * np.sqrt(np.pi) * w * (0.5 * w) ** 4 * h4 * np.exp(-x ** 2))

    return Bath(
        n_ops=n_ops,
        label="quartic-gaussian",
        spectral=lambda omega: m * (g2 * omega ** 4 * np.exp(-(omega / w) ** 2)),
        correlation=corr,
    )


def tabulated_bath(omegas, values) -> Bath:
    """Spectral density sampled on a grid, linearly interpolated, zero outside."""
    omegas = np.asarray(omegas, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None, None]
    n_ops = values.shape[1]
    for k in range(omegas.size):
        mat = values[k]
        if np.max(np.abs(mat - dag(mat))) > 1e-10:
            raise ValueError("tabulated spectral matrices must be hermitian")
        if np.linalg.eigvalsh(hermitian_part(mat)).min() < -1e-10:
            raise ValueError("tabulated spectral matrices must be PSD")

    def spec(omega):
        if omega < omegas[0] or omega > omegas[-1]:
            return np.zeros((n_ops, n_ops), dtype=complex)
        out = np.empty((n_ops, n_ops), dtype=complex)
        for a in range(n_ops):
            for b in range(n_ops):
                out[a, b] = np.interp(omega, omegas, values[:, a, b].real) + 1j * np.interp(
                    omega, omegas, values[:, a, b].imag
                )
        return out

    return Bath(n_ops=n_ops, label="tabulated", spectral=spec, correlation=None)


@dataclass(frozen=True)
class Coupling:
    """System side S_a of H_int = sum_a S_a (x) R_a plus the bath statistics."""

    system_ops: tuple
    bath: Bath

    def __post_init__(self):
        ops = tuple(np.asarray(s, dtype=complex) for s in self.system_ops)
        if not ops:
            raise ValueError("coupling needs at least one system operator")
        for s in ops:
            if not is_hermitian(s, 1e-9):
                raise ValueError("coupling operators must be hermitian")
        if len(ops) != self.bath.n_ops:
            raise ValueError("number of system operators must match the bath")
        object.__setattr__(self, "system_ops", ops)

    @property
    def n_ops(self) -> int:
        return len(self.system_ops)

    @property
    def dim(self) -> int:
        return self.system_ops[0].shape[0]

    def validate_correlations(self, times, tol: float = 1e-8) -> None:
        """Check C_ab(-t) = conj(C_ba(t)) on sample times."""
        for t in times:
            c_plus = self.bath.correlation_matrix(t)
            c_minus = self.bath.correlation_matrix(-t)
            if np.max(np.abs(c_minus - c_plus.conj().T)) > tol:
                raise ValueError("bath correlation matrix violates hermiticity in time")


# ---------------------------------------------------------------------------
# Time grid and interaction picture


def _simpson_grid(tau: float, n_points: int):
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError("Simpson quadrature needs an odd number of points >= 3")
    s = np.linspace(-tau, tau, n_points)
    h = 2.0 * tau / (n_points - 1)
    w = np.full(n_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return s, w * (h / 3.0)


def interaction_ops(traj: ControlTrajectory, coupling: Coupling,
                    n_time: int = DEFAULT_TIME_POINTS):
    """Grid, Simpson weights, and S_a(s_i) = U(s_i,-tau)† S_a U(s_i,-tau)."""
    if coupling.dim != traj.dim:
        raise ValueError("coupling dimension does not match the trajectory")
    s_grid, weights = _simpson_grid(traj.tau, n_time)
    n = traj.dim
    ops = np.empty((coupling.n_ops, n_time, n, n), dtype=complex)
    u = eye(n)
    prev = s_grid[0]
    for i, s in enumerate(s_grid):
        if i > 0:
            u = traj.propagator(prev, s) @ u
            prev = s
        for a, s_op in enumerate(coupling.system_ops):
            ops[a, i] = dag(u) @ s_op @ u
    return s_grid, weights, ops


def interaction_op(traj: ControlTrajectory, op: np.ndarray, s: float) -> np.ndarray:
    """Single interaction-picture operator anchored at -tau."""
    u = traj.propagator(-traj.tau, s)
    return dag(u) @ np.asarray(op, dtype=complex) @ u


# ---------------------------------------------------------------------------
# Error map, Born state, time-domain error


@dataclass(frozen=True)
class BornErrorMap:
    """Error map Phi* (Schrodinger superoperator) and K = Phi(1)."""

    phi_schrodinger: np.ndarray
    k_operator: np.ndarray
    tau: float
    n_time: int

    @property
    def dim(self) -> int:
        return self.k_operator.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.phi_schrodinger @ vec(np.asarray(rho, dtype=complex)), self.dim)


def error_map(traj: ControlTrajectory, coupling: Coupling,
              *, n_time: int = DEFAULT_TIME_POINTS) -> BornErrorMap:
    """Double time quadrature of the Born error map.

    The double integral runs over the full square [-tau, tau]^2; with a PSD
    bath spectrum the discretized coefficient kernel is itself PSD, so the
    discrete map is completely positive up to rounding.
    """
    s_grid, weights, ops = interaction_ops(traj, coupling, n_time)
    coupling.validate_correlations(
        [0.0, 0.37 * traj.tau, traj.tau] if traj.tau > 0 else [0.0]
    )
    n = traj.dim
    r = coupling.n_ops
    g = n_time

    # correlation kernel C[a, b, i, j] = C_ab(s_i - u_j); the grid is uniform,
    # so only the 2g - 1 distinct lags need a bath evaluation
    h = s_grid[1] - s_grid[0]
    lags = np.arange(-(g - 1), g) * h
    lag_vals = np.stack([coupling.bath.correlation_matrix(t) for t in lags])
    lag_index = np.arange(g)[:, None] - np.arange(g)[None, :] + (g - 1)
    kernel = lag_vals[lag_index].transpose(2, 3, 0, 1)

    weighted = ops * weights[None, :, None, None]
    phi = np.zeros((n * n, n * n), dtype=complex)
    for a in range(r):
        for b in range(r):
            # inner[j] = sum_i C_ab(s_i - u_j) w_i S_b(s_i)  (the left factor)
            inner = np.einsum("ij,icd->jcd", kernel[a, b], weighted[b])
            for j in range(g):
                phi += sandwich_superop(inner[j], weighted[a, j])
    k_op = unvec(dag(phi) @ vec(eye(n)), n)
    k_op = hermitian_part(k_op)
    return BornErrorMap(phi_schrodinger=phi, k_operator=k_op, tau=traj.tau, n_time=n_time)


def born_state(traj: ControlTrajectory, coupling: Coupling, rho: np.ndarray,
               *, n_time: int = DEFAULT_TIME_POINTS,
               emap: BornErrorMap | None = None) -> np.ndarray:
    """Second-order reduced state U(rho + Phi*(rho) - 1/2 {K, rho})U†.

    Trace preserving and hermitian; positivity only holds up to the square of
    the error, so small negative eigenvalues are possible and left to the
    caller to inspect.
    """
    rho = np.asarray(rho, dtype=complex)
    emap = error_map(traj, coupling, n_time=n_time) if emap is None else emap
    k = emap.k_operator
    middle = rho + emap.apply(rho) - 0.5 * (k @ rho + rho @ k)
    u = traj.propagator(-traj.tau, traj.tau)
    return u @ middle @ dag(u)


def error_time_domain(traj: ControlTrajectory, coupling: Coupling, psi: np.ndarray,
                      *, n_time: int = DEFAULT_TIME_POINTS,
                      emap: BornErrorMap | None = None) -> float:
    """eps = <psi|K|psi> - <psi|Phi*(|psi><psi|)|psi> for a unit vector psi."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("psi must be normalized")
    emap = error_map(traj, coupling, n_time=n_time) if emap is None else emap
    rho = np.outer(psi, psi.conj())
    val = np.vdot(psi, emap.k_operator @ psi) - np.vdot(psi, emap.apply(rho) @ psi)
    return float(val.real)


# ---------------------------------------------------------------------------
# Frequency domain


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric grid on [-omega_max, omega_max]."""

    omega_max: float
    n_points: int = DEFAULT_FREQ_POINTS

    def __post_init__(self):
        if self.omega_max <= 0 or self.n_points < 3:
            raise ValueError("need omega_max > 0 and at least 3 points")

    @classmethod
    def for_trajectory(cls, traj: ControlTrajectory, n_points: int = DEFAULT_FREQ_POINTS,
                       omega_max: float | None = None) -> "FrequencyGrid":
        return cls(omega_max=40.0 / traj.tau if omega_max is None else omega_max,
                   n_points=n_points)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(-self.omega_max, self.omega_max, self.n_points)

    @property
    def spacing(self) -> float:
        return 2.0 * self.omega_max / (self.n_points - 1)


def filter_operators(traj: ControlTrajectory, coupling: Coupling, omegas,
                     *, n_time: int = DEFAULT_TIME_POINTS,
                     precomputed=None) -> np.ndarray:
    """Windowed Fourier transforms Y_a(w) = integral S_a(s) e^{-iws} ds.

    Returns an array of shape (n_ops, len(omegas), n, n).  For hermitian
    couplings Y_a(w)† equals the transform with e^{+iws}.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    s_grid, weights, ops = (
        interaction_ops(traj, coupling, n_time) if precomputed is None else precomputed
    )
    phases = np.exp(-1j * omegas[:, None] * s_grid[None, :]) * weights[None, :]
    return np.einsum("wi,aicd->awcd", phases, ops)


def filter_operator(traj: ControlTrajectory, coupling: Coupling, alpha: int, omega: float,
                    *, n_time: int = DEFAULT_TIME_POINTS) -> np.ndarray:
    return filter_operators(traj, coupling, [omega], n_time=n_time)[alpha, 0]


def device_correlator(traj: ControlTrajectory, coupling: Coupling, psi: np.ndarray, omegas,
                      *, n_time: int = DEFAULT_TIME_POINTS,
                      filters: np.ndarray | None = None) -> np.ndarray:
    """State covariance of the filter operators, shape (len(omegas), n_ops, n_ops).

    S_ab(w) = [<psi|Y_a†Y_b|psi> - <psi|Y_a†|psi><psi|Y_b|psi>] / (2 tau);
    a PSD Gram matrix at every frequency.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("psi must be normalized")
    y = filter_operators(traj, coupling, omegas, n_time=n_time) if filters is None else filters
    # centered vectors v_a = (Y_a - <Y_a>) |psi>
    ypsi = np.einsum("awcd,d->awc", y, psi)
    means = np.einsum("c,awc->aw", psi.conj(), ypsi)
    centered = ypsi - means[:, :, None] * psi[None, None, :]
    s = np.einsum("awc,bwc->wab", centered.conj(), centered) / (2.0 * traj.tau)
    return s


@dataclass(frozen=True)
class SpectralError:
    epsilon: float
    omegas: np.ndarray
    overlap: np.ndarray          # sum_ab R_ab(w) S_ab(w) at each grid point
    boundary_fraction: float
    boundary_warning: bool


def error_frequency_domain(traj: ControlTrajectory, coupling: Coupling, psi: np.ndarray,
                           grid: FrequencyGrid, *, n_time: int = DEFAULT_TIME_POINTS,
                           support=None) -> SpectralError:
    """eps = 2 tau * integral of the bath/device spectral overlap (trapezoid).

    `support` optionally restricts the integral to a sub-band (w_lo, w_hi) or
    a boolean mask over the grid.  A warning is attached when the integrand
    mass at the two boundary points exceeds 1% of the total.
    """
    omegas = grid.points
    s_dev = device_correlator(traj, coupling, psi, omegas, n_time=n_time)
    r_bath = np.stack([coupling.bath.spectral_matrix(w) for w in omegas])
    overlap = np.einsum("wab,wab->w", r_bath, s_dev)
    imag_mass = float(np.max(np.abs(overlap.imag))) if overlap.size else 0.0
    if imag_mass > 1e-8 * max(float(np.max(np.abs(overlap.real))), 1e-300):
        warnings.warn("spectral overlap has a nonnegligible imaginary part")
    values = overlap.real.copy()

    if support is not None:
        if isinstance(support, tuple):
            mask = (omegas >= support[0]) & (omegas <= support[1])
        else:
            mask = np.asarray(support, dtype=bool)
        values = np.where(mask, values, 0.0)

    eps = 2.0 * traj.tau * float(np.trapezoid(values, omegas))
    # integrand still at >1% of its peak at the window edge means the grid is
    # probably truncating real support
    peak = float(np.max(np.abs(values))) + 1e-300
    boundary = float(max(np.abs(values[0]), np.abs(values[-1]))) / peak
    return SpectralError(
        epsilon=eps,
        omegas=omegas,
        overlap=overlap,
        boundary_fraction=boundary,
        boundary_warning=boundary > 0.01,
    )


# ---------------------------------------------------------------------------
# Decoherence-free state criterion


@dataclass(frozen=True)
class DFStateReport:
    max_residual: float
    predicted_df: bool
    epsilon_in_support: float


def df_state_check(traj: ControlTrajectory, coupling: Coupling, psi: np.ndarray,
                   grid: FrequencyGrid, support, *, n_time: int = DEFAULT_TIME_POINTS,
                   tol: float = 1e-8) -> DFStateReport:
    """Eigenvector criterion for an error-free initial state.

    On the band where the bath spectrum is strictly positive, psi must be an
    eigenvector of every filter operator: the report carries the largest norm
    of the component of Y_a(w) psi orthogonal to psi, and the error integral
    restricted to that band as a cross-check (zero when the criterion holds).
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    omegas = grid.points
    if isinstance(support, tuple):
        mask = (omegas >= support[0]) & (omegas <= support[1])
    else:
        mask = np.asarray(support, dtype=bool)
    y = filter_operators(traj, coupling, omegas[mask], n_time=n_time)
    ypsi = np.einsum("awcd,d->awc", y, psi)
    coeff = np.einsum("c,awc->aw", psi.conj(), ypsi)
    orth = ypsi - coeff[:, :, None] * psi[None, None, :]
    residual = float(np.max(np.linalg.norm(orth, axis=2))) if orth.size else 0.0
    eps = error_frequency_domain(traj, coupling, psi, grid, n_time=n_time, support=mask)
    return DFStateReport(
        max_residual=residual,
        predicted_df=residual <= tol,
        epsilon_in_support=eps.epsilon,
    )


# ---------------------------------------------------------------------------
# Gate-speed scan


@dataclass(frozen=True)
class ScanPoint:
    lam: float
    epsilon: float
    boundary_warning: bool


@dataclass(frozen=True)
class ScanResult:
    points: tuple
    monotone_decreasing: bool
    monotone_increasing: bool


def gate_speed_scan(traj: ControlTrajectory, coupling: Coupling, psi: np.ndarray, lambdas,
                    *, grid: FrequencyGrid | None = None,
                    n_time: int = DEFAULT_TIME_POINTS) -> ScanResult:
    """Error of the same unitary run at rescaled speeds.

    Each lambda stretches the schedule to [-lam tau, lam tau] with weakened
    Hamiltonians, leaving the total unitary fixed.  For a flat bath the error
    grows linearly in lam; for spectra vanishing faster than linearly at the
    origin, slowing down wins.  One shared frequency grid keeps the points
    comparable.
    """
    if grid is None:
        grid = FrequencyGrid.for_trajectory(traj)
    pts = []
    for lam in lambdas:
        scaled = traj.rescaled(float(lam))
        res = error_frequency_domain(scaled, coupling, psi, grid, n_time=n_time)
        pts.append(ScanPoint(lam=float(lam), epsilon=res.epsilon,
                             boundary_warning=res.boundary_warning))
    eps = [p.epsilon for p in pts]
    dec = all(b < a for a, b in zip(eps, eps[1:]))
    inc = all(b > a for a, b in zip(eps, eps[1:]))
    return ScanResult(points=tuple(pts), monotone_decreasing=dec, monotone_increasing=inc)


# ---------------------------------------------------------------------------
# Time-average correlator (diagnostic estimator only)


def stationary_correlator_estimate(traj: ControlTrajectory, coupling: Coupling,
                                   psi: np.ndarray, omegas,
                                   *, n_time: int = DEFAULT_TIME_POINTS) -> np.ndarray:
    """Spectral estimate from the window-averaged covariance of S_a(s).

    Mirrors the construction of the device correlator as the transform of
    lim (1/2 tau) integral ds [<S_a(t+s) S_b(s)> - <S_a(t+s)><S_b(s)>]; the
    limit of an infinite window is only approximated here, so this is a
    shape diagnostic (peak positions), not a calibrated quantity.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    s_grid, _, ops = interaction_ops(traj, coupling, n_time)
    g = len(s_grid)
    h = s_grid[1] - s_grid[0]
    r = coupling.n_ops

    means = np.einsum("c,aicd,d->ai", psi.conj(), ops, psi)
    lags = np.arange(-(g - 1), g)
    cov = np.zeros((r, r, lags.size), dtype=complex)
    for li, lag in enumerate(lags):
        if lag >= 0:
            idx_t, idx_s = np.arange(lag, g), np.arange(0, g - lag)
        else:
            idx_t, idx_s = np.arange(0, g + lag), np.arange(-lag, g)
        prod = np.einsum("c,aicd,bidf,f->abi", psi.conj(), ops[:, idx_t],
                         ops[:, idx_s], psi, optimize=True)
        mean_term = np.einsum("ai,bi->abi", means[:, idx_t], means[:, idx_s])
        cov[:, :, li] = (prod - mean_term).mean(axis=2)

    t_lags = lags * h
    phases = np.exp(1j * omegas[:, None] * t_lags[None, :]) * h / (2.0 * np.pi)
    return np.einsum("wl,abl->wab", phases, cov)
