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
Both routes see the device only through the lag sums D_ab(l) of the centered
vectors (S_a(s) - <S_a(s)>) psi on the uniform time grid (`_lag_sums`), and
`route_errors` reads both off one set of them: the time route weights them
with C_ab at the lags, the frequency route Fourier transforms them over the
lags onto a uniform `FrequencyGrid`, which is one chirp-z FFT convolution
(`_lag_transform`).  Every frequency-route function takes that grid.  A bath
is a short sum of terms R(w) = sum_t p_t(w) A_t (one for the analytic
families, the n_ops^2 matrix units for a tabulated spectrum), so the error
needs only the t contracted channels D_t = sum_ab (A_t)_ab D_ab transformed.

Quadrature: composite Simpson in time (default 401 points per axis),
trapezoid in frequency (default cutoff 40/tau, 4001 points).  No Lamb-shift
counterterm is computed; the control Hamiltonian is taken as the full
physical one.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

# sandwich_superop is not called here; it stays bound for the benchmark's per-layer call count
from .operators import (DEFAULT_TOL, dag, eye, hermitian_part, is_hermitian,
                        sandwich_superop, superop_matrix, unvec, vec)

DEFAULT_TIME_POINTS = 401
DEFAULT_FREQ_POINTS = 4001
TIME_SLACK = 1e-12


def _positive(value, what: str) -> float:
    value = float(value)
    if not 0 < value < math.inf:  # chained comparisons are False for NaN too
        raise ValueError(f"{what} must be positive and finite")
    return value


# ---------------------------------------------------------------------------
# Control trajectories


@dataclass(frozen=True)
class Segment:
    duration: float
    hamiltonian: np.ndarray


class ControlTrajectory:
    """Piecewise-constant control Hamiltonian on [-tau, tau].

    tau and the durations must be positive and finite, the durations summing to
    2 tau; smooth controls must be pre-sampled by the caller.  Each segment
    Hamiltonian is diagonalized once, H_k = V diag(e) V†; with t_k the segment
    start and R = V† U(t_k, -tau), U(s, -tau) = V diag(e^{-ie(s - t_k)}) R inside
    it.  This one factorization serves `propagator` and every interaction-picture
    operator or vector.
    """

    def __init__(self, tau: float, segments):
        tau = _positive(tau, "tau")
        segs = []
        for d, h in segments:
            h = np.asarray(h, dtype=complex)
            d = _positive(d, "segment durations")
            if not is_hermitian(h):
                raise ValueError("segment Hamiltonians must be hermitian")
            segs.append(Segment(d, h))
        if not segs:
            raise ValueError("trajectory needs at least one segment")
        total = sum(s.duration for s in segs)
        if abs(total - 2.0 * tau) > TIME_SLACK * max(1.0, 2.0 * tau):
            raise ValueError(f"segment durations sum to {total}, expected {2 * tau}")
        self.tau = tau
        self.segments = tuple(segs)
        self.dim = segs[0].hamiltonian.shape[0]
        bounds = np.concatenate([[0.0], np.cumsum([s.duration for s in segs])]) - tau
        bounds[-1] = tau
        self._bounds = bounds
        self._factors = []  # (e, V, R) per segment
        start = eye(self.dim)  # U(t_k, -tau)
        for k, seg in enumerate(segs):
            if seg.hamiltonian.shape != (self.dim, self.dim):
                raise ValueError("all segments must share one dimension")
            energies, basis = np.linalg.eigh(seg.hamiltonian)
            rotated = dag(basis) @ start
            self._factors.append((energies, basis, rotated))
            start = basis @ (np.exp(-1j * energies * (bounds[k + 1] - bounds[k]))[:, None]
                             * rotated)

    def _segments(self, times: np.ndarray):
        """Per segment: indices of `times` in it, D = e^{-ie(s - t_k)} (m, n), V and R.

        U(s, -tau) = V diag(D) R there; a time on a boundary opens the later segment."""
        segment_of = np.searchsorted(self._bounds[1:-1], times, side="right")
        for k, (energies, basis, rotated) in enumerate(self._factors):
            idx = np.flatnonzero(segment_of == k)
            angles = np.outer(times[idx] - self._bounds[k], energies)
            phases = np.empty(angles.shape, dtype=complex)
            np.cos(angles, out=phases.real)
            np.sin(np.negative(angles, out=angles), out=phases.imag)
            yield idx, phases, basis, rotated

    def propagator(self, s: float, t: float) -> np.ndarray:
        """Time-ordered evolution U(t, s) = U(t, -tau) U(s, -tau)† from time s to time t."""
        times = np.array([s, t], dtype=float)
        if np.any(np.abs(times) > self.tau + TIME_SLACK):
            raise ValueError(f"times {s}, {t} leave the control window [{-self.tau}, {self.tau}]")
        times = np.clip(times, -self.tau, self.tau)
        u = np.empty((2, self.dim, self.dim), dtype=complex)
        for idx, phases, basis, rotated in self._segments(times):
            u[idx] = basis @ (phases[:, :, None] * rotated)
        return u[1] @ dag(u[0])

    def rescaled(self, lam: float) -> "ControlTrajectory":
        """Slow down (lam > 1) or speed up the same unitary path.

        Segments become (lam * duration, H / lam) on [-lam tau, lam tau], so
        the total unitary is unchanged.
        """
        lam = _positive(lam, "rescaling factor")
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

    A bath is a short sum of terms, R(w) = sum_t p_t(w) A_t and
    C(t) = sum_t q_t(t) A_t, with the amplitudes A_t stacked in `amplitude`,
    shape (*terms, n_ops, n_ops).  `spectral(w)` and `correlation(t)` both
    receive an array of any shape and return the profiles p and q, shape
    (..., *terms); a result that broadcasts to that shape, such as one
    constant, is accepted, but a callable written for one scalar argument is
    not.  An omitted amplitude is stored as the n_ops^2 matrix units:
    the profiles are then the matrices [R_ab(w)] (hermitian PSD) and [C_ab(t)]
    (with C_ab(-t) = conj(C_ba(t))) themselves.  The analytic families are one
    term, their coupling matrix times a scalar profile, and carry both as
    exact Fourier pairs; tabulated baths carry only the spectrum, as matrices.
    """

    n_ops: int
    label: str
    spectral: object = None     # callable w (array) -> profiles (..., *terms)
    correlation: object = None  # callable t (array) -> profiles (..., *terms)
    amplitude: object = None    # (*terms, n_ops, n_ops); omitted: the n_ops^2 matrix units

    def __post_init__(self):
        r = self.n_ops
        amp = (np.eye(r * r, dtype=complex).reshape(r, r, r, r) if self.amplitude is None
               else np.asarray(self.amplitude, dtype=complex))
        if amp.shape[-2:] != (r, r):
            raise ValueError("bath amplitude must have shape (*terms, n_ops, n_ops)")
        object.__setattr__(self, "amplitude", amp)

    @property
    def terms(self) -> np.ndarray:
        """The amplitudes A_t as one stack, shape (t, n_ops, n_ops)."""
        return self.amplitude.reshape(-1, self.n_ops, self.n_ops)

    def _profiles(self, func, what: str, x) -> np.ndarray:
        """func at the points x, shape x.shape + (*terms)."""
        if func is None:
            raise ValueError(f"bath '{self.label}' has no {what}")
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.asarray(func(x), dtype=complex),
                               x.shape + self.amplitude.shape[:-2])

    def _matrices(self, profiles: np.ndarray) -> np.ndarray:
        """sum_t profile_t A_t, one tensordot."""
        return np.tensordot(profiles, self.amplitude, axes=self.amplitude.ndim - 2)

    def spectral_profiles(self, omega) -> np.ndarray:
        """p_t(w) at a frequency or an array of them, shape (..., t) over `terms`."""
        return self._profiles(self.spectral, "spectral density", omega).reshape(
            np.shape(omega) + (-1,))

    def spectral_matrix(self, omega) -> np.ndarray:
        """[R_ab(w)] at a frequency or an array of them, shape (..., n_ops, n_ops)."""
        return self._matrices(self._profiles(self.spectral, "spectral density", omega))

    def correlation_matrix(self, t) -> np.ndarray:
        """[C_ab(t)] at a time or an array of them, shape (..., n_ops, n_ops)."""
        return self._matrices(self._profiles(self.correlation, "correlation function", t))


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
    w = _positive(width, "width")
    return Bath(
        n_ops=n_ops,
        label="gaussian",
        spectral=lambda omega: np.exp(-omega ** 2 / (2.0 * w ** 2)),
        correlation=lambda t: w * np.sqrt(2.0 * np.pi) * np.exp(-0.5 * (w * t) ** 2),
        amplitude=m,
    )


def flat_bath(level=1.0, cutoff: float = 50.0, n_ops: int = 1) -> Bath:
    """White spectrum up to a sharp cutoff; C(t) = 2 * level * sin(cutoff t)/t."""
    m = _coupling_matrix(level, n_ops)
    wc = _positive(cutoff, "cutoff")
    return Bath(
        n_ops=n_ops,
        label="flat",
        spectral=lambda omega: np.where(np.abs(omega) <= wc, 1.0, 0.0),
        correlation=lambda t: 2.0 * wc * np.sinc(wc * t / np.pi),
        amplitude=m,
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
    wc = _positive(cutoff, "cutoff")
    m = _coupling_matrix(1.0, n_ops)

    def spec(omega):
        positive = omega > 0.0
        w = np.where(positive, omega, 1.0)  # no power of a negative base
        return np.where(positive, g2 * w ** k * np.exp(-w / wc), 0.0)

    pref = g2 * math.gamma(k + 1.0) * wc ** (k + 1.0)
    return Bath(n_ops=n_ops, label="ohmic", spectral=spec,
                correlation=lambda t: pref / (1.0 + 1j * wc * t) ** (k + 1.0),
                amplitude=m)


def quartic_gaussian_bath(coupling: float = 1.0, width: float = 1.0, n_ops: int = 1) -> Bath:
    """Symmetric super-ohmic spectrum R(w) = g^2 w^4 exp(-w^2 / width^2).

    C(t) follows from four time derivatives of the gaussian transform:
    C(t) = g^2 sqrt(pi) w (w/2)^4 H4(w t / 2) exp(-(w t / 2)^2),
    H4(x) = 16 x^4 - 48 x^2 + 12.
    """
    g2 = float(coupling) ** 2
    w = _positive(width, "width")
    m = _coupling_matrix(1.0, n_ops)

    def corr(t):
        x = 0.5 * w * t
        x2 = np.square(x)  # squares, not ** 4: numpy's generic power is ~15x slower
        h4 = 16.0 * np.square(x2) - 48.0 * x2 + 12.0
        return g2 * np.sqrt(np.pi) * w * (0.5 * w) ** 4 * h4 * np.exp(-x2)

    return Bath(
        n_ops=n_ops,
        label="quartic-gaussian",
        spectral=lambda omega: g2 * np.square(np.square(omega)) * np.exp(-(omega / w) ** 2),
        correlation=corr,
        amplitude=m,
    )


def tabulated_bath(omegas, values) -> Bath:
    """Spectral density sampled on a grid, linearly interpolated, zero outside."""
    omegas = np.asarray(omegas, dtype=float)
    values = np.asarray(values, dtype=complex)
    if not (np.all(np.isfinite(omegas)) and np.all(np.isfinite(values))):
        raise ValueError("tabulated frequencies and spectral matrices must be finite")
    # np.interp reads strictly increasing frequencies, each with one number or r x r matrix
    one_each = values.shape[:1] == omegas.shape and values.shape[1:] in ((), values.shape[1:2] * 2)
    if omegas.ndim != 1 or not omegas.size or np.any(np.diff(omegas) <= 0) or not one_each:
        raise ValueError("tabulated frequencies must increase strictly, each with one spectral "
                         "value or r x r matrix")
    if values.ndim == 1:
        values = values[:, None, None]
    n_ops = values.shape[1]
    adjoint = dag(values)
    if np.max(np.abs(values - adjoint)) > 1e-10:
        raise ValueError("tabulated spectral matrices must be hermitian")
    if np.linalg.eigvalsh(0.5 * (values + adjoint)).min() < -1e-10:
        raise ValueError("tabulated spectral matrices must be PSD")
    entries = values.reshape(values.shape[0], n_ops * n_ops)

    def spec(omega):
        out = np.empty(np.shape(omega) + (n_ops * n_ops,), dtype=complex)
        for e in range(n_ops * n_ops):
            out[..., e] = (np.interp(omega, omegas, entries[:, e].real, left=0.0, right=0.0)
                           + 1j * np.interp(omega, omegas, entries[:, e].imag,
                                            left=0.0, right=0.0))
        return out.reshape(np.shape(omega) + (n_ops, n_ops))

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
            if not is_hermitian(s):
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


# ---------------------------------------------------------------------------
# Time grid, interaction picture and the state


def _simpson_grid(tau: float, n_points: int):
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError("Simpson quadrature needs an odd number of points >= 3")
    s = np.linspace(-tau, tau, n_points)
    h = 2.0 * tau / (n_points - 1)
    w = np.full(n_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return s, w * (h / 3.0)


def _interaction_apply(traj: ControlTrajectory, coupling: Coupling, block: np.ndarray,
                       n_time: int):
    """Grid, Simpson weights, and S_a(s_i) @ block, shape (n_ops, n_time, n, c).

    S_a(s) block = R† D* (V† S_a V) D R block per segment (`ControlTrajectory._segments`):
    O(g n^2 c) flops and memory O(r g n c) for c columns, so a state vector
    never meets an n x n operator per grid point.
    """
    if coupling.dim != traj.dim:
        raise ValueError("coupling dimension does not match the trajectory")
    s_grid, weights = _simpson_grid(traj.tau, n_time)
    s_ops = np.stack(coupling.system_ops)
    out = np.empty((coupling.n_ops, n_time) + block.shape, dtype=complex)
    for idx, phases, basis, rotated in traj._segments(s_grid):
        moved = (dag(basis) @ s_ops @ basis)[:, None] @ (phases[:, :, None] * (rotated @ block))
        out[:, idx] = dag(rotated) @ (phases.conj()[:, :, None] * moved)
    return s_grid, weights, out


def interaction_ops(traj: ControlTrajectory, coupling: Coupling,
                    n_time: int = DEFAULT_TIME_POINTS):
    """Grid, Simpson weights, and S_a(s_i) = U(s_i,-tau)† S_a U(s_i,-tau)."""
    return _interaction_apply(traj, coupling, eye(traj.dim), n_time)


def _unit_state(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    if abs(np.linalg.norm(psi) - 1.0) > DEFAULT_TOL:
        raise ValueError("psi must be normalized")
    return psi


def _centered(traj: ControlTrajectory, coupling: Coupling, psi: np.ndarray, n_time: int):
    """Grid, weights and c_a(s_i) = (S_a(s_i) - <S_a(s_i)>) psi, shape (n_ops, n_time, n)."""
    psi = _unit_state(psi)
    s_grid, weights, vecs = _interaction_apply(traj, coupling, psi[:, None], n_time)
    vecs = vecs[..., 0]
    return s_grid, weights, vecs - (vecs @ psi.conj())[..., None] * psi


# ---------------------------------------------------------------------------
# Error map, Born state, time-domain error


@dataclass(frozen=True)
class BornErrorMap:
    """Error map Phi* (Schrodinger superoperator) and K = Phi(1)."""

    phi_schrodinger: np.ndarray
    k_operator: np.ndarray

    @property
    def dim(self) -> int:
        return self.k_operator.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.phi_schrodinger @ vec(np.asarray(rho, dtype=complex)), self.dim)


def _lag_correlations(coupling: Coupling, s_grid: np.ndarray) -> np.ndarray:
    """C_ab(l h) at the 2g - 1 lags |l| < g of the uniform grid, shape (2g - 1, r, r).

    One bath call, checked for C_ab(-lh) = conj(C_ba(lh)) at every lag.
    """
    g = s_grid.size
    c = coupling.bath.correlation_matrix(np.arange(1 - g, g) * (s_grid[1] - s_grid[0]))
    if np.max(np.abs(c[::-1] - dag(c))) > 1e-8:
        raise ValueError("bath correlation matrix violates hermiticity in time")
    return c


@functools.cache
def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length numpy's FFT runs fast, close to n
    where a power of two can be nearly 2 n (4801 -> 4860, not 8192)."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:  # odd = 3^b 5^c; pad it with the fewest factors of 2
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _lag_sums(x: np.ndarray) -> np.ndarray:
    """D[g - 1 + l, a, b] = sum_{i - j = l} <x_a(s_j)|x_b(s_i)> for |l| < g.

    x has shape (r, g, n) and D shape (2g - 1, r, r).  Every Born error sees
    the device only through these sums.  They are one FFT along the grid, run
    along contiguous rows of x laid out as (r, n, g) and zero-padded to at
    least 2g - 1 points so that the circular correlation folds no pair onto a
    wrong lag: O(rgn + r^2 g) memory and never the g x g Gram matrix.
    """
    g = x.shape[1]
    f = np.fft.fft(np.ascontiguousarray(x.transpose(0, 2, 1)), n=_fft_size(2 * g - 1))
    circular = np.fft.ifft(np.einsum("anl,bnl->lab", f.conj(), f), axis=0)
    return circular[np.arange(1 - g, g)]


def _device_lag_sums(traj: ControlTrajectory, coupling: Coupling, psi: np.ndarray, n_time: int):
    """Grid and lag sums D of the weighted centered vectors x_a(s_i) = w_i c_a(s_i)."""
    s_grid, weights, centered = _centered(traj, coupling, psi, n_time)
    return s_grid, _lag_sums(centered * weights[:, None])


def error_map(traj: ControlTrajectory, coupling: Coupling,
              *, n_time: int = DEFAULT_TIME_POINTS) -> BornErrorMap:
    """Double time quadrature of the Born error map.

    The double integral runs over the full square [-tau, tau]^2; with a PSD
    bath spectrum the discretized coefficient kernel is itself PSD, so the
    discrete map is completely positive up to rounding.  The left factors
    inner_a(u_j) = sum_b sum_i C_ab(s_i - u_j) w_i S_b(s_i) are one FFT
    convolution (zero-padded like `_lag_sums`) and phi = sum_{a,j}
    kron((w_j S_a(u_j))^T, inner_a(u_j)) one `superop_matrix` GEMM: no g x g kernel.
    """
    s_grid, weights, ops = interaction_ops(traj, coupling, n_time)
    r, g, n = ops.shape[:3]
    size = _fft_size(2 * g - 1)
    weighted = (ops * weights[:, None, None]).reshape(r, g, n * n)
    # inner_a(u_j) is entry g - 1 + j of the linear convolution of the
    # reversed lag correlations C((g - 1 - p) h) with the weighted operators
    spectrum = (np.fft.fft(_lag_correlations(coupling, s_grid)[::-1], n=size, axis=0)
                @ np.fft.fft(weighted, n=size, axis=1).transpose(1, 0, 2))
    inner = np.fft.ifft(spectrum, axis=0)[g - 1:2 * g - 1].transpose(1, 0, 2)
    phi = superop_matrix(inner.reshape(r * g, n, n), weighted.reshape(r * g, n, n))
    k_op = hermitian_part(unvec(dag(phi) @ vec(eye(n)), n))
    return BornErrorMap(phi_schrodinger=phi, k_operator=k_op)


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
                      *, n_time: int = DEFAULT_TIME_POINTS) -> float:
    """eps = <psi|K|psi> - <psi|Phi*(|psi><psi|)|psi> for a unit vector psi.

    Read off the lag sums D of the weighted centered vectors x_a(s_i) = w_i c_a(s_i):
    eps = sum_ab sum_ij C_ab(s_i - s_j) <x_a(s_j)|x_b(s_i)> = sum_ab sum_l C_ab(lh) D_ab(l),
    which builds neither the n^2 x n^2 error map nor a g x g kernel.
    """
    s_grid, d = _device_lag_sums(traj, coupling, psi, n_time)
    return _time_epsilon(coupling, s_grid, d)


def _time_epsilon(coupling: Coupling, s_grid: np.ndarray, d: np.ndarray) -> float:
    """eps = sum_ab sum_l C_ab(lh) D_ab(l) from the lag sums D on the grid s_grid."""
    return float(np.einsum("lab,lab->", _lag_correlations(coupling, s_grid), d).real)


# ---------------------------------------------------------------------------
# Frequency domain


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric grid on [-omega_max, omega_max].

    `points` and their `steps` (np.diff of the points, read by the trapezoid)
    are built once, with the grid, and are read-only.
    """

    omega_max: float
    n_points: int = DEFAULT_FREQ_POINTS

    def __post_init__(self):
        if not isinstance(self.n_points, (int, np.integer)) or isinstance(self.n_points, bool):
            raise ValueError("the number of grid points must be an integer")
        if not 0.0 < self.omega_max < np.inf or self.n_points < 3:
            raise ValueError("need a finite omega_max > 0 and at least 3 points")
        points = np.linspace(-self.omega_max, self.omega_max, self.n_points)
        for name, value in (("points", points), ("steps", np.diff(points))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def for_trajectory(cls, traj: ControlTrajectory, n_points: int = DEFAULT_FREQ_POINTS,
                       omega_max: float | None = None) -> "FrequencyGrid":
        return cls(omega_max=40.0 / traj.tau if omega_max is None else omega_max,
                   n_points=n_points)


def filter_operators(traj: ControlTrajectory, coupling: Coupling, omegas,
                     *, n_time: int = DEFAULT_TIME_POINTS) -> np.ndarray:
    """Windowed Fourier transforms Y_a(w) = integral S_a(s) e^{-iws} ds.

    Returns the full operators, shape (n_ops, len(omegas), n, n); the error
    needs only the covariance of Y_a(w)|psi>, which `device_correlator` reads
    off the lag sums without them.
    For hermitian couplings Y_a(w)† equals the transform with e^{+iws}.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    s_grid, weights, ops = interaction_ops(traj, coupling, n_time)
    phases = np.exp(-1j * omegas[:, None] * s_grid[None, :]) * weights[None, :]
    return np.einsum("wi,aicd->awcd", phases, ops)


def _lag_transform(d: np.ndarray, h: float, grid: FrequencyGrid) -> np.ndarray:
    """sum_l e^{-iwlh} d[g - 1 + l] over the lags |l| < g at every grid point.

    d has shape (2g - 1, ...) and the result (W, ...); every trailing entry is
    one channel.  The grid is symmetric, w_k = k' delta with centred
    k' = k - (W - 1)/2 and delta = 2 omega_max / (W - 1), so with
    alpha = delta h the phase is alpha k' l = alpha (k'^2 + l^2 - (k' - l)^2) / 2:
    a chirp e^{-i alpha l^2/2} on the lags, one FFT convolution with
    e^{i alpha m^2/2} over m = k' - l, and a chirp e^{-i alpha k'^2/2} on the
    output (the chirp z-transform).  m runs symmetrically over
    |m| <= (W - 1)/2 + g - 1, so one trig table of e^{i alpha m^2/2}, cos and
    sin for m >= 0 written into one complex array and mirrored, is the kernel;
    its conjugate at m = k' is the output chirp and, for odd W (integer m), at
    m = l the input chirp.  Per call that is three FFTs of one 2^a 3^b 5^c
    length >= W + 2g - 2 (kernel, lags, inverse), every one along a contiguous
    row for a single channel, and for the CLI's grids (W = 4001, g = 401) no
    temporary reaches 128 KiB per channel.  The centred indices keep every
    chirp argument below alpha (W/2 + g)^2 / 2.
    """
    count = d.shape[0]
    g = (count + 1) // 2
    w = grid.n_points
    # delta exactly as linspace steps; points[1] - points[0] carries the
    # rounding of omega_max, which k' ~ W/2 multiplies at the grid edge
    alpha = 2.0 * grid.omega_max / (w - 1) * h
    # kernel entry q holds m = k' - l = q - (W - 1)/2 - (g - 1), for k - j = q - (count - 1)
    # and j = g - 1 + l; the entries from half on hold every m >= 0
    table = np.empty(w + count - 1, dtype=complex)
    half = table.size // 2
    angles = 0.5 * alpha * (np.arange(half, table.size) - (0.5 * (w - 1) + g - 1)) ** 2
    np.cos(angles, out=table.real[half:])
    np.sin(angles, out=table.imag[half:])
    table[:half] = table[:-half - 1:-1]  # entries q and size - 1 - q hold -m and m
    size = _fft_size(table.size)
    lo = (w - 1) // 2  # m = l at entry lo + g - 1 + l when W is odd
    chirp = (table[lo:lo + count].conj() if w % 2
             else np.exp(-0.5j * alpha * np.arange(1 - g, g) ** 2))
    spectrum = np.fft.fft(d.reshape(count, -1).T * chirp, n=size)
    spectrum *= np.fft.fft(table, n=size)
    conv = np.fft.ifft(spectrum, out=spectrum)
    out = conv[:, count - 1:count - 1 + w] * table[g - 1:g - 1 + w].conj()
    return out.T.reshape((w,) + d.shape[1:])


def device_correlator(traj: ControlTrajectory, coupling: Coupling, psi: np.ndarray,
                      grid: FrequencyGrid, *, n_time: int = DEFAULT_TIME_POINTS) -> np.ndarray:
    """State covariance of the filter operators on the grid, shape (W, n_ops, n_ops).

    S_ab(w) = [<psi|Y_a†Y_b|psi> - <psi|Y_a†|psi><psi|Y_b|psi>] / (2 tau);
    a PSD Gram matrix at every frequency.  The centered vectors
    (Y_a(w) - <Y_a(w)>) psi are the transforms of c_a(s), so their Gram matrix
    is the transform of the lag sums D of x_a(s_i) = w_i c_a(s_i):
    S_ab(w) = sum_l e^{-iwlh} D_ab(l) / (2 tau).
    """
    s_grid, d = _device_lag_sums(traj, coupling, psi, n_time)
    return _lag_transform(d, s_grid[1] - s_grid[0], grid) / (2.0 * traj.tau)


@dataclass(frozen=True)
class SpectralError:
    epsilon: float
    overlap: np.ndarray          # sum_ab R_ab(w) S_ab(w) at each grid point
    boundary_fraction: float
    boundary_warning: bool


def _spectral_error(tau: float, grid: FrequencyGrid, overlap) -> SpectralError:
    """eps = 2 tau * trapezoid of the overlap sum_ab R_ab S_ab on the grid.

    The trapezoid is np.trapezoid's formula on the grid's cached steps, and one
    |Re overlap| serves the imaginary-part check, the peak and the boundary.
    """
    values = overlap.real
    magnitude = np.abs(values)
    peak = float(magnitude.max())
    if float(np.abs(overlap.imag).max()) > 1e-8 * max(peak, 1e-300):
        warnings.warn("spectral overlap has a nonnegligible imaginary part")
    eps = 2.0 * tau * float((grid.steps * (values[1:] + values[:-1]) / 2.0).sum())
    # integrand still at >1% of its peak at the window edge means the grid is
    # probably truncating real support
    boundary = float(max(magnitude[0], magnitude[-1])) / (peak + 1e-300)
    return SpectralError(epsilon=eps, overlap=overlap, boundary_fraction=boundary,
                         boundary_warning=boundary > 0.01)


def error_frequency_domain(traj: ControlTrajectory, coupling: Coupling, psi: np.ndarray,
                           grid: FrequencyGrid, *,
                           n_time: int = DEFAULT_TIME_POINTS) -> SpectralError:
    """eps = 2 tau * integral of the bath/device spectral overlap (trapezoid).

    A warning is attached when the integrand mass at the two boundary points
    exceeds 1% of the total.
    """
    s_grid, d = _device_lag_sums(traj, coupling, psi, n_time)
    return _frequency_epsilon(*_bath_channels(coupling.bath, grid, d),
                              s_grid[1] - s_grid[0], grid, traj.tau)


def _bath_channels(bath: Bath, grid: FrequencyGrid, d: np.ndarray):
    """Profiles p_t(w) on the grid, shape (W, t), and the lag sums contracted
    with the bath terms, D_t(l) = sum_ab (A_t)_ab D_ab(l), shape (2g - 1, t)."""
    return bath.spectral_profiles(grid.points), np.einsum("tab,lab->lt", bath.terms, d)


def _frequency_epsilon(profiles: np.ndarray, channels: np.ndarray, h: float,
                       grid: FrequencyGrid, tau: float) -> SpectralError:
    """The frequency route from `_bath_channels` on the time step h: one transform
    of t channels, as sum_ab R_ab(w) S_ab(w) = sum_t p_t(w) sum_l e^{-iwlh} D_t(l) / (2 tau)."""
    # times the reciprocal: what numpy's complex division by a real scalar computes
    overlap = (profiles * _lag_transform(channels, h, grid)).sum(axis=1) * (1.0 / (2.0 * tau))
    return _spectral_error(tau, grid, overlap)


def route_errors(traj: ControlTrajectory, coupling: Coupling, psi: np.ndarray,
                 grid: FrequencyGrid, *, n_time: int = DEFAULT_TIME_POINTS):
    """(eps of `error_time_domain`, `SpectralError` of `error_frequency_domain`).

    Both are read off one set of lag sums; each is None when the bath lacks
    the correlation function or the spectral density its route needs.
    """
    s_grid, d = _device_lag_sums(traj, coupling, psi, n_time)
    bath = coupling.bath
    eps_time = None if bath.correlation is None else _time_epsilon(coupling, s_grid, d)
    spectral = (None if bath.spectral is None
                else _frequency_epsilon(*_bath_channels(bath, grid, d),
                                        s_grid[1] - s_grid[0], grid, traj.tau))
    return eps_time, spectral


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
                    *, grid: FrequencyGrid,
                    n_time: int = DEFAULT_TIME_POINTS) -> ScanResult:
    """Error of the same unitary run at rescaled speeds.

    Each lambda stretches the schedule to [-lam tau, lam tau] with weakened
    Hamiltonians, leaving the total unitary fixed.  For a flat bath the error
    grows linearly in lam; for spectra vanishing faster than linearly at the
    origin, slowing down wins.  One shared frequency grid keeps the points
    comparable.  A lambda that is not positive and finite raises
    `ValueError` before any work.  The monotone flags compare consecutive
    points, so a scan of fewer than two lambdas reports both as False.

    `traj.rescaled(lam)` satisfies S^lam(lam s) = S(s) exactly, so its grid is
    lam * s_i with weights lam * w_i and the same operators: its lag sums are
    lam^2 D on the step lam h, and one interaction-picture pass, one set of
    lag sums contracted with the bath terms and one bath evaluation serve
    every lambda, which then costs one transform of t channels.
    """
    lambdas = [_positive(lam, "rescaling factor") for lam in lambdas]
    s_grid, d = _device_lag_sums(traj, coupling, psi, n_time)
    h = s_grid[1] - s_grid[0]
    profiles, channels = _bath_channels(coupling.bath, grid, d)
    pts = []
    for lam in lambdas:
        res = _frequency_epsilon(profiles, lam ** 2 * channels, lam * h, grid, lam * traj.tau)
        pts.append(ScanPoint(lam=lam, epsilon=res.epsilon,
                             boundary_warning=res.boundary_warning))
    eps = [p.epsilon for p in pts]
    pairs = list(zip(eps, eps[1:]))
    dec = bool(pairs) and all(b < a for a, b in pairs)
    inc = bool(pairs) and all(b > a for a, b in pairs)
    return ScanResult(points=tuple(pts), monotone_decreasing=dec, monotone_increasing=inc)
