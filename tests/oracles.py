"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the code paths it checks: the
decoherence-free subalgebra comes from the Gram matrix of the dissipation
quadratic form instead of the commutant of the Kraus pair products
{W_a W_b†}' (the Stinespring projection), commutant dimensions
from an eigendecomposition of a stacked Gram operator, commutants from the SVD
of the stacked n^2 x n^2 commutator matrices instead of an eigenspace-restricted
solve, generated algebras by product enrichment instead of a double commutant,
principal angles and subspace equality from scipy instead of a projection
residual, propagators from brute-force substepping or from one matrix
exponential per segment instead of one eigendecomposition per segment, lag
sums pair by pair instead of by FFT, the Born error map from its g x g
Toeplitz kernel one grid point at a time instead of by an FFT convolution and
one GEMM, and integrals from closed forms.
Nothing here imports `decofree.born`.
"""

import numpy as np
from scipy.linalg import subspace_angles
from scipy.special import erf


def hermitian_basis(n):
    """Orthonormal (Frobenius) basis of hermitian n x n matrices."""
    basis = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -1j / np.sqrt(2.0)
            m[j, i] = 1j / np.sqrt(2.0)
            basis.append(m)
    return basis


def definitional_df_subalgebra(channel, rtol=1e-9):
    """Hermitian solutions of "no dissipation", by brute force.

    Tr of the dissipation form D(A, A) = Gamma(A^2) - Gamma(A)^2 is a PSD
    quadratic form q(a) over the real coordinates of hermitian A; its zero set
    is exactly the kernel of the Gram matrix of q.  Returns a list of
    hermitian matrices spanning the set (complexify by taking their complex
    span).
    """
    n = channel.dim
    basis = hermitian_basis(n)
    stack = np.stack(basis)
    kraus = np.stack(channel.kraus_ops)
    images = np.einsum("wba,kbc,wcd->kad", kraus.conj(), stack, kraus, optimize=True)
    products = np.einsum("kab,lbc->klac", stack, stack)
    # b[k, l] = Tr(Gamma(B_k B_l) - Gamma(B_k) Gamma(B_l)), the Kraus sum
    # applied to all m^2 products at once
    b = (np.einsum("wba,klbc,wca->kl", kraus.conj(), products, kraus, optimize=True)
         - np.einsum("kab,lba->kl", images, images))
    q = 0.5 * np.real(b + b.T)
    evals, evecs = np.linalg.eigh(q)
    # unit-scale floor: the form of a fully dissipative channel has O(1)
    # eigenvalues, so rounding-level spectra mean "no dissipation at all"
    null = evecs[:, np.abs(evals) <= rtol * max(evals.max(), 1.0)]
    return [sum(c * h for c, h in zip(col, basis)) for col in null.T]


def commutant_dimension(ops, n):
    """Dimension of {ops, ops†}' from the spectrum of a stacked Gram operator."""
    gram = np.zeros((n * n, n * n), dtype=complex)
    ident = np.eye(n, dtype=complex)
    for a in list(ops) + [o.conj().T for o in ops]:
        c = np.kron(a.T, ident) - np.kron(ident, a)
        gram += c.conj().T @ c
    evals = np.linalg.eigvalsh(gram)
    return int(np.sum(np.abs(evals) <= 1e-10 * max(evals.max(), 1.0)))


def _orthonormal_span(vectors, rtol=1e-9):
    """Orthonormal rows spanning the given row vectors (SVD, relative cut)."""
    _, s, vh = np.linalg.svd(np.asarray(vectors), full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    return vh[s > rtol * s[0]]


def stacked_commutant(ops, n, rtol=1e-9):
    """Basis of {ops, ops†}' from the SVD of the stacked n^2 x n^2 commutator matrices."""
    ident = np.eye(n, dtype=complex)
    rows = []
    for a in ops:
        a = np.asarray(a, dtype=complex) / np.linalg.norm(a)
        for b in (a, a.conj().T):
            rows.append(np.kron(b.T, ident) - np.kron(ident, b))
    _, s, vh = np.linalg.svd(np.vstack(rows))
    rank = int(np.sum(s > rtol * max(s[0], 1.0)))
    return [v.reshape((n, n), order="F") for v in vh[rank:].conj()]


def principal_angles(basis_a, basis_b):
    """Principal angles between the spans of two lists of matrices (scipy)."""
    if not basis_a or not basis_b:
        return np.array([])
    return subspace_angles(np.stack([m.ravel() for m in basis_a], axis=1),
                           np.stack([m.ravel() for m in basis_b], axis=1))


def subspaces_equal(basis_a, basis_b, tol=1e-7):
    """Equal dimension, and the largest principal angle (scipy) at most tol."""
    angles = principal_angles(list(basis_a), list(basis_b))
    return len(basis_a) == len(basis_b) and (angles.size == 0 or angles.max() <= tol)


def product_closure(ops, n, rtol=1e-9):
    """Basis of the unital *-algebra generated by ops: span enrichment by products."""
    seed = [np.eye(n, dtype=complex)]
    for a in ops:
        seed += [np.asarray(a, dtype=complex), np.asarray(a, dtype=complex).conj().T]
    basis = [v.reshape(n, n) for v in _orthonormal_span([m.ravel() for m in seed], rtol)]
    while True:
        products = [a @ b for a in basis for b in basis]
        enriched = _orthonormal_span([m.ravel() for m in basis + products], rtol)
        if len(enriched) == len(basis):
            return basis
        basis = [v.reshape(n, n) for v in enriched]


def substep_propagator(traj, s, t, n_steps=10000):
    """Brute-force time-ordered product with tiny uniform steps."""
    from scipy.linalg import expm

    times = np.linspace(s, t, n_steps + 1)
    u = np.eye(traj.dim, dtype=complex)
    bounds = np.concatenate([[0.0], np.cumsum([seg.duration for seg in traj.segments])]) - traj.tau
    for k in range(n_steps):
        mid = 0.5 * (times[k] + times[k + 1])
        idx = int(np.searchsorted(bounds, mid) - 1)
        idx = min(max(idx, 0), len(traj.segments) - 1)
        h = traj.segments[idx].hamiltonian
        u = expm(-1j * h * (times[k + 1] - times[k])) @ u
    return u


def segment_propagator(traj, s, t):
    """U(t, s) as the time-ordered product of one matrix exponential per segment piece."""
    from scipy.linalg import expm

    if t < s:
        return segment_propagator(traj, t, s).conj().T
    u = np.eye(traj.dim, dtype=complex)
    bounds = np.concatenate([[0.0], np.cumsum([seg.duration for seg in traj.segments])]) - traj.tau
    for k, seg in enumerate(traj.segments):
        lo, hi = max(bounds[k], s), min(bounds[k + 1], t)
        if hi - lo > 0:
            u = expm(-1j * seg.hamiltonian * (hi - lo)) @ u
    return u


def error_map_double_loop(s_grid, weights, ops, lag_corr):
    """Born error map phi = sum_ab sum_ij C_ab(s_i - s_j) kron((w_j S_a(s_j))^T, w_i S_b(s_i)).

    ops[a, i] = S_a(s_i) on the uniform grid s_grid with quadrature weights,
    lag_corr[g - 1 + l] = [C_ab(l h)] for |l| < g; the g x g Toeplitz kernel
    is expanded and every grid point adds one Kronecker product
    (kron(B^T, A) is the matrix of X -> A X B on column-stacked X).
    """
    r, g, n, _ = ops.shape
    h = s_grid[1] - s_grid[0]
    lag_index = np.rint((s_grid[:, None] - s_grid[None, :]) / h).astype(int) + (g - 1)
    kernel = lag_corr[lag_index].transpose(2, 3, 0, 1)  # kernel[a, b, i, j] = C_ab(s_i - s_j)
    weighted = ops * weights[None, :, None, None]
    phi = np.zeros((n * n, n * n), dtype=complex)
    for a in range(r):
        for b in range(r):
            inner = np.einsum("ij,icd->jcd", kernel[a, b], weighted[b])
            for j in range(g):
                phi += np.kron(weighted[a, j].T, inner[j])
    return phi


def lag_sums_double_loop(x):
    """D[g - 1 + l, a, b] = sum over i - j = l of <x_a(j)|x_b(i)>, one pair at a time."""
    r, g, _ = x.shape
    d = np.zeros((2 * g - 1, r, r), dtype=complex)
    for i in range(g):
        for j in range(g):
            for a in range(r):
                for b in range(r):
                    d[g - 1 + i - j, a, b] += np.vdot(x[a, j], x[b, i])
    return d


def exp_corr_square_integral(g, t_c, tau):
    """Closed form of the double integral of g^2 exp(-|s-u|/t_c) over [-tau, tau]^2."""
    length = 2.0 * tau
    return 2.0 * g * g * t_c * (length - t_c * (1.0 - np.exp(-length / t_c)))


def gaussian_corr_square_integral(amplitude, width, tau):
    """Double integral of amplitude * width * sqrt(2 pi) * exp(-width^2 (s-u)^2 / 2).

    Uses 2 * int_0^L (L - t) f(t) dt with L = 2 tau and the error function.
    """
    length = 2.0 * tau
    w = width
    pref = amplitude * w * np.sqrt(2.0 * np.pi)
    term1 = length * np.sqrt(np.pi / 2.0) / w * erf(w * length / np.sqrt(2.0))
    term2 = (1.0 - np.exp(-0.5 * (w * length) ** 2)) / w ** 2
    return 2.0 * pref * (term1 - term2)


def qubit_rotation_interaction_op(omega, s, tau):
    """Closed form of U(s,-tau)† sx U(s,-tau) for H = (omega/2) sz.

    Heisenberg rotation about z: sx -> cos(theta) sx - sin(theta) sy with
    theta = omega (s + tau).
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    theta = omega * (s + tau)
    return np.cos(theta) * sx - np.sin(theta) * sy


def gibbs_populations(energies, temperature):
    w = np.exp(-np.asarray(energies, dtype=float) / temperature)
    return w / w.sum()
