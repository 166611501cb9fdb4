"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the code paths it checks: the
decoherence-free subalgebra comes from the Gram matrix of the dissipation
quadratic form instead of the Stinespring linearization, commutant dimensions
from an eigendecomposition of a stacked Gram operator instead of an SVD
nullspace, propagators from brute-force substepping, and integrals from
closed forms.
"""

import numpy as np
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
