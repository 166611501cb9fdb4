"""Dense complex-matrix and superoperator primitives.

Conventions shared by the whole package:

* Vectorization is column-stacking, ``vec(A) = A.T.ravel()``, so that
  ``vec(L @ X @ R) = kron(R.T, L) @ vec(X)``.  Only :func:`vec` and
  :func:`unvec` spell the convention out, both on stacks (..., n, n), and
  only :func:`superop_matrix` builds an n^2 x n^2 superoperator matrix.
* Maps on observables (Heisenberg picture) are the primary objects; the
  Schrodinger-picture action of a hermiticity-preserving map is the
  conjugate transpose of its superoperator matrix.
* hbar = k_B = 1, so energy, frequency and temperature share units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 7  # the seed of every randomized step
FAITHFUL_TOL = 1e-12

# Pauli matrices; ``sm = |0><1|`` annihilates the second basis state,
# ``sp = sm.conj().T``.
sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
sp = sm.conj().T.copy()


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def dag(a: np.ndarray) -> np.ndarray:
    """Hermitian conjugate, of one matrix or of each matrix in a stack (..., n, n)."""
    return np.asarray(a).conj().mT


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix, or each matrix of a stack (..., n, n), into (..., n^2)."""
    a = np.asarray(a)
    return a.mT.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))


def unvec(v: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` on (..., n^2), square by default; a view of v where
    numpy can reshape without a copy."""
    v = np.asarray(v)
    if n is None:
        n = int(round(np.sqrt(v.shape[-1])))
        if n * n != v.shape[-1]:
            raise ValueError(f"vector of size {v.shape[-1]} is not a square matrix")
    return v.reshape(v.shape[:-1] + (n, n)).mT


def tensor_product(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product in the lexicographic product basis."""
    if not ops:
        raise ValueError("need at least one factor")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def superop_matrix(left, right, coeffs=None) -> np.ndarray:
    """Matrix sum_p c_p kron(R_p.T, L_p) of X -> sum_p c_p L_p X R_p, from stacks (p, n, n)
    of the L_p and R_p and p coefficients (default one): the one GEMM sum_p c_p l_p r_p^T of
    the flattened factors, realigned (Van Loan & Pitsianis 1993); zero when p = 0."""
    left = np.asarray(left, dtype=complex)
    n = left.shape[-1]
    rows = left.reshape(-1, n * n)
    if coeffs is not None:
        rows = rows * np.asarray(coeffs)[:, None]
    z = rows.T @ np.asarray(right, dtype=complex).reshape(-1, n * n)
    # z[(i, j), (b, a)] = sum_p c_p L_p[i, j] R_p[b, a] is the entry ((a, i), (b, j))
    return z.reshape(n, n, n, n).transpose(3, 0, 2, 1).reshape(n * n, n * n)


def sandwich_superop(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Matrix of X -> left @ X @ right on column-stacked operators."""
    left = np.asarray(left, dtype=complex)
    right = np.asarray(right, dtype=complex)
    if left.shape != right.shape or left.shape[0] != left.shape[1]:
        raise ValueError("left/right factors must be square with equal dims")
    return superop_matrix(left[None], right[None])


class TermMap:
    """The map X -> sum_i c_i L_i X R_i on n x n operators, from terms (c_i, L_i, R_i) fixed
    at construction.  A factor None is the identity: the action skips its product."""

    def __init__(self, dim: int, terms):
        self.dim = dim
        self._terms = tuple(terms)
        self._dual = None
        self._dense = None

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """Heisenberg action on one operator or on each operator of a stack (..., n, n)."""
        return self._act(self._terms, a)

    def apply_dual(self, rho: np.ndarray) -> np.ndarray:
        """Schrodinger action sum_i conj(c_i) L_i† rho R_i†, on one state or a stack."""
        if self._dual is None:
            self._dual = tuple((np.conj(c), l if l is None else dag(l), r if r is None else dag(r))
                               for c, l, r in self._terms)
        return self._act(self._dual, rho)

    def _act(self, terms, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=complex)
        if a.shape[-2:] != (self.dim, self.dim):
            raise ValueError("operator dimension does not match the map")
        out = np.zeros_like(a)
        for c, l, r in terms:
            x = a if l is None else l @ a
            x = x if r is None else x @ r
            out += x if c == 1 else c * x
        return out

    def terms(self) -> list:
        """The terms (c, L, R), with eye(n) in place of an identity factor."""
        one = eye(self.dim)
        return [(c, one if l is None else l, one if r is None else r) for c, l, r in self._terms]

    def heisenberg_matrix(self) -> np.ndarray:
        """The read-only n^2 x n^2 matrix sum_i c_i kron(R_i.T, L_i), built once."""
        if self._dense is None:
            c, l, r = zip(*self.terms()) if self._terms else ((), (), ())
            shape = (-1, self.dim, self.dim)
            self._dense = superop_matrix(np.reshape(l, shape), np.reshape(r, shape), c)
            self._dense.flags.writeable = False
        return self._dense


def superop_norm(terms) -> float:
    """Frobenius norm of the map X -> sum_i c_i L_i X R_i, given as terms (c_i, L_i, R_i).

    Its matrix sum_i c_i kron(R_i.T, L_i) has the entries of sum_i c_i r_i l_i^T,
    r_i and l_i the flattened R_i and L_i (Van Loan & Pitsianis 1993).  With A, B
    the R factors of the QRs of the stacked l_i and r_i, the norm is
    ||(A diag c) B^T||_F: no n^2 x n^2 matrix, and no Gram sums to cancel.
    """
    if not terms:
        return 0.0
    c, left, right = zip(*terms)
    a = np.linalg.qr(np.reshape(left, (len(c), -1)).T, mode="r")
    b = np.linalg.qr(np.reshape(right, (len(c), -1)).T, mode="r")
    return float(np.linalg.norm((a * np.asarray(c)) @ b.T))


def commutator_norm(s, t) -> float:
    """||st - ts||_F / max(||s||_F ||t||_F, 1) of two maps given as terms."""
    terms = [(c * d, l1 @ l2, r2 @ r1) for c, l1, r1 in s for d, l2, r2 in t]
    terms += [(-c * d, l2 @ l1, r1 @ r2) for c, l1, r1 in s for d, l2, r2 in t]
    return superop_norm(terms) / max(superop_norm(s) * superop_norm(t), 1.0)


def is_hermitian(a: np.ndarray) -> bool:
    a = np.asarray(a)
    return bool(np.max(np.abs(a - dag(a))) <= DEFAULT_TOL)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    return 0.5 * (a + dag(a))


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is hermitian, unit-trace and PSD within DEFAULT_TOL."""
    rho = np.asarray(rho)
    if not is_hermitian(rho):
        raise ValueError("density matrix is not hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > DEFAULT_TOL:
        raise ValueError(f"density matrix trace {np.trace(rho):.12g} != 1")
    if np.linalg.eigvalsh(hermitian_part(rho)).min() < -DEFAULT_TOL:
        raise ValueError("density matrix has negative eigenvalues beyond tolerance")


@dataclass(frozen=True)
class LiouvilleMetric:
    """Inner product <A, B>_sigma = Tr(sigma A† B) for a faithful state sigma."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=complex)
        check_density_matrix(sigma)
        if np.linalg.eigvalsh(hermitian_part(sigma)).min() <= FAITHFUL_TOL:
            raise ValueError("metric state is not faithful (min eigenvalue too small)")
        object.__setattr__(self, "sigma", sigma)

    def inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        if a.shape != self.sigma.shape or b.shape != self.sigma.shape:
            raise ValueError("operator dimensions do not match the metric")
        return complex(np.trace(self.sigma @ dag(a) @ b))

    def norm(self, a: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(a, a).real, 0.0)))

    def hermiticity_residual(self, terms) -> float:
        """||G S - S† G||_F / max(||S||_F, 1) for S as terms, G: X -> X sigma; G S has
        the terms (c, L, R sigma) and S† G the terms (c̄, L†, sigma R†)."""
        sigma = self.sigma
        moved = [(c, l, r @ sigma) for c, l, r in terms]
        moved += [(-np.conj(c), dag(l), sigma @ dag(r)) for c, l, r in terms]
        return superop_norm(moved) / max(superop_norm(terms), 1.0)


# ---------------------------------------------------------------------------
# Seeded random helpers used across tests and randomized algorithms.

def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + dag(g))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fixing."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_density(n: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = n if rank is None else rank
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = g @ dag(g)
    return rho / np.trace(rho)

