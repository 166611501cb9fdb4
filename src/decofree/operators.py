"""Dense complex-matrix and superoperator primitives.

Conventions shared by the whole package:

* Vectorization is column-stacking, ``vec(A) = A.T.ravel()``, so that
  ``vec(L @ X @ R) = kron(R.T, L) @ vec(X)``.  Every superoperator matrix
  built here acts on column-stacked operators.
* Maps on observables (Heisenberg picture) are the primary objects; the
  Schrodinger-picture action of a hermiticity-preserving map is the
  conjugate transpose of its superoperator matrix.
* hbar = k_B = 1, so energy, frequency and temperature share units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
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
    """Hermitian conjugate."""
    return np.asarray(a).conj().T


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(a).T.ravel()


def unvec(v: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; square by default."""
    v = np.asarray(v).ravel()
    if n is None:
        n = int(round(np.sqrt(v.size)))
        if n * n != v.size:
            raise ValueError(f"vector of size {v.size} is not a square matrix")
    return v.reshape((n, n), order="F").copy()


def tensor_product(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product in the lexicographic product basis."""
    if not ops:
        raise ValueError("need at least one factor")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def sandwich_superop(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Matrix of X -> left @ X @ right on column-stacked operators."""
    left = np.asarray(left, dtype=complex)
    right = np.asarray(right, dtype=complex)
    if left.shape != right.shape or left.shape[0] != left.shape[1]:
        raise ValueError("left/right factors must be square with equal dims")
    return np.kron(right.T, left)


def left_mult_superop(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return np.kron(eye(a.shape[0]), a)


def right_mult_superop(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return np.kron(a.T, eye(a.shape[0]))


def conjugation_superop(u: np.ndarray) -> np.ndarray:
    """Matrix of the Heisenberg unitary action X -> u† X u."""
    return sandwich_superop(dag(u), u)


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a)
    return bool(np.max(np.abs(a - dag(a))) <= tol)


def is_psd(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a)
    if not is_hermitian(a, tol):
        return False
    return bool(np.linalg.eigvalsh(0.5 * (a + dag(a))).min() >= -tol)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    return 0.5 * (a + dag(a))


def check_density_matrix(rho: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """Raise ValueError unless rho is hermitian, unit-trace and PSD within tol."""
    rho = np.asarray(rho)
    if not is_hermitian(rho, tol):
        raise ValueError("density matrix is not hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > max(tol, 1e-9):
        raise ValueError(f"density matrix trace {np.trace(rho):.6g} != 1")
    if np.linalg.eigvalsh(hermitian_part(rho)).min() < -tol:
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

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        if a.shape != self.sigma.shape or b.shape != self.sigma.shape:
            raise ValueError("operator dimensions do not match the metric")
        return complex(np.trace(self.sigma @ dag(a) @ b))

    def norm(self, a: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(a, a).real, 0.0)))

    def gram_superop(self) -> np.ndarray:
        """Matrix G with vec(A)† G vec(B) = <A, B>_sigma."""
        return np.kron(self.sigma.T, eye(self.dim))


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

