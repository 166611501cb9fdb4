"""Quantum dynamical maps in Heisenberg-picture Kraus form.

A channel is Gamma(A) = sum_a W_a† A W_a with sum_a W_a† W_a = 1 (unital).
Its Schrodinger-picture dual acts on states as rho -> sum_a W_a rho W_a†
and is trace preserving.  Maps that are not completely positive can only be
handled as raw superoperator matrices, never as :class:`KrausMap`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DEFAULT_TOL,
    TermMap,
    dag,
    eye,
    sz,
    unvec,
    vec,
)

# Choi eigenvalues below KRAUS_CUT * (largest eigenvalue) are dropped when
# canonicalizing a Kraus decomposition.
KRAUS_CUT = 1e-11
REDUCED_TOL = 1e-8  # unitality slack of a reduced list, far above what the cut drops


class KrausMap(TermMap):
    """Completely positive unital map in Heisenberg-picture Kraus form: the terms (1, W†, W)."""

    def __init__(self, kraus_ops, *, tol: float = DEFAULT_TOL):
        ops = tuple(np.asarray(w, dtype=complex) for w in kraus_ops)
        if not ops:
            raise ValueError("a Kraus map needs at least one operator")
        n = ops[0].shape[0]
        for w in ops:
            if w.shape != (n, n):
                raise ValueError("all Kraus operators must be square with equal dims")
        terms = [(1.0, dag(w), w) for w in ops]
        defect = float(np.max(np.abs(sum(l @ r for _, l, r in terms) - eye(n))))
        if defect > tol:
            exc = ValueError(f"Kraus set is not unital: sum W†W deviates from identity by "
                             f"{defect:.3e}")
            exc.unitality_defect = defect  # for a diagnostic, without a second sum
            raise exc
        super().__init__(n, terms)
        self.kraus_ops = ops
        self.unitality_defect = defect

    def __repr__(self):
        return f"KrausMap(dim={self.dim}, rank={len(self.kraus_ops)})"


def unitary_channel(u: np.ndarray) -> KrausMap:
    return KrausMap([u])


def dephasing_channel(p: float) -> KrausMap:
    """Qubit dephasing: Gamma(sx) = (1-2p) sx, diagonal operators untouched."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("dephasing strength must lie in [0, 1]")
    return KrausMap([np.sqrt(1.0 - p) * eye(2), np.sqrt(p) * sz])


def random_unital_channel(n: int, kraus_rank: int, rng: np.random.Generator) -> KrausMap:
    """Random unital CP map from a Haar-random Stinespring isometry.

    The n*kraus_rank x n isometry is chopped into kraus_rank blocks of n rows;
    these satisfy sum W†W = 1 exactly.
    """
    g = rng.normal(size=(n * kraus_rank, n)) + 1j * rng.normal(size=(n * kraus_rank, n))
    q, _ = np.linalg.qr(g)
    return KrausMap([q[a * n:(a + 1) * n, :] for a in range(kraus_rank)])


# ---------------------------------------------------------------------------
# Choi matrix and complete positivity


def choi_matrix(schrodinger: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) Phi*(E_ij) of a raw Schrodinger-picture matrix Phi*.

    A KrausMap's Schrodinger matrix is dag(heisenberg_matrix()), and its Choi
    matrix is A A† for A = [vec W_a]."""
    s = np.asarray(schrodinger, dtype=complex)
    # Phi*(E_ij) = unvec(S vec(E_ij)) = blocks[j n + i] is the block (i, j) of C
    blocks = unvec(s.T)
    n = blocks.shape[-1]
    return blocks.reshape(n, n, n, n).transpose(1, 2, 0, 3).reshape(n * n, n * n)


@dataclass(frozen=True)
class CPCheck:
    is_cp: bool
    min_eigenvalue: float


def cp_check(channel, tol: float = DEFAULT_TOL) -> CPCheck:
    """Complete positivity test: the Choi matrix must be PSD within tol.  A KrausMap's
    Choi matrix is A A†, A = [vec W_a] (n^2 x k): its least eigenvalue is 0 for k < n^2,
    else A's least squared singular value; only a raw superoperator gets one built."""
    if not isinstance(channel, KrausMap):
        c = choi_matrix(channel)
        lo = float(np.linalg.eigvalsh(0.5 * (c + dag(c))).min())
    elif len(channel.kraus_ops) < channel.dim ** 2:
        lo = 0.0
    else:
        lo = float(np.linalg.svd(vec(channel.kraus_ops).T, compute_uv=False)[-1] ** 2)
    return CPCheck(is_cp=lo >= -tol, min_eigenvalue=lo)


def kraus_from_choi(choi: np.ndarray) -> list[np.ndarray]:
    """Kraus operators of a CP map from its (PSD) Choi matrix."""
    choi = 0.5 * (choi + dag(choi))
    evals, evecs = np.linalg.eigh(choi)
    top = evals.max() if evals.size else 0.0
    if top <= 0.0:
        raise ValueError("Choi matrix has no positive part; map is not CP")
    if evals.min() < -1e-7 * top:
        raise ValueError(f"Choi matrix is not PSD (min eigenvalue {evals.min():.3e})")
    keep = evals > KRAUS_CUT * top
    # a Choi eigenvector sum_i |i> (x) W|i> is vec(W)
    return list(unvec((evecs[:, keep] * np.sqrt(evals[keep])).T))


def reduce_kraus(channel: KrausMap) -> KrausMap:
    """Canonical Kraus list (at most dim**2 operators), with no n^2 x n^2 matrix: the
    columns of U Sigma in the thin SVD of A = [vec W_a] (n^2 x k, Choi matrix A A†),
    cut on the Choi eigenvalues s^2: as far from unital as the input plus the dropped mass."""
    u, s, _ = np.linalg.svd(vec(channel.kraus_ops).T, full_matrices=False)
    keep = s**2 > KRAUS_CUT * s[0] ** 2
    return KrausMap(unvec((u[:, keep] * s[keep]).T, channel.dim),
                    tol=REDUCED_TOL + channel.unitality_defect)


def channel_from_superop(heisenberg: np.ndarray, *, tol: float = DEFAULT_TOL) -> KrausMap:
    """Build a KrausMap from a Heisenberg superoperator matrix.

    Raises ValueError when the map is not CP or not unital within tol; such
    maps must stay raw superoperators.
    """
    heisenberg = np.asarray(heisenberg, dtype=complex)
    n = int(round(np.sqrt(heisenberg.shape[0])))
    unit_defect = float(np.max(np.abs(unvec(heisenberg @ vec(eye(n)), n) - eye(n))))
    if unit_defect > tol:
        raise ValueError(f"superoperator is not unital (defect {unit_defect:.3e})")
    ops = kraus_from_choi(choi_matrix(dag(heisenberg)))
    return KrausMap(ops, tol=max(tol, 1e-7))


# ---------------------------------------------------------------------------
# Irreversibility diagnostics


def kadison_defect(channel: KrausMap, a: np.ndarray) -> np.ndarray:
    """Gamma(A†A) - Gamma(A†)Gamma(A); PSD for every CP unital map."""
    a = np.asarray(a, dtype=complex)
    return channel(dag(a) @ a) - channel(dag(a)) @ channel(a)


# ---------------------------------------------------------------------------
# Composition


def compose(g1: KrausMap, g2: KrausMap) -> KrausMap:
    """Heisenberg composition (g1 o g2)(A) = g1(g2(A)).

    The Kraus list of the composition is {W2_a W1_b}; for unitary channels
    compose(U-channel, V-channel) is the channel of the product V U.  Lists
    longer than dim**2 are reduced by :func:`reduce_kraus`.
    """
    if g1.dim != g2.dim:
        raise ValueError("channel dimensions do not match")
    ops = [w2 @ w1 for w2 in g2.kraus_ops for w1 in g1.kraus_ops]
    out = KrausMap(ops, tol=1e-7)
    if len(ops) > g1.dim ** 2:
        out = reduce_kraus(out)
    return out
