"""Finite-dimensional C*-algebra engine.

Computes commutants, generated algebras and Wedderburn block structure of
unital *-closed operator subspaces, and from those the decoherence-free
subalgebras of channels and semigroups: the multiplicative domain of a single
map, its largest invariant subspace (the domain of every iterate), the
largest generator-invariant part of the Lindblad operators' commutant,
fixed-point spaces, and the relaxation profile onto the decoherence-free part.

All subspaces of M_n live as Frobenius-orthonormal matrix bases, each one
(d, n, n) array whose vec, transposed, is the n^2 x d matrix of orthonormal
columns.  Every rank decision is one rule, applied to input of unit scale: a
singular value s counts as zero when s <= NULLSPACE_RTOL * max(s_max, 1).
One subspace contains another when the sine of their largest principal angle
is at most ANGLE_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import KrausMap, compose, reduce_kraus, unitary_channel
from .lindblad import GKLSGenerator, detailed_balance_check
from .operators import (
    DEFAULT_TOL,
    LiouvilleMetric,
    commutator_norm,
    dag,
    eye,
    hermitian_part,
    unvec,
    vec,
)

NULLSPACE_RTOL = 1e-9
ANGLE_TOL = 1e-7


# ---------------------------------------------------------------------------
# Subspace machinery (vectorized matrices, orthonormal columns)


def _rank(s: np.ndarray) -> int:
    """Count of the descending singular values s above NULLSPACE_RTOL * max(s_max, 1).

    The unit floor keeps a numerically-zero matrix (s_max at rounding level)
    from being mistaken for a full-rank one; callers hand in matrices whose
    genuine entries have unit magnitude.
    """
    return int(np.sum(s > NULLSPACE_RTOL * max(s[0], 1.0))) if s.size else 0


def nullspace(mat: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the right nullspace of mat (unit-scale input)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    if mat.shape[0] > mat.shape[1]:
        # a tall matrix has the singular values and right factor of its R
        mat = np.linalg.qr(mat, mode="r")
    # only a wide matrix needs the full right factor for its kernel
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    return vh[_rank(s):].conj().T


def orthonormal_matrix_basis(mats) -> np.ndarray:
    """Frobenius-orthonormal basis of the span of the given matrices, as an (r, n, n) stack.

    The stacked rows are divided by the largest row norm, so s_max >= 1 and
    the shared cut is relative to s_max: the result does not depend on scale.
    """
    mats = np.asarray(mats, dtype=complex)
    if not mats.size:
        return mats
    rows = vec(mats)
    top = float(np.max(np.linalg.norm(rows, axis=1)))
    # economy SVD: the full right factor of a dim x m^2 stack has m^4 entries;
    # all-zero rows have no singular value above the cut
    _, s, vh = np.linalg.svd(rows / (top or 1.0), full_matrices=False)
    return unvec(vh[:_rank(s)], mats.shape[-1])


def subspace_contains(big, small, tol: float = ANGLE_TOL) -> bool:
    """True when span(small) is inside span(big) up to principal angle tol.

    For orthonormal bases ||Q_s - Q_b Q_b† Q_s||_2 is the sine of the largest
    principal angle of span(small) against span(big).
    """
    if not len(small):
        return True
    if not len(big):
        return False
    qs = vec(small).T
    qb = vec(big).T
    residual = qs - qb @ (qb.conj().T @ qs)
    return bool(np.linalg.norm(residual, 2) <= tol)


def intersect_spans(basis_a, basis_b) -> list[np.ndarray]:
    """Orthonormal basis of span(a) ∩ span(b).

    A kernel vector (x, y) of [Q_a, -Q_b] with x = 0 has Q_b y = 0, so y = 0:
    the x parts have full column rank, and a QR of Q_a x orthonormalizes the
    intersection without a second rank decision.
    """
    if not len(basis_a) or not len(basis_b):
        return []
    qa = vec(basis_a).T
    qb = vec(basis_b).T
    null = nullspace(np.hstack([qa, -qb]))
    if null.shape[1] == 0:
        return []
    q, _ = np.linalg.qr(qa @ null[: qa.shape[1]])
    return list(unvec(q.T))


# ---------------------------------------------------------------------------
# MatrixAlgebra


@dataclass(frozen=True)
class MatrixAlgebra:
    """Unital *-closed operator subspace with a Frobenius-orthonormal basis,
    held as one read-only (d, n, n) array."""

    basis: np.ndarray
    # Wedderburn blocks (n_j, d_j), ordered as block_decompose orders them, when
    # the construction already knows them (generated_algebra); otherwise None
    _blocks: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        # a read-only view, so an array the caller passed in stays writable
        basis = np.asarray(self.basis, dtype=complex).view()
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_span(cls, mats) -> "MatrixAlgebra":
        return cls(orthonormal_matrix_basis(mats))

    @property
    def matrix_dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def dim(self) -> int:
        """Dimension as a complex linear space."""
        return len(self.basis)

    def _residual_norms(self, mats) -> np.ndarray:
        """Frobenius distances of the matrices from the span, v - Q(Q† v) per column."""
        q = vec(self.basis).T
        v = vec(mats).T
        return np.linalg.norm(v - q @ (dag(q) @ v), axis=0)

    def project(self, a: np.ndarray) -> np.ndarray:
        q = vec(self.basis).T
        return unvec(q @ (dag(q) @ vec(np.asarray(a, dtype=complex))), self.matrix_dim)

    def contains(self, a: np.ndarray, tol: float = ANGLE_TOL) -> bool:
        a = np.asarray(a, dtype=complex)
        scale = max(float(np.linalg.norm(a)), 1e-300)
        return bool(np.linalg.norm(a - self.project(a)) / scale <= tol)

    def closure_residuals(self) -> dict:
        """Residuals of the unital *-algebra axioms; all should be ~0."""
        n = self.matrix_dim
        unit = float(self._residual_norms([eye(n)])[0] / np.sqrt(n))
        adjoint = float(self._residual_norms(dag(self.basis)).max())
        # all products a @ b of one basis element a, projected in one batch
        product = max(float(self._residual_norms(a @ self.basis).max()) for a in self.basis)
        return {"unit": unit, "adjoint": adjoint, "product": product}

    def validate(self, tol: float = 1e-7) -> None:
        res = self.closure_residuals()
        bad = {k: v for k, v in res.items() if v > tol}
        if bad:
            raise ValueError(f"subspace violates algebra axioms: {bad}")

    def is_subalgebra_of(self, other: "MatrixAlgebra", tol: float = ANGLE_TOL) -> bool:
        return subspace_contains(other.basis, self.basis, tol)


def full_algebra(n: int) -> MatrixAlgebra:
    """M_n with the matrix units as basis, E_ij at index i * n + j."""
    return MatrixAlgebra(eye(n * n).reshape(n * n, n, n))


# ---------------------------------------------------------------------------
# Commutants and generated algebras


def _commuting_part(q: np.ndarray, ops) -> np.ndarray:
    """Orthonormal columns spanning the largest subspace of span(q) commuting with every op.

    q holds vectorized matrices X_j as orthonormal columns and the ops, a
    (k, n, n) stack, have unit Frobenius norm.  The constraints X a - a X of
    each op, n x n products over all X_j at once, are folded into the R factor
    of the QR of all constraints stacked, so memory stays at one n^2 x dim q
    block; one nullspace rank decision over every constraint is taken at the
    end.  The constraint rows may list the n^2 entries in any fixed order, so
    each block is flattened as it lies in memory.
    """
    m = q.shape[1]
    mats = unvec(q.T)
    r = np.zeros((0, m), dtype=complex)
    for a in ops:
        rows = mats @ a
        rows -= a @ mats
        r = np.linalg.qr(np.vstack([r, rows.reshape(m, -1).T]), mode="r")
    return q @ nullspace(r)


def _cluster_eigenvalues(evals: np.ndarray, gap: float):
    """Split sorted eigenvalues into clusters separated by more than gap."""
    order = np.argsort(evals)
    groups = [[order[0]]]
    for idx in order[1:]:
        if evals[idx] - evals[groups[-1][-1]] > gap:
            groups.append([idx])
        else:
            groups[-1].append(idx)
    return groups


def _random_hermitian_element(basis, rng) -> np.ndarray:
    # hermitian_part(c b) for complex c = x + iy is x H(b) + y H(ib): real
    # combinations of hermitian parts stay hermitian AND inside the (*-closed)
    # span; a complex re-orthonormalization would break hermiticity
    coeffs = rng.normal(size=(len(basis), 2)) @ np.array([1.0, 1.0j])
    h = hermitian_part(np.tensordot(coeffs, basis, axes=1))
    return h / max(np.linalg.norm(h), 1e-300)


def commutant(ops, dim: int | None = None) -> MatrixAlgebra:
    """Commutant of a set of matrices (adjoints adjoined, so the result is a *-algebra).

    Every X in it commutes with a hermitian element h of the *-closed set's
    span, so X is block-diagonal in the eigenspaces of h (Murota, Kanno,
    Kojima & Kojima, JJIAM 27, 2010).  With a seeded random h one
    commuting-subspace solve starts from those blocks: sum_j m_j^2 unknowns
    for eigenspaces of dimension m_j instead of n^2.  Eigenvalues of the
    unit-norm h closer than 1e-5 are merged: a merge only adds unknowns, and
    the gap keeps the computed eigenspaces within about 1e-16/gap of the true
    ones, far inside the nullspace floor.
    """
    ops = np.asarray(ops, dtype=complex)
    # unit scale so the rank floor is meaningful; numerically-zero operators
    # impose no constraint, and normalizing them would amplify rounding dirt
    if ops.size:
        norms = np.linalg.norm(ops, axis=(1, 2))
        keep = norms > NULLSPACE_RTOL * norms.max()
        ops = ops[keep] / norms[keep, None, None]
    if not len(ops):
        if dim is None:
            raise ValueError("dim required for the commutant of the empty set")
        return full_algebra(dim)
    hermitian = np.max(np.abs(ops - dag(ops)), axis=(1, 2)) <= DEFAULT_TOL
    ops = np.concatenate([ops, dag(ops[~hermitian])])
    n = ops.shape[-1]
    evals, evecs = np.linalg.eigh(_random_hermitian_element(ops, np.random.default_rng(7)))
    # column (j, i) over the index pairs of each eigenspace is vec(v_i v_j†) = conj(v_j) kron v_i
    j, i = np.hstack([np.reshape(np.meshgrid(g, g, indexing="ij"), (2, -1))
                      for g in _cluster_eigenvalues(evals, 1e-5)])
    q = (evecs.conj()[:, None, j] * evecs[None, :, i]).reshape(n * n, -1)
    return MatrixAlgebra(unvec(_commuting_part(q, ops).T, n))


def generated_algebra(ops, dim: int | None = None) -> MatrixAlgebra:
    """Smallest unital *-algebra containing the given matrices.

    The commutant's commutant (von Neumann's bicommutant theorem), read off
    the commutant's Wedderburn blocks: block_decompose certifies
    C = U (direct_sum_j M_nj kron 1_dj) U†, so C' = U (direct_sum_j
    1_nj kron M_dj) U†.  With v_is the conjugator column (i, s) of block j,
    its elements sum_i v_is v_it† / sqrt(n_j) are Frobenius-orthonormal as
    written, and its blocks are the commutant's with n_j and d_j swapped.
    """
    ops = np.asarray(ops, dtype=complex)
    if not len(ops):
        if dim is None:
            raise ValueError("dim required for the algebra generated by nothing")
        return MatrixAlgebra(eye(dim)[None] / np.sqrt(dim))
    n = ops.shape[-1]
    decomp = block_decompose(commutant(ops, n))
    basis = []
    offset = 0
    for nj, dj in decomp.blocks:
        # v[s] holds the columns (i, s), i = 0..n_j-1, of block j
        v = decomp.conjugator[:, offset:offset + nj * dj].reshape(n, nj, dj).transpose(2, 0, 1)
        offset += nj * dj
        elements = v[:, None] @ dag(v)[None, :] / np.sqrt(nj)
        basis.append(elements.reshape(dj * dj, n, n))
    blocks = tuple(sorted(((dj, nj) for nj, dj in decomp.blocks), reverse=True))
    return MatrixAlgebra(np.concatenate(basis), _blocks=blocks)


# ---------------------------------------------------------------------------
# Wedderburn block decomposition


@dataclass(frozen=True)
class BlockDecomposition:
    """Structure {(n_j, d_j)} and a unitary bringing the algebra to block-tensor form.

    conjugator† A conjugator = direct_sum_j (A_j kron 1_{d_j}) for every A in
    the algebra, with blocks ordered as listed.
    """

    blocks: tuple
    conjugator: np.ndarray

    @property
    def matrix_dim(self) -> int:
        return self.conjugator.shape[0]

    def off_block_mass(self, a: np.ndarray) -> float:
        """Largest deviation of U† a U from the block-tensor pattern, over a stack (..., n, n)."""
        t = dag(self.conjugator) @ np.asarray(a, dtype=complex) @ self.conjugator
        worst = 0.0
        offset = 0
        for nj, dj in self.blocks:
            size = nj * dj
            blk = t[..., offset:offset + size, offset:offset + size]
            four = blk.reshape(*t.shape[:-2], nj, dj, nj, dj)
            # factor part = partial trace over the multiplicity index
            aj = np.trace(four, axis1=-3, axis2=-1) / dj
            four -= aj[..., :, None, :, None] * eye(dj)[:, None, :]
            worst = max(worst, float(np.max(np.abs(four))))
            # what is left of t after the diagonal blocks lies outside them
            blk[...] = 0.0
            offset += size
        return max(worst, float(np.max(np.abs(t))))


def _factor_columns(spaces, a):
    """Group eigenspaces into factors and line each factor's eigenspaces up.

    spaces are isometries E_k onto ranges of minimal projections; a is a
    generic element.  E_k† a E_l is zero between factors and a scalar times a
    unitary inside one, so the blocks against the first eigenspace not yet
    placed (zero when of norm at most 1e-6) pick out its factor, and their
    polar factors give the columns (i, s) of its conjugator.  Returns
    (n_j, d_j, columns) per factor, or None when the eigenspaces of one
    factor differ in dimension.
    """
    pieces = []
    while spaces:
        first, *spaces = spaces
        cols, rest = [first], []
        for v in spaces:
            c = dag(first) @ a @ v
            if np.linalg.norm(c) <= 1e-6:
                rest.append(v)
            elif v.shape != first.shape:
                return None
            else:
                w, _, vh = np.linalg.svd(c)
                cols.append(v @ dag(w @ vh))
        spaces = rest
        pieces.append((len(cols), first.shape[1], np.hstack(cols)))
    return pieces


def block_decompose(alg: MatrixAlgebra, *, seed: int = 7) -> BlockDecomposition:
    """Wedderburn decomposition of a unital *-algebra from one generic pair.

    The eigenspaces of a random hermitian element h, clustered at a gap of
    1e-6, are ranges of minimal projections (Murota, Kanno, Kojima & Kojima,
    JJIAM 27, 2010); a second random element groups and aligns them into
    factors (`_factor_columns`).  A draw is kept when the conjugator is
    unitary, every basis element is block-shaped within 1e-8 and
    sum_j n_j^2 = dim: span(alg) then lies in, and has the dimension of,
    U (direct_sum_j M_nj kron 1_dj) U†, so it is that algebra and closed
    under products.  Deterministic for a fixed seed; after 60 failed draws
    the span is taken not to be a unital *-algebra and ValueError is raised.
    """
    n = alg.matrix_dim
    if alg.dim == n * n:
        return BlockDecomposition(blocks=((n, 1),), conjugator=eye(n))
    rng = np.random.default_rng(seed)
    for _ in range(60):
        evals, evecs = np.linalg.eigh(_random_hermitian_element(alg.basis, rng))
        spaces = [evecs[:, g] for g in _cluster_eigenvalues(evals, 1e-6)]
        pieces = _factor_columns(spaces, _random_hermitian_element(alg.basis, rng))
        if pieces is None or sum(nj * nj for nj, _, _ in pieces) != alg.dim:
            continue
        pieces.sort(key=lambda t: (-t[0], -t[1]))
        conj = np.hstack([u for _, _, u in pieces])
        decomp = BlockDecomposition(blocks=tuple((nj, dj) for nj, dj, _ in pieces),
                                    conjugator=conj)
        # slices of 64 basis elements bound the memory of the U† b U stack
        if (np.linalg.norm(dag(conj) @ conj - eye(n)) <= 1e-8
                and all(decomp.off_block_mass(alg.basis[k:k + 64]) <= 1e-8
                        for k in range(0, alg.dim, 64))):
            return decomp
    raise ValueError("block decomposition did not converge; the span may not be a "
                     "unital *-algebra")


# ---------------------------------------------------------------------------
# Decoherence-free subalgebras


def multiplicative_domain(channel: KrausMap) -> MatrixAlgebra:
    """Largest *-subalgebra on which the unital CP map is multiplicative.

    With the Stinespring isometry V = sum_a W_a (x) |a>, A lies in N_Gamma iff
    A (x) 1 commutes with VV† = sum_ab W_a W_b† (x) |a><b| (Choi 1974), that is
    iff A commutes with every W_a W_b† of any Kraus list.  The reduced list keeps
    the pairs few; pairs a <= b suffice, as commutant adjoins W_b W_a†.
    """
    ops = np.asarray(reduce_kraus(channel).kraus_ops)
    a, b = np.triu_indices(len(ops))
    return commutant(ops[a] @ dag(ops[b]), channel.dim)


def _largest_invariant_subspace(apply, q, max_steps: int) -> tuple:
    """Largest subspace of span(q) invariant under a map of unit scale.

    apply maps a stack of operators (m, n, n) to the stack of their images;
    column j of q is vec(X_j).  S_0 = span(q), S_{j+1} = {A in S_j : apply(A)
    in S_j}, one nullspace solve per step, as (columns, steps, reached);
    reached is False when max_steps stops the chain before its fixed point.  A one-dimensional span
    is span{1}, which the maps of both callers keep.
    """
    steps = 0
    while q.shape[1] > 1 and steps < max_steps:
        img = vec(apply(unvec(q.T))).T
        c = nullspace(img - q @ (dag(q) @ img))
        steps += 1
        if c.shape[1] == q.shape[1]:
            return q, steps, True
        q = q @ c
    return q, steps, q.shape[1] == 1


@dataclass(frozen=True)
class DiscreteDFResult:
    algebra: MatrixAlgebra
    k_used: int        # algebra = intersection of the domains of Gamma^k, k <= k_used
    certificate: str   # "exact" | "max-k"


def df_algebra_discrete(channel: KrausMap, max_k: int = 25) -> DiscreteDFResult:
    """Observables evolving reversibly under every iterate of the map.

    The largest Gamma-invariant subspace of the multiplicative domain N_Gamma,
    by the recursion S_0 = N_Gamma, S_{j+1} = {A in S_j : Gamma(A) in S_j}.

    Why it is the decoherence-free algebra.  For a unital CP map, A is in
    N_Gamma iff Gamma(A*A) = Gamma(A)*Gamma(A) and Gamma(AA*) = Gamma(A)Gamma(A)*
    (Choi 1974).  If A is in N_{Gamma^j} and N_{Gamma^{j+1}}, then
    Gamma(Gamma^j(A)* Gamma^j(A)) = Gamma^{j+1}(A*A)
    = Gamma^{j+1}(A)* Gamma^{j+1}(A), and likewise for AA*, so Gamma^j(A) is
    in N_Gamma; conversely A in N_{Gamma^j} with Gamma^j(A) in N_Gamma
    telescopes to A in N_{Gamma^{j+1}}.  Hence the intersection of N_{Gamma^j}
    over j <= k equals {A : Gamma^i(A) in N_Gamma, i < k} = S_{k-1}.  The
    chain S_j decreases, stays constant from its first repeat and repeats
    within dim N_Gamma steps; no faithful state is needed.

    Gamma acts on the basis as one Kraus sum, unscaled: Gamma(1) = 1 and Gamma
    contracts the operator norm, so 1 <= ||Gamma||_2 <= sqrt(n).

    The certificate is "exact" at the fixed point (or when N_Gamma is span{1},
    trivially invariant), and "max-k" when max_k stops the recursion first:
    the result is then the intersection over k <= max_k, a superset of the
    decoherence-free algebra.
    """
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    q = vec(multiplicative_domain(channel).basis).T
    q, steps, reached = _largest_invariant_subspace(channel, q, max_k - 1)
    return DiscreteDFResult(algebra=MatrixAlgebra(unvec(q.T, channel.dim)), k_used=1 + steps,
                            certificate="exact" if reached else "max-k")


@dataclass(frozen=True)
class SemigroupDFResult:
    algebra: MatrixAlgebra
    certificate: str  # always "exact"


def df_algebra_semigroup(
    gen: GKLSGenerator, metric: LiouvilleMetric | None = None
) -> SemigroupDFResult:
    """Observables evolving reversibly under the whole semigroup.

    The dissipation form is sum_k [L_k, x]†[L_k, x], so every decoherence-free
    observable lies in S_0 = {L_k, L_k†}', where the generator acts as
    i[H, .].  The algebra is the largest generator-invariant subspace of S_0,
    the commutant of {delta_H^j(L_k), delta_H^j(L_k†) : j >= 0} (Dhahri,
    Fagnola & Rebolledo, IDAQP 13, 2010), reached within dim S_0 steps: the
    certificate is always "exact".  The recursion applies i[H, .] to operator
    stacks, scaled by the spread of H's spectrum (its exact 2-norm), so no
    n^2 x n^2 matrix is built and the rank decisions depend neither on the
    size of the L_k nor on an energy offset of H.  A metric adds a
    detailed-balance check.
    """
    if metric is not None:
        report = detailed_balance_check(gen, metric)
        if not report.passed:
            raise ValueError(f"detailed balance claimed but fails: {report.residuals}")
    q = vec(commutant(gen.lindblad_ops, gen.dim).basis).T
    # on S_0 the generator is i[H, .], whose 2-norm is the spread of H's spectrum;
    # H less the centre of that spectrum gives the same map, rounded at that scale
    evals = np.linalg.eigvalsh(gen.hamiltonian)
    h = gen.hamiltonian - 0.5 * (evals[0] + evals[-1]) * eye(gen.dim)
    h = h / (np.ptp(evals) or 1.0)
    q, _, _ = _largest_invariant_subspace(lambda x: 1j * (h @ x - x @ h), q, q.shape[1])
    return SemigroupDFResult(algebra=MatrixAlgebra(unvec(q.T, gen.dim)), certificate="exact")


# ---------------------------------------------------------------------------
# Fixed points


@dataclass(frozen=True)
class FixedPointResult:
    basis: np.ndarray  # (d, n, n)
    stationary_state: np.ndarray | None
    faithful: bool
    certified_algebra: bool

    @property
    def dim(self) -> int:
        return len(self.basis)


def fixed_points(channel: KrausMap) -> FixedPointResult:
    """Fixed-point space {A : Gamma(A) = A}, with an algebra certificate.

    A stationary state is extracted from the peripheral spectral projector at
    eigenvalue one applied to the maximally mixed state; when it is faithful
    the fixed-point space is a *-algebra (and then product closure is
    verified numerically).
    """
    n = channel.dim
    s = channel.heisenberg_matrix()
    ident = eye(n * n)
    right = nullspace(s - ident)  # fixed observables
    left = nullspace(dag(s) - ident)  # stationary-state subspace
    basis = unvec(right.T, n)

    sigma = None
    faithful = False
    if left.shape[1] > 0:
        # spectral projector at eigenvalue 1: P = N (M† N)^-1 M† with
        # N = stationary states, M = fixed observables (semisimple eigenvalue)
        try:
            core = np.linalg.solve(dag(right) @ left, dag(right) @ vec(eye(n) / n))
            cand = unvec(left @ core, n)
            cand = hermitian_part(cand)
            tr = np.trace(cand).real
            if abs(tr) > 1e-12:
                cand = cand / tr
                evals = np.linalg.eigvalsh(cand)
                if evals.min() > -1e-10:
                    sigma = cand
                    faithful = bool(evals.min() > 1e-10)
        except np.linalg.LinAlgError:
            sigma = None

    certified = False
    if faithful and len(basis):
        algebra = MatrixAlgebra(basis)
        certified = algebra.closure_residuals()["product"] <= 1e-7
    return FixedPointResult(
        basis=basis, stationary_state=sigma, faithful=faithful, certified_algebra=certified
    )


# ---------------------------------------------------------------------------
# Commutant lower bounds for a map split into unitary and dissipative parts


@dataclass(frozen=True)
class CommutantBounds:
    """Nested commutant lower bounds for the DF algebras of U * Gamma_D.

    of_ops        = {W_a, W_a†}'            (inside of_pair_products)
    of_pair_products = {W_a W_b†}'          (equal to the multiplicative domain)
    of_all_products  = {W_a W_b, W_a W_b†, W_a† W_b†}'  (inside the global DF
                      algebra; only defined when the unitary part commutes
                      with the dissipative one)
    """

    of_ops: MatrixAlgebra
    of_pair_products: MatrixAlgebra
    of_all_products: MatrixAlgebra | None
    unitary_commutes: bool


def commutant_bounds(unitary: np.ndarray, dissipative: KrausMap) -> CommutantBounds:
    ops = np.asarray(dissipative.kraus_ops)
    n = dissipative.dim
    w1 = commutant(ops, n)
    w2 = multiplicative_domain(dissipative)

    u = np.asarray(unitary, dtype=complex)
    commutes = commutator_norm([(1.0, dag(u), u)], dissipative.terms()) <= 1e-8
    w3 = None
    if commutes:
        a, b = ops[:, None], ops[None]
        w3 = commutant(np.concatenate([a @ b, a @ dag(b), dag(a) @ dag(b)]).reshape(-1, n, n), n)
    return CommutantBounds(
        of_ops=w1, of_pair_products=w2, of_all_products=w3, unitary_commutes=commutes
    )


# ---------------------------------------------------------------------------
# Detailed-balance channels and the relaxation profile


@dataclass(frozen=True)
class DetailedBalanceChannel:
    """Channel Gamma = U-conjugation composed with a sigma-hermitian CP factor.

    Validated on construction: the two factors commute, the dissipative
    factor is hermitian in the sigma inner product, sigma is stationary and
    invariant under the unitary part.
    """

    unitary: np.ndarray
    dissipative: KrausMap
    metric: LiouvilleMetric

    def __post_init__(self):
        tol = 1e-7
        u = np.asarray(self.unitary, dtype=complex)
        n = self.dissipative.dim
        if u.shape != (n, n):
            raise ValueError("unitary dimension does not match the dissipative part")
        if np.linalg.norm(dag(u) @ u - eye(n)) > tol:
            raise ValueError("unitary part is not unitary within tolerance")
        s_d = self.dissipative.terms()
        if commutator_norm([(1.0, dag(u), u)], s_d) > tol:
            raise ValueError("unitary and dissipative parts do not commute")
        if self.metric.hermiticity_residual(s_d) > tol:
            raise ValueError("dissipative part is not hermitian in the metric")
        sigma = self.metric.sigma
        if np.max(np.abs(u @ sigma - sigma @ u)) > tol:
            raise ValueError("metric state is not invariant under the unitary part")
        # the dual of X -> U† Gamma_D(X) U is rho -> Gamma_D*(U rho U†)
        if np.max(np.abs(self.dissipative.apply_dual(u @ sigma @ dag(u)) - sigma)) > tol:
            raise ValueError("metric state is not stationary for the channel")
        object.__setattr__(self, "unitary", u)

    @property
    def dim(self) -> int:
        return self.dissipative.dim

    def channel(self) -> KrausMap:
        """The Kraus list {W_a U} of Gamma(A) = U† Gamma_D(A) U."""
        return compose(unitary_channel(self.unitary), self.dissipative)


def detailed_balance_channel_from_gibbs(gibbs, t: float = 1.0) -> DetailedBalanceChannel:
    """One time step exp(t L) of a Gibbs generator, split as U * Gamma_D."""
    from scipy.linalg import expm  # the dissipator is not normal

    from .channels import channel_from_superop

    if t <= 0:
        raise ValueError("time step must be positive")
    evals, evecs = np.linalg.eigh(gibbs.hamiltonian)
    u = (evecs * np.exp(-1j * t * evals)) @ dag(evecs)
    gamma_d = channel_from_superop(expm(t * gibbs.generator.dissipator_matrix()), tol=1e-7)
    return DetailedBalanceChannel(
        unitary=u, dissipative=gamma_d, metric=gibbs.metric()
    )


def df_projector_basis(db: DetailedBalanceChannel):
    """Metric-orthonormal basis of the fixed space of the dissipative factor.

    The kernel columns are independent and sigma is faithful, so their sigma
    Gram matrix is positive definite; its Cholesky factor L makes the columns
    null @ L^-† orthonormal in the sigma inner product.
    """
    n = db.dim
    null = nullspace(db.dissipative.heisenberg_matrix() - eye(n * n))
    chol = np.linalg.cholesky(dag(null) @ db.metric.gram_superop() @ null)
    cols = dag(np.linalg.solve(chol, dag(null)))
    return list(unvec(cols.T, n))


def df_project(db: DetailedBalanceChannel, a: np.ndarray, basis=None) -> np.ndarray:
    basis = df_projector_basis(db) if basis is None else basis
    out = np.zeros_like(np.asarray(a, dtype=complex))
    for b in basis:
        out += b * db.metric.inner(b, a)
    return out


@dataclass(frozen=True)
class RelaxationTrace:
    errors: np.ndarray            # ||Gamma^k(A) - U^k(P A)||_sigma for k = 0..k_max
    projected: np.ndarray         # P A
    dissipative_gap: float        # second largest singular value of Gamma_D in the metric
    rate_estimate: float | None   # geometric-fit decay ratio, None when the trace is ~0


def relaxation_trace(db: DetailedBalanceChannel, a: np.ndarray, k_max: int = 20) -> RelaxationTrace:
    """Distance of the iterated map from the reversibly-rotated DF projection.

    The sequence is non-increasing and decays at worst geometrically with the
    second-largest singular value of the dissipative factor in the metric.
    """
    a = np.asarray(a, dtype=complex)
    basis = df_projector_basis(db)
    pa = df_project(db, a, basis)
    u = db.unitary

    errors = []
    current = a.copy()
    rotated = pa.copy()
    for _ in range(k_max + 1):
        errors.append(db.metric.norm(current - rotated))
        current = dag(u) @ db.dissipative(current) @ u
        rotated = dag(u) @ rotated @ u
    errors = np.array(errors)

    # spectrum of Gamma_D as a metric-hermitian operator: real, in [-1, 1]
    evals = np.linalg.eigvals(db.dissipative.heisenberg_matrix())
    mags = np.sort(np.abs(evals))[::-1]
    gap = float(mags[len(basis)]) if len(mags) > len(basis) else 0.0

    rate = None
    good = errors > 1e-13
    if np.count_nonzero(good) >= 3:
        ks = np.nonzero(good)[0]
        coeffs = np.polyfit(ks, np.log(errors[ks]), 1)
        rate = float(np.exp(coeffs[0]))
    return RelaxationTrace(
        errors=errors, projected=pa, dissipative_gap=gap, rate_estimate=rate
    )
