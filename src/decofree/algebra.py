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
from .lindblad import GKLSGenerator
from .operators import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    FAITHFUL_TOL,
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
# complex entries in one slab of commutant constraint rows (64 MiB)
_SLAB_ENTRIES = 1 << 22


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


def _outside(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v - Q(Q† v): the part of each column of v outside the span of Q's orthonormal columns."""
    return v - q @ (dag(q) @ v)


def subspace_contains(big, small, tol: float = ANGLE_TOL) -> bool:
    """True when span(small) is inside span(big) up to principal angle tol.

    For orthonormal bases ||Q_s - Q_b Q_b† Q_s||_2 is the sine of the largest
    principal angle of span(small) against span(big).
    """
    if not len(small):
        return True
    if not len(big):
        return False
    return bool(np.linalg.norm(_outside(vec(big).T, vec(small).T), 2) <= tol)


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

    @property
    def dim(self) -> int:
        """Dimension as a complex linear space."""
        return len(self.basis)

    def _residual_norms(self, mats) -> np.ndarray:
        """Frobenius distances of the matrices from the span."""
        return np.linalg.norm(_outside(vec(self.basis).T, vec(mats).T), axis=0)

    def contains(self, a: np.ndarray) -> bool:
        a = np.asarray(a, dtype=complex)
        scale = max(float(np.linalg.norm(a)), 1e-300)
        return bool(self._residual_norms([a])[0] / scale <= ANGLE_TOL)

    def closure_residuals(self) -> dict:
        """Residuals of the unital *-algebra axioms; all should be ~0."""
        n = self.basis.shape[-1]
        unit = float(self._residual_norms([eye(n)])[0] / np.sqrt(n))
        adjoint = float(self._residual_norms(dag(self.basis)).max())
        # x @ b for one seeded x = sum_a c_a a, c_a standard complex normal, and every b:
        # E ||(x b)_perp||^2 = 2 sum_a ||(a b)_perp||^2, at least the worst pair's square
        coeffs = np.random.default_rng(DEFAULT_SEED).normal(size=(self.dim, 2)) @ [1.0, 1.0j]
        x = np.tensordot(coeffs, self.basis, axes=1)
        product = float(self._residual_norms(x @ self.basis).max())
        return {"unit": unit, "adjoint": adjoint, "product": product}

    def validate(self) -> None:
        res = self.closure_residuals()
        bad = {k: v for k, v in res.items() if v > 1e-7}
        if bad:
            raise ValueError(f"subspace violates algebra axioms: {bad}")

    def is_subalgebra_of(self, other: "MatrixAlgebra", tol: float = ANGLE_TOL) -> bool:
        return subspace_contains(other.basis, self.basis, tol)


def full_algebra(n: int) -> MatrixAlgebra:
    """M_n with the matrix units as basis, E_ij at index i * n + j."""
    return MatrixAlgebra(eye(n * n).reshape(n * n, n, n))


# ---------------------------------------------------------------------------
# Commutants and generated algebras


def _commuting_part(ops, i, j) -> np.ndarray:
    """Orthonormal coefficient columns x of the X = sum_k x_k E_(i_k j_k) commuting with every op.

    ops is a (k, n, n) stack of unit Frobenius norm, and entry (p, q) of
    X a - a X has coefficient delta_pi a_jq - a_pi delta_qj on unknown (i, j).
    Each op's rows are built a slab of output rows p at a time, at most
    _SLAB_ENTRIES entries, and folded into the R factor of the QR of all
    constraints stacked, so memory stays at one slab and an M x M factor for
    M unknowns; one nullspace rank decision is taken at the end.
    """
    n, m = ops.shape[-1], len(i)
    step = max(1, _SLAB_ENTRIES // (n * m))
    u = np.eye(n)
    r = np.zeros((0, m), dtype=complex)
    for a in ops:
        a_j = a[j].T
        for p in range(0, n, step):
            rows = u[p:p + step, None, i] * a_j - a[p:p + step, None, i] * u[:, j]
            r = np.linalg.qr(np.vstack([r, rows.reshape(-1, m)]), mode="r")
    return nullspace(r)


def _cluster_eigenvalues(evals: np.ndarray, gap: float):
    """Split sorted eigenvalues into index ranges separated by more than gap."""
    return np.split(np.arange(evals.size), np.flatnonzero(np.diff(evals) > gap) + 1)


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
    span, so V† X V is block-diagonal in the eigenspaces of h, V its
    eigenvectors (Murota, Kanno, Kojima & Kojima, JJIAM 27, 2010).  With a
    seeded random h one commuting-subspace solve on V† a V takes the matrix
    units of those blocks as unknowns, sum_j m_j^2 for eigenspaces of
    dimension m_j instead of n^2; a solution B is V B V† in the commutant, by
    a unitary change of basis that keeps the constraints' singular values.
    Eigenvalues of the unit-norm h closer than 1e-5 are merged: a merge only
    adds unknowns, and the gap keeps the computed eigenspaces within about
    1e-16/gap of the true ones, far inside the nullspace floor.
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
    evals, v = np.linalg.eigh(_random_hermitian_element(ops, np.random.default_rng(DEFAULT_SEED)))
    sizes = list(map(len, _cluster_eigenvalues(evals, 1e-5)))
    label = np.repeat(np.arange(len(sizes)), sizes)
    j, i = np.nonzero(label[:, None] == label)  # index pairs within one eigenspace
    x = _commuting_part(dag(v) @ ops @ v, i, j)
    blocks = np.zeros((x.shape[1], *v.shape), dtype=complex)
    blocks[:, i, j] = x.T
    return MatrixAlgebra(v @ blocks @ dag(v))


def generated_algebra(ops) -> MatrixAlgebra:
    """Smallest unital *-algebra containing the given matrices.

    The commutant's commutant (von Neumann's bicommutant theorem), read off
    the commutant's Wedderburn blocks: block_decompose certifies
    C = U (direct_sum_j M_nj kron 1_dj) U†, so C' = U (direct_sum_j
    1_nj kron M_dj) U†.  With v_is the conjugator column (i, s) of block j,
    its elements sum_i v_is v_it† / sqrt(n_j) are Frobenius-orthonormal as
    written, and its blocks are the commutant's with n_j and d_j swapped.
    An empty set raises ValueError.
    """
    ops = np.asarray(ops, dtype=complex)
    if not len(ops):
        raise ValueError("generated_algebra needs at least one operator")
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


def block_decompose(alg: MatrixAlgebra) -> BlockDecomposition:
    """Wedderburn decomposition of a unital *-algebra from one generic pair.

    The eigenspaces of a random hermitian element h, clustered at a gap of
    1e-6, are ranges of minimal projections (Murota, Kanno, Kojima & Kojima,
    JJIAM 27, 2010); a second random element groups and aligns them into
    factors (`_factor_columns`).  A draw is kept when the conjugator is
    unitary, every basis element is block-shaped within 1e-8 and
    sum_j n_j^2 = dim: span(alg) then lies in, and has the dimension of,
    U (direct_sum_j M_nj kron 1_dj) U†, so it is that algebra and closed
    under products.  The draws come from DEFAULT_SEED; after 60 failed draws
    the span is taken not to be a unital *-algebra and ValueError is raised.
    """
    n = alg.basis.shape[-1]
    if alg.dim == n * n:
        return BlockDecomposition(blocks=((n, 1),), conjugator=eye(n))
    rng = np.random.default_rng(DEFAULT_SEED)
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


def _largest_invariant_subspace(apply, q) -> tuple:
    """Largest subspace of span(q) invariant under a map of unit scale, as (columns, steps).

    apply maps a stack of operators (m, n, n) to the stack of their images;
    column j of q is vec(X_j).  S_0 = span(q), S_{j+1} = {A in S_j : apply(A)
    in S_j}, one nullspace solve per step.  Each step either finds S_j
    invariant or drops a dimension, so the chain ends within dim S_0 steps.  A
    one-dimensional span is span{1}, which the maps of both callers keep.  The
    map is applied once, to S_0: as it is linear, the images of S_{j+1} = S_j c
    are those of S_j times c.
    """
    steps = 0
    img = vec(apply(unvec(q.T))).T
    while q.shape[1] > 1:
        c = nullspace(_outside(q, img))
        steps += 1
        if c.shape[1] == q.shape[1]:
            break
        q, img = q @ c, img @ c
    return q, steps


@dataclass(frozen=True)
class DiscreteDFResult:
    algebra: MatrixAlgebra
    k_used: int  # algebra = intersection of the domains of Gamma^k, k <= k_used


def df_algebra_discrete(channel: KrausMap) -> DiscreteDFResult:
    """Observables evolving reversibly under every iterate of the map.

    The largest Gamma-invariant subspace of the multiplicative domain N_Gamma,
    by the recursion S_0 = N_Gamma, S_{j+1} = {A in S_j : Gamma(A) in S_j},
    run to its fixed point.

    Why it is the decoherence-free algebra.  For a unital CP map, A is in
    N_Gamma iff Gamma(A*A) = Gamma(A)*Gamma(A) and Gamma(AA*) = Gamma(A)Gamma(A)*
    (Choi 1974).  If A is in N_{Gamma^j} and N_{Gamma^{j+1}}, then
    Gamma(Gamma^j(A)* Gamma^j(A)) = Gamma^{j+1}(A*A)
    = Gamma^{j+1}(A)* Gamma^{j+1}(A), and likewise for AA*, so Gamma^j(A) is
    in N_Gamma; conversely A in N_{Gamma^j} with Gamma^j(A) in N_Gamma
    telescopes to A in N_{Gamma^{j+1}}.  Hence the intersection of N_{Gamma^j}
    over j <= k equals {A : Gamma^i(A) in N_Gamma, i < k} = S_{k-1}.  The
    chain S_j decreases, stays constant from its first repeat and repeats
    within dim N_Gamma steps; no faithful state is needed.  k_used is one
    more than the number of steps taken.

    Gamma acts on the basis as one Kraus sum, unscaled: Gamma(1) = 1 and Gamma
    contracts the operator norm, so 1 <= ||Gamma||_2 <= sqrt(n).
    """
    q = vec(multiplicative_domain(channel).basis).T
    q, steps = _largest_invariant_subspace(channel, q)
    return DiscreteDFResult(algebra=MatrixAlgebra(unvec(q.T, channel.dim)), k_used=1 + steps)


def df_algebra_semigroup(gen: GKLSGenerator) -> MatrixAlgebra:
    """Observables evolving reversibly under the whole semigroup.

    The dissipation form is sum_k [L_k, x]†[L_k, x], so every decoherence-free
    observable lies in S_0 = {L_k, L_k†}', where the generator acts as
    i[H, .].  The algebra is the largest generator-invariant subspace of S_0,
    the commutant of {delta_H^j(L_k), delta_H^j(L_k†) : j >= 0} (Dhahri,
    Fagnola & Rebolledo, IDAQP 13, 2010), reached within dim S_0 steps.  The
    recursion applies i[H, .] to operator stacks, scaled by the spread of H's
    spectrum (its exact 2-norm), so no n^2 x n^2 matrix is built and the rank
    decisions depend neither on the size of the L_k nor on an energy offset
    of H.  No hypothesis on the generator, such as detailed balance, is needed.
    """
    q = vec(commutant(gen.lindblad_ops, gen.dim).basis).T
    # on S_0 the generator is i[H, .], whose 2-norm is the spread of H's spectrum;
    # H less the centre of that spectrum gives the same map, rounded at that scale
    evals = np.linalg.eigvalsh(gen.hamiltonian)
    h = gen.hamiltonian - 0.5 * (evals[0] + evals[-1]) * eye(gen.dim)
    h = h / (np.ptp(evals) or 1.0)
    q, _ = _largest_invariant_subspace(lambda x: 1j * (h @ x - x @ h), q)
    return MatrixAlgebra(unvec(q.T, gen.dim))


# ---------------------------------------------------------------------------
# Fixed points


@dataclass(frozen=True)
class FixedPointResult:
    basis: np.ndarray  # (d, n, n)
    stationary_state: np.ndarray | None
    faithful: bool

    @property
    def dim(self) -> int:
        return len(self.basis)


def fixed_points(channel: KrausMap) -> FixedPointResult:
    """Fixed-point space {A : Gamma(A) = A} and a stationary state.

    One SVD of S - 1 (S the Heisenberg matrix) and one rank cut give both kernels: the
    right singular vectors span the fixed observables, the left ones the stationary
    states (the kernel of S† - 1).  A stationary state is extracted from the peripheral
    spectral projector at eigenvalue one applied to the maximally mixed state; when it
    is faithful the fixed-point space is a *-algebra.
    """
    n = channel.dim
    u, sv, vh = np.linalg.svd(channel.heisenberg_matrix() - eye(n * n))
    rank = _rank(sv)
    fixed, left = vh[rank:], u[:, rank:]  # M† (rows vec(A)†, A fixed) and N (states)
    basis = unvec(fixed.conj(), n)

    sigma, faithful = None, False
    if left.shape[1] > 0:
        # spectral projector at eigenvalue 1: P = N (M† N)^-1 M† with
        # N = stationary states, M = fixed observables (semisimple eigenvalue)
        try:
            core = np.linalg.solve(fixed @ left, fixed @ vec(eye(n) / n))
            cand = hermitian_part(unvec(left @ core, n))
            tr = np.trace(cand).real
            if abs(tr) > 1e-12:
                cand = cand / tr
                evals = np.linalg.eigvalsh(cand)
                if evals.min() > -1e-10:
                    sigma = cand
                    faithful = bool(evals.min() > FAITHFUL_TOL)
        except np.linalg.LinAlgError:
            sigma = None

    return FixedPointResult(basis=basis, stationary_state=sigma, faithful=faithful)


# ---------------------------------------------------------------------------
# Commutant lower bounds for a map split into unitary and dissipative parts


@dataclass(frozen=True)
class CommutantBounds:
    """Nested commutant lower bounds for the DF algebras of U * Gamma_D.

    of_ops        = {W_a, W_a†}'            (inside of_pair_products)
    of_pair_products = {W_a W_b†}'          (equal to the multiplicative domain)
    of_all_products  = {W_a W_b, W_a W_b†}' (inside the global DF algebra; only
                      defined when the unitary part commutes with the
                      dissipative one; the commutant adjoins W_a† W_b† = (W_b W_a)†)
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
        w3 = commutant(np.concatenate([a @ b, a @ dag(b)]).reshape(-1, n, n), n)
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

    def channel(self) -> KrausMap:
        """The Kraus list {W_a U} of Gamma(A) = U† Gamma_D(A) U."""
        return compose(unitary_channel(self.unitary), self.dissipative)


def detailed_balance_channel_from_gibbs(gibbs, t: float = 1.0) -> DetailedBalanceChannel:
    """One time step exp(t L) of a Gibbs generator, split as U * Gamma_D."""
    from scipy.linalg import expm  # the dissipator is not normal

    from .channels import channel_from_superop

    if t <= 0:
        raise ValueError("time step must be positive")
    evals, evecs = np.linalg.eigh(gibbs.generator.hamiltonian)
    u = (evecs * np.exp(-1j * t * evals)) @ dag(evecs)
    gamma_d = channel_from_superop(expm(t * gibbs.generator.dissipator_matrix()), tol=1e-7)
    return DetailedBalanceChannel(
        unitary=u, dissipative=gamma_d, metric=gibbs.metric()
    )


def df_projector_basis(db: DetailedBalanceChannel):
    """Metric-orthonormal basis of the fixed space of the dissipative factor.

    The fixed-point basis is independent and sigma faithful, so the Gram matrix
    G_ab = <A_a, A_b>_sigma = vec(A_a)† vec(A_b sigma) is positive definite; with its
    Cholesky factor L, the rows conj(L^-1) vec(A) are sigma-orthonormal.
    """
    basis = fixed_points(db.dissipative).basis
    rows = vec(basis)
    chol = np.linalg.cholesky(rows.conj() @ vec(basis @ db.metric.sigma).T)
    return list(unvec(np.linalg.solve(chol.conj(), rows)))


def df_project(db: DetailedBalanceChannel, a: np.ndarray, basis) -> np.ndarray:
    out = np.zeros_like(np.asarray(a, dtype=complex))
    for b in basis:
        out += b * db.metric.inner(b, a)
    return out


@dataclass(frozen=True)
class RelaxationTrace:
    errors: np.ndarray            # ||Gamma^k(A) - U^k(P A)||_sigma for k = 0..k_max
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
    return RelaxationTrace(errors=errors, dissipative_gap=gap, rate_estimate=rate)
