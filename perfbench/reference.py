"""Independent reference computations for the benchmark's inputs and checks.

Everything here is plain numpy/scipy/math and never imports the package
under test: the models the workloads feed to the CLI are built here, and the
closed forms and brute-force residuals the checks compare against are
computed here.

Conventions follow the package's documented ones: column-stacking
vectorization, Heisenberg channels Gamma(A) = sum W† A W, ``sm = |0><1|``,
and the lexicographic tensor basis with site 0 most significant.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
from scipy.linalg import expm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SM = np.array([[0, 1], [0, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# JSON encoding of the CLI file formats


def enc_matrix(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]),
            "rows": [[[float(z.real), float(z.imag)] for z in row] for row in m]}


def enc_vector(v) -> dict:
    v = np.asarray(v, dtype=complex).ravel()
    return {"dim": int(v.size), "entries": [[float(z.real), float(z.imag)] for z in v]}


def dec_matrix(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj["rows"]])


# ---------------------------------------------------------------------------
# Small linear-algebra helpers


def herm(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().T)


def random_hermitian(n: int, rng, scale: float = 1.0) -> np.ndarray:
    return scale * herm(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def random_unit_vector(n: int, rng) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def vec(a) -> np.ndarray:
    return np.asarray(a).T.ravel()


def orthonormal_span(mats, rtol: float = 1e-9) -> np.ndarray:
    """Orthonormal columns spanning the vectorized matrices."""
    cols = np.stack([vec(m) for m in mats], axis=1)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return u[:, :0]
    return u[:, s > rtol * s[0]]


def span_residual(q: np.ndarray, mats) -> float:
    """Largest distance of the given matrices from span(q), relative to
    max(norm, 1) so that numerically-zero products count as absolute."""
    worst = 0.0
    for m in mats:
        v = vec(m)
        scale = max(float(np.linalg.norm(v)), 1.0)
        worst = max(worst, float(np.linalg.norm(v - q @ (q.conj().T @ v))) / scale)
    return worst


def nullity(mat: np.ndarray, rtol: float = 1e-9) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    return mat.shape[1] - int(np.sum(s > rtol * max(s[0], 1.0)))


# ---------------------------------------------------------------------------
# Tensor products, permutations, collective operators


def kron_all(factors) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def site_op(op, site: int, n_sites: int) -> np.ndarray:
    d = op.shape[0]
    return kron_all([op if k == site else np.eye(d) for k in range(n_sites)])


def collective(op, n_sites: int) -> np.ndarray:
    return sum(site_op(op, k, n_sites) for k in range(n_sites))


def permutation_matrix(perm, d: int = 2) -> np.ndarray:
    """R with R (v_0 ⊗ ... ⊗ v_{N-1}) = v_{perm[0]} ⊗ ... ⊗ v_{perm[N-1]}."""
    n_sites = len(perm)
    total = d ** n_sites
    r = np.zeros((total, total), dtype=complex)
    for idx in range(total):
        digits = np.unravel_index(idx, (d,) * n_sites)
        new = tuple(digits[perm[i]] for i in range(n_sites))
        r[np.ravel_multi_index(new, (d,) * n_sites), idx] = 1.0
    return r


def all_permutation_matrices(n_sites: int, d: int = 2):
    return [permutation_matrix(p, d) for p in permutations(range(n_sites))]


def adjacent_transpositions(n_sites: int, d: int = 2):
    out = []
    for i in range(n_sites - 1):
        p = list(range(n_sites))
        p[i], p[i + 1] = p[i + 1], p[i]
        out.append(permutation_matrix(p, d))
    return out


def collective_spin(n_sites: int):
    return [collective(0.5 * p, n_sites) for p in (SX, SY, SZ)]


# ---------------------------------------------------------------------------
# Closed forms


def schur_weyl_blocks(n_sites: int, algebra: str) -> list:
    """Wedderburn blocks (n_j, d_j) of the S_N or su(2) algebra on N qubits.

    Irreps lambda = (N-k, k): S_N dimension C(N,k) - C(N,k-1), spin
    N/2 - k with 2j+1 = N - 2k + 1.  The S_N algebra is the sum of full
    matrix algebras of the S_N irreps with the su(2) dimensions as
    multiplicities, and vice versa.
    """
    out = []
    for k in range(n_sites // 2 + 1):
        f = math.comb(n_sites, k) - (math.comb(n_sites, k - 1) if k else 0)
        spin_dim = n_sites - 2 * k + 1
        out.append((f, spin_dim) if algebra == "S_N" else (spin_dim, f))
    return sorted(out, key=lambda t: (-t[0], -t[1]))


def collective_dephasing_blocks(n_sites: int) -> list:
    """Commutant of J_z: one factor per J_z eigenspace, of size C(N, k)."""
    return sorted(((math.comb(n_sites, k), 1) for k in range(n_sites + 1)),
                  key=lambda t: (-t[0], -t[1]))


def blocks_dimension(blocks) -> int:
    return sum(nj * nj for nj, _ in blocks)


def gaussian_dephasing_epsilon(amplitude: float, width: float, tau: float) -> float:
    """Born error of |+> under a constant sz coupling to a gaussian bath.

    With C(t) = A w sqrt(2 pi) exp(-w^2 t^2 / 2) and Var(sz) = 1,
    eps = int_{-2tau}^{2tau} (2tau - |t|) C(t) dt in closed form.
    """
    a = 0.5 * width ** 2
    big_t = 2.0 * tau
    inner = (big_t * math.sqrt(math.pi) / (2.0 * math.sqrt(a)) * math.erf(math.sqrt(a) * big_t)
             - (1.0 - math.exp(-a * big_t ** 2)) / (2.0 * a))
    return amplitude * width * math.sqrt(2.0 * math.pi) * 2.0 * inner


# ---------------------------------------------------------------------------
# Channels and generators


def heisenberg_superop(kraus) -> np.ndarray:
    """Matrix of A -> sum W† A W on column-stacked operators."""
    return sum(np.kron(w.T, w.conj().T) for w in kraus)


def lindblad_schrodinger(h, lindblad_ops) -> np.ndarray:
    """Matrix of rho -> -i[H, rho] + sum V rho V† - 1/2 {V†V, rho}."""
    n = h.shape[0]
    one = np.eye(n)
    out = -1j * (np.kron(one, h) - np.kron(h.T, one))
    for v in lindblad_ops:
        vv = v.conj().T @ v
        out += np.kron(v.conj(), v) - 0.5 * (np.kron(one, vv) + np.kron(vv.T, one))
    return out


def kraus_from_schrodinger(s: np.ndarray, cut: float = 1e-12) -> list:
    """Kraus operators of a CP map from its Schrodinger superoperator via Choi."""
    n = int(round(math.sqrt(s.shape[0])))
    choi = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            image = (s @ vec(e)).reshape(n, n).T
            choi += np.kron(e, image)
    evals, evecs = np.linalg.eigh(herm(choi))
    top = evals.max()
    return [math.sqrt(lam) * v.reshape(n, n).T
            for lam, v in zip(evals, evecs.T) if lam > cut * top]


def superradiance_model(n_sites: int, omega: float = 1.0, gamma: float = 1.0):
    return 0.5 * omega * collective(SZ, n_sites), [math.sqrt(gamma) * collective(SM, n_sites)]


def superradiance_channel(n_sites: int, t: float = 1.0) -> list:
    """Kraus operators of exp(t L) for collective decay with omega = gamma = 1."""
    h, ops = superradiance_model(n_sites)
    return kraus_from_schrodinger(expm(t * lindblad_schrodinger(h, ops)))


def dark_state(n_sites: int, rng) -> np.ndarray:
    """Random unit vector killed by the collective sm with one excitation flipped.

    In the sector with exactly one site in |1>, sum_m sm^(m) maps every basis
    state to |0...0> with coefficient 1, so the dark vectors are those whose
    coefficients sum to zero; they are eigenvectors of the collective sz.
    """
    total = 2 ** n_sites
    idx = [1 << k for k in range(n_sites)]
    c = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
    c -= c.mean()
    v = np.zeros(total, dtype=complex)
    v[idx] = c / np.linalg.norm(c)
    return v


def multiplicativity_residual(kraus, basis, k_max: int) -> float:
    """max over k <= k_max and basis pairs of |G^k(A†B) - G^k(A)† G^k(B)|."""
    n = kraus[0].shape[0]
    g = heisenberg_superop(kraus)
    mats = np.stack(basis)
    prods = np.einsum("iba,jbc->ijac", mats.conj(), mats).reshape(-1, n, n)

    def cols(ms):  # column-stacked vectors as the columns of one matrix
        return ms.transpose(0, 2, 1).reshape(len(ms), n * n).T

    def unstack(c):
        return c.T.reshape(-1, n, n).transpose(0, 2, 1)

    a, ab = cols(mats), cols(prods)
    worst = 0.0
    for _ in range(k_max):
        a, ab = g @ a, g @ ab
        img = unstack(a)
        expect = np.einsum("iba,jbc->ijac", img.conj(), img).reshape(-1, n, n)
        worst = max(worst, float(np.max(np.abs(unstack(ab) - expect))))
    return worst


def algebra_closure(basis) -> dict:
    """Residuals of unit, adjoint and product closure of span(basis)."""
    n = basis[0].shape[0]
    q = orthonormal_span(basis)
    return {
        "rank": q.shape[1],
        "unit": span_residual(q, [np.eye(n)]),
        "adjoint": span_residual(q, [b.conj().T for b in basis]),
        "product": span_residual(q, [a @ b for a in basis for b in basis]),
    }


def contains(basis, mats) -> float:
    return span_residual(orthonormal_span(basis), mats)
