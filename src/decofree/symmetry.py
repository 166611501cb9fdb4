"""Permutation representations, collective operators and invariance checks.

N identical d-level systems live on the lexicographic tensor-product basis of
(C^d)^(x N).  Permutations act by shuffling tensor factors; collective
operators are sums of one identical single-site operator over all sites.
Groups are handled through finite generator lists (adjacent transpositions
for S_N, the three collective spin components for the su(2) action):
invariance under the generators implies invariance under everything they
generate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import MatrixAlgebra, commutant, generated_algebra
from .lindblad import GKLSGenerator
from .operators import DEFAULT_TOL, dag, eye, sm, superop_norm, sx, sy, sz, tensor_product

SIZE_CAP = 64  # largest product dimension d**N handled


def _check_size(d: int, n_sites: int) -> int:
    # d >= 2 passes the cap from n_sites = SIZE_CAP.bit_length() on, so a larger
    # n_sites is refused before d**n_sites, whose digits grow with it, is formed
    if n_sites < 1 or d > 1 and n_sites >= SIZE_CAP.bit_length() or d ** n_sites > SIZE_CAP:
        raise ValueError(f"need n_sites >= 1 and {d}**{n_sites} within the size cap {SIZE_CAP}")
    return d ** n_sites


def permutation_matrix(perm, d: int) -> np.ndarray:
    """Unitary shuffling tensor factors: site i of the output is site perm[i]."""
    perm = list(perm)
    shape = (d,) * len(perm)
    total = d ** len(perm)
    digits = np.indices(shape).reshape(len(perm), total)  # digits[i] = basis label of site i
    r = np.zeros((total, total), dtype=complex)
    r[np.ravel_multi_index(digits[perm], shape), np.arange(total)] = 1.0
    return r


@dataclass(frozen=True)
class PermutationRep:
    """S_N on (C^d)^(x N), generated by adjacent transpositions."""

    n_sites: int
    site_dim: int
    generators: tuple  # R((i, i+1)) for i = 0 .. N-2

    @property
    def dim(self) -> int:
        return self.site_dim ** self.n_sites

    def group_algebra(self) -> MatrixAlgebra:
        return generated_algebra(list(self.generators))


def build_permutation_rep(n_sites: int, site_dim: int = 2) -> PermutationRep:
    if n_sites < 1 or site_dim < 2:
        raise ValueError("need n_sites >= 1 and site_dim >= 2")
    _check_size(site_dim, n_sites)
    gens = []
    for i in range(n_sites - 1):
        perm = list(range(n_sites))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(permutation_matrix(perm, site_dim))
    if not gens:  # N = 1: trivial group
        gens.append(eye(site_dim))
    return PermutationRep(n_sites=n_sites, site_dim=site_dim, generators=tuple(gens))


def embed_at_site(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """op on one site, identity elsewhere."""
    op = np.asarray(op, dtype=complex)
    d = op.shape[0]
    factors = [eye(d)] * n_sites
    factors[site] = op
    return tensor_product(*factors)


def collective_op(op: np.ndarray, n_sites: int) -> np.ndarray:
    """sum_m op^(m) over all sites."""
    op = np.asarray(op, dtype=complex)
    d = op.shape[0]
    total = d ** n_sites
    out = np.zeros((total, total), dtype=complex)
    for m in range(n_sites):
        out += embed_at_site(op, m, n_sites)
    return out


def collective_spin(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collective (J_x, J_y, J_z) for N qubits."""
    return tuple(collective_op(0.5 * p, n_sites) for p in (sx, sy, sz))


# ---------------------------------------------------------------------------
# Model generators


def build_private_bath_generator(
    n_sites: int, hamiltonian: np.ndarray, single_site_generator: GKLSGenerator
) -> GKLSGenerator:
    """One identical copy of a single-site generator coupled to each site.

    Globally permutation invariant by construction, but in general not
    locally invariant: individual embedded Lindblad operators move under
    site swaps.
    """
    d = single_site_generator.dim
    total = _check_size(d, n_sites)
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != (total, total):
        raise ValueError("hamiltonian dimension does not match the product space")
    rep = build_permutation_rep(n_sites, d)
    res = max(float(np.max(np.abs(dag(r) @ h @ r - h))) for r in rep.generators)
    if res > DEFAULT_TOL:
        raise ValueError(f"hamiltonian is not permutation invariant (residual {res:.3e})")
    lindblad = [
        embed_at_site(v, m, n_sites)
        for v in single_site_generator.lindblad_ops
        for m in range(n_sites)
    ]
    site_h = single_site_generator.hamiltonian
    if np.max(np.abs(site_h)) > 0:
        h = h + collective_op(site_h, n_sites)
    return GKLSGenerator(h, lindblad)


def build_superradiance_generator(n_sites: int, omega: float, gamma_rate: float) -> GKLSGenerator:
    """Collective radiative decay of N two-level atoms.

    H = (omega/2) sum_m sz^(m) and a single collective Lindblad operator
    sqrt(gamma) sum_m sm^(m); locally permutation invariant.
    """
    if gamma_rate <= 0:
        raise ValueError("damping rate must be positive")
    _check_size(2, n_sites)
    h = 0.5 * omega * collective_op(sz, n_sites)
    v = np.sqrt(gamma_rate) * collective_op(sm, n_sites)
    return GKLSGenerator(h, [v])


# ---------------------------------------------------------------------------
# Invariance checks


def global_invariance_residual(dynamics, rep: PermutationRep) -> float:
    """max_g || R_g Gamma R_g^-1 - Gamma ||_F over the group generators.

    `dynamics` is a KrausMap or a GKLSGenerator.  Conjugating the map by R
    sends each term (c, L, R_op) to (c, R† L R, R† R_op R), so the residual is
    the Frobenius norm of one Kronecker sum (`superop_norm`) per generator.
    """
    terms = dynamics.terms()
    return max(superop_norm([(c, dag(r) @ l @ r, dag(r) @ x @ r) for c, l, x in terms]
                            + [(-c, l, x) for c, l, x in terms]) for r in rep.generators)


@dataclass(frozen=True)
class LocalInvarianceReport:
    residual: float
    invariant: bool
    containment_holds: bool | None  # None when not invariant


def local_invariance_residual(ops, rep: PermutationRep) -> float:
    """max over (generator, op) of || R† X R - X || (spectral norm)."""
    worst = 0.0
    for x in ops:
        x = np.asarray(x, dtype=complex)
        for r in rep.generators:
            worst = max(worst, float(np.linalg.norm(dag(r) @ x @ r - x, 2)))
    return worst


def local_invariance_check(ops, rep: PermutationRep) -> LocalInvarianceReport:
    """Site-permutation invariance of coupling operators, at a residual of 10 * DEFAULT_TOL.

    When the operators are invariant, the group algebra commutes with all of
    them, so it sits inside the commutant of {X, X†} and hence inside the
    decoherence-free algebra; that containment is then verified through the
    algebra engine.  The commutant is a unital *-algebra, so it contains the
    algebra the transpositions generate iff it contains every transposition.
    """
    residual = local_invariance_residual(ops, rep)
    invariant = residual <= 10 * DEFAULT_TOL
    holds = None
    if invariant:
        comm = commutant(list(ops), rep.dim)
        holds = all(comm.contains(r) for r in rep.generators)
    return LocalInvarianceReport(residual=residual, invariant=invariant, containment_holds=holds)


def singlet_state() -> np.ndarray:
    """Two-qubit singlet (e01 - e10)/sqrt(2), the canonical subradiant state."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return v
