"""Covariance oracles: how each structural answer must move when its input moves.

Every dimension, block list and k_used is a cut of singular values, and theory
fixes how each one transforms, with no second implementation to agree with:
conjugating the input by a unitary V gives V†AV with the same blocks and the
same recursion length; Gamma (x) id_2 gives A (x) M_2, so the dimension times 4
and each n_j times 2; H + c 1 and the time rescaling (H, L) -> (sH, sqrt(s) L)
leave a semigroup's decoherence-free algebra as it was; and permuting or
rescaling the operators that generate an algebra changes nothing.  The families
are those of the benchmark's df-structure jobs at small n, and every random
draw comes from DEFAULT_SEED.
"""

import numpy as np
import pytest

from decofree.algebra import (
    block_decompose,
    df_algebra_discrete,
    df_algebra_semigroup,
    generated_algebra,
)
from decofree.channels import KrausMap, dephasing_channel, random_unital_channel
from decofree.lindblad import GKLSGenerator, build_gibbs_generator
from decofree.operators import DEFAULT_SEED, dag, eye, random_unitary, sx, sy, sz
from decofree.symmetry import (
    build_permutation_rep,
    build_superradiance_generator,
    collective_op,
    collective_spin,
)

SINE_TOL = 1e-7


def _rng():
    return np.random.default_rng(DEFAULT_SEED)


def _collective_dephasing(n_sites):
    # a mixture of three collective z rotations
    rng = _rng()
    jz = np.diag(collective_op(0.5 * sz, n_sites)).real
    return KrausMap([np.sqrt(w) * np.diag(np.exp(-1j * a * jz))
                     for w, a in zip(rng.dirichlet(np.ones(3)), rng.uniform(0.3, 2.8, size=3))])


def _u_x_dephasing():
    u = random_unitary(2, _rng())
    return KrausMap([np.kron(u, np.sqrt(0.7) * eye(2)), np.kron(u, np.sqrt(0.3) * sz)])


CHANNELS = {
    "dephasing": lambda: dephasing_channel(0.25),
    "random-unital-n3": lambda: random_unital_channel(3, 2, _rng()),
    "u-x-dephasing": _u_x_dephasing,
    "id-x-depolarizing": lambda: KrausMap([0.5 * np.kron(eye(2), s)
                                           for s in (eye(2), sx, sy, sz)]),
    "collective-dephasing-N2": lambda: _collective_dephasing(2),
    "collective-dephasing-N3": lambda: _collective_dephasing(3),
}


def _thermal_qutrit():
    lower = np.zeros((2, 3, 3), dtype=complex)
    lower[0, 1, 0] = 1.0
    lower[1, 2, 1] = 0.8
    return build_gibbs_generator(np.diag([1.7, 0.9, 0.2]), 1.2, lower).generator


GENERATORS = {
    "superradiance-N2": lambda: build_superradiance_generator(2, 0.9, 1.1),
    "superradiance-N3": lambda: build_superradiance_generator(3, 0.9, 1.1),
    "thermal-qutrit": _thermal_qutrit,
}

GENERATED = {
    "S_3": lambda: list(build_permutation_rep(3).generators),
    "su2-N2": lambda: list(collective_spin(2)),
    "su2-N3": lambda: list(collective_spin(3)),
}


def _sine(a, b) -> float:
    """Sine of the largest principal angle of span(b) against span(a), two stacks of
    matrices of one dimension: ||Q_b - Q_a Q_a† Q_b||_2 for orthonormal bases Q."""
    qa, qb = (np.linalg.qr(np.reshape(m, (len(m), -1)).T)[0] for m in (a, b))
    return float(np.linalg.norm(qb - qa @ (dag(qa) @ qb), 2))


def _conjugated(ops, v):
    return [dag(v) @ a @ v for a in ops]


def _with_qubit(ops):
    return [np.kron(a, eye(2)) for a in ops]


def _tensor_m2(basis):
    """Basis of span(basis) (x) M_2."""
    units = eye(4).reshape(4, 2, 2)
    return np.array([np.kron(a, e) for a in basis for e in units])


def _structure(alg):
    return alg.dim, block_decompose(alg).blocks


def _doubled(blocks):
    return tuple((2 * nj, dj) for nj, dj in blocks)


@pytest.mark.parametrize("make", CHANNELS.values(), ids=list(CHANNELS))
def test_channel_conjugation_and_tensor_identity(make):
    chan = make()
    ref = df_algebra_discrete(chan)
    dim, blocks = _structure(ref.algebra)
    v = random_unitary(chan.dim, _rng())
    moved = df_algebra_discrete(KrausMap(_conjugated(chan.kraus_ops, v)))
    assert (_structure(moved.algebra), moved.k_used) == ((dim, blocks), ref.k_used)
    assert _sine(moved.algebra.basis, _conjugated(ref.algebra.basis, v)) <= SINE_TOL
    wide = df_algebra_discrete(KrausMap(_with_qubit(chan.kraus_ops)))
    assert _structure(wide.algebra) == (4 * dim, _doubled(blocks))
    # the chain of A (x) M_2 is as long as that of A, but a one-dimensional A takes
    # no step and reports k_used 1, where A (x) M_2 takes one step to see it invariant
    assert wide.k_used == ref.k_used + (dim == 1)
    assert _sine(wide.algebra.basis, _tensor_m2(ref.algebra.basis)) <= SINE_TOL


@pytest.mark.parametrize("make", GENERATORS.values(), ids=list(GENERATORS))
def test_generator_conjugation_and_tensor_identity(make):
    gen = make()
    ref = df_algebra_semigroup(gen)
    dim, blocks = _structure(ref)
    v = random_unitary(gen.dim, _rng())
    moved = df_algebra_semigroup(GKLSGenerator(dag(v) @ gen.hamiltonian @ v,
                                               _conjugated(gen.lindblad_ops, v)))
    assert _structure(moved) == (dim, blocks)
    assert _sine(moved.basis, _conjugated(ref.basis, v)) <= SINE_TOL
    wide = df_algebra_semigroup(GKLSGenerator(np.kron(gen.hamiltonian, eye(2)),
                                              _with_qubit(gen.lindblad_ops)))
    assert _structure(wide) == (4 * dim, _doubled(blocks))
    assert _sine(wide.basis, _tensor_m2(ref.basis)) <= SINE_TOL


@pytest.mark.parametrize("make", GENERATORS.values(), ids=list(GENERATORS))
@pytest.mark.parametrize("offset, scale", [(1e3, 1.0), (-3.7, 1.0), (0.0, 2.0), (0.0, 1e-3),
                                           (0.0, 1e3)])
def test_generator_energy_offset_and_time_rescaling(make, offset, scale):
    gen = make()
    ref = df_algebra_semigroup(gen)
    h = scale * (gen.hamiltonian + offset * eye(gen.dim))
    moved = df_algebra_semigroup(GKLSGenerator(h, [np.sqrt(scale) * v for v in gen.lindblad_ops]))
    assert _structure(moved) == _structure(ref)
    assert _sine(moved.basis, ref.basis) <= SINE_TOL


@pytest.mark.parametrize("make", GENERATED.values(), ids=list(GENERATED))
def test_generated_algebra_conjugation_permutation_and_scale(make):
    ops = make()
    ref = generated_algebra(ops)
    structure = _structure(ref)
    rng = _rng()
    v = random_unitary(ops[0].shape[0], rng)
    moved = generated_algebra(_conjugated(ops, v))
    assert _structure(moved) == structure
    assert _sine(moved.basis, _conjugated(ref.basis, v)) <= SINE_TOL
    scales = 10.0 ** rng.uniform(-4.0, 4.0, size=len(ops))
    shuffled = generated_algebra([scales[k] * ops[k] for k in rng.permutation(len(ops))])
    assert _structure(shuffled) == structure
    assert _sine(shuffled.basis, ref.basis) <= SINE_TOL
