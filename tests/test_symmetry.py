import numpy as np
import pytest

from decofree.algebra import (
    block_decompose,
    commutant,
    df_algebra_semigroup,
    generated_algebra,
    subspace_contains,
)
from decofree.channels import KrausMap, random_unital_channel
from decofree.lindblad import GKLSGenerator, evolve_state
from decofree.operators import dag, eye, random_hermitian, sandwich_superop, sm, sx, sz
from decofree.symmetry import (
    build_permutation_rep,
    build_private_bath_generator,
    build_superradiance_generator,
    collective_op,
    collective_spin,
    embed_at_site,
    global_invariance_residual,
    local_invariance_check,
    local_invariance_residual,
    permutation_matrix,
    singlet_state,
)
from oracles import commutant_dimension


class TestPermutationRep:
    def test_two_qubit_swap(self):
        rep = build_permutation_rep(2, 2)
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.array_equal(rep.generators[0].real, swap)
        assert np.allclose(rep.generators[0] @ rep.generators[0], eye(4))

    def test_three_cycle_has_order_three(self):
        rep = build_permutation_rep(3, 2)
        cycle = rep.generators[0] @ rep.generators[1]
        assert not np.allclose(np.linalg.matrix_power(cycle, 1), eye(8))
        assert not np.allclose(np.linalg.matrix_power(cycle, 2), eye(8))
        assert np.allclose(np.linalg.matrix_power(cycle, 3), eye(8))

    def test_defining_action(self):
        rep = build_permutation_rep(2, 2)
        e01 = np.zeros(4)
        e01[1] = 1.0  # |0> (x) |1>
        e10 = np.zeros(4)
        e10[2] = 1.0
        assert np.allclose(rep.generators[0] @ e01, e10)

    def test_homomorphism_on_full_group(self):
        # products of transposition matrices realize every permutation matrix
        rep = build_permutation_rep(3, 2)
        g12, g23 = rep.generators
        r132 = g12 @ g23 @ g12  # transposition (1 3) either way of composing
        assert np.allclose(r132, permutation_matrix([2, 1, 0], 2))

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_permutation_rep(7, 2)

    def test_qutrit_sites(self):
        rep = build_permutation_rep(2, 3)
        assert rep.dim == 9
        assert np.allclose(rep.generators[0] @ rep.generators[0], eye(9))


class TestCollectiveOps:
    def test_single_site_is_itself(self):
        assert np.allclose(collective_op(sx, 1), sx)

    def test_two_site_sz_sum(self):
        assert np.allclose(collective_op(sz, 2), np.diag([2.0, 0.0, 0.0, -2.0]))

    def test_collective_lowering_kills_singlet(self):
        v = collective_op(sm, 2)
        assert np.linalg.norm(v @ singlet_state()) < 1e-15

    def test_embedding(self):
        assert np.allclose(embed_at_site(sz, 0, 2), np.kron(sz, eye(2)))
        assert np.allclose(embed_at_site(sz, 1, 2), np.kron(eye(2), sz))

    def test_su2_commutant_dimensions(self):
        for n_sites, expected in [(2, 2), (3, 5), (4, 14)]:
            ops = list(collective_spin(n_sites))
            assert commutant(ops).dim == expected
            assert commutant_dimension(ops, 2 ** n_sites) == expected


class TestPrivateBath:
    def test_lindblad_list_is_every_site(self):
        gen = build_private_bath_generator(2, np.zeros((4, 4)), GKLSGenerator(np.zeros((2, 2)), [sm]))
        assert len(gen.lindblad_ops) == 2
        mats = [np.kron(sm, eye(2)), np.kron(eye(2), sm)]
        for v in gen.lindblad_ops:
            assert any(np.allclose(v, m) for m in mats)

    def test_globally_invariant(self):
        gen = build_private_bath_generator(2, np.zeros((4, 4)), GKLSGenerator(np.zeros((2, 2)), [sm]))
        rep = build_permutation_rep(2, 2)
        assert global_invariance_residual(gen, rep) < 1e-10

    def test_not_locally_invariant(self):
        gen = build_private_bath_generator(2, np.zeros((4, 4)), GKLSGenerator(np.zeros((2, 2)), [sm]))
        rep = build_permutation_rep(2, 2)
        assert local_invariance_residual(gen.lindblad_ops, rep) > 1.0

    def test_ergodic_for_ergodic_site_dynamics(self):
        # damped site semigroup is ergodic, and so is the N = 2 product dynamics
        site = GKLSGenerator(np.zeros((2, 2)), [sm])
        gen = build_private_bath_generator(2, np.zeros((4, 4)), site)
        res = df_algebra_semigroup(gen)
        assert res.algebra.dim == 1

    def test_rejects_asymmetric_hamiltonian(self):
        with pytest.raises(ValueError, match="invariant"):
            build_private_bath_generator(
                2, np.kron(sz, eye(2)), GKLSGenerator(np.zeros((2, 2)), [sm])
            )


class TestSuperradiance:
    def test_single_atom_is_amplitude_damping(self):
        gen = build_superradiance_generator(1, 1.0, 0.5)
        assert np.allclose(gen.lindblad_ops[0], np.sqrt(0.5) * sm)
        assert np.allclose(gen.hamiltonian, 0.5 * sz)

    def test_singlet_is_stationary(self):
        gen = build_superradiance_generator(2, 1.0, 1.0)
        rho = np.outer(singlet_state(), singlet_state().conj())
        assert np.max(np.abs(evolve_state(gen, rho, 2.0) - rho)) < 1e-10

    def test_locally_invariant(self):
        gen = build_superradiance_generator(3, 1.0, 1.0)
        rep = build_permutation_rep(3, 2)
        assert local_invariance_residual(list(gen.lindblad_ops) + [gen.hamiltonian], rep) < 1e-12

    def test_globally_invariant(self):
        gen = build_superradiance_generator(2, 1.0, 1.0)
        assert global_invariance_residual(gen, build_permutation_rep(2, 2)) < 1e-10

    def test_biased_coupling_breaks_global_invariance(self):
        gen = GKLSGenerator(np.zeros((4, 4)), [np.kron(sm, eye(2))])
        assert global_invariance_residual(gen, build_permutation_rep(2, 2)) > 0.1

    @pytest.mark.parametrize("n_sites", [0, -1])
    def test_needs_at_least_one_atom(self, n_sites):
        with pytest.raises(ValueError, match="n_sites >= 1"):
            build_superradiance_generator(n_sites, 1.0, 1.0)


class TestGlobalResidual:
    def test_is_the_frobenius_norm_of_the_dense_difference(self, rng):
        # R Gamma R^-1 - Gamma as an n^2 x n^2 matrix, for a channel and a generator
        rep = build_permutation_rep(2, 2)
        swap = sandwich_superop(dag(rep.generators[0]), rep.generators[0])
        gen = GKLSGenerator(random_hermitian(4, rng), [np.kron(sm, eye(2)), np.kron(sx, sz)])
        for dyn in (gen, random_unital_channel(4, 2, rng)):
            dense = dyn.heisenberg_matrix()
            expected = np.linalg.norm(swap @ dense @ dag(swap) - dense)
            assert expected > 0.1
            assert global_invariance_residual(dyn, rep) == pytest.approx(expected, rel=1e-10)

    def test_kraus_map(self):
        rep = build_permutation_rep(3, 2)
        phase = np.diag(np.exp(0.7j * np.diag(collective_op(sz, 3))))
        sym = KrausMap([np.sqrt(0.5) * eye(8), np.sqrt(0.5) * phase])
        assert global_invariance_residual(sym, rep) < 1e-10
        biased = KrausMap([np.sqrt(0.5) * eye(8), np.sqrt(0.5) * embed_at_site(sz, 0, 3)])
        assert global_invariance_residual(biased, rep) > 0.1


class TestInvarianceChecks:
    def test_trivial_group(self):
        rep = build_permutation_rep(1, 2)
        assert local_invariance_residual([sx, sz], rep) == 0.0

    def test_local_invariance_implies_containment(self):
        gen = build_superradiance_generator(3, 1.0, 1.0)
        rep = build_permutation_rep(3, 2)
        report = local_invariance_check(gen.lindblad_ops, rep)
        assert report.invariant
        assert report.containment_holds

    def test_group_algebra_inside_df_lower_bound(self):
        for n_sites in (2, 3):
            gen = build_superradiance_generator(n_sites, 1.0, 1.0)
            rep = build_permutation_rep(n_sites, 2)
            res = df_algebra_semigroup(gen)
            assert rep.group_algebra().is_subalgebra_of(res.algebra)


class TestSchurWeylStructure:
    def test_containment_chain(self):
        # permutations commute with collective spin, so the group algebra sits
        # inside the su(2) commutant, which is the commutant of the collective
        # decay operator pair, which bounds the DF algebra from below
        for n_sites in (2, 3):
            rep = build_permutation_rep(n_sites, 2)
            group_alg = rep.group_algebra()
            su2_comm = commutant(list(collective_spin(n_sites)))
            v = collective_op(sm, n_sites)
            v_comm = commutant([v])
            assert group_alg.is_subalgebra_of(su2_comm)
            assert subspace_contains(list(v_comm.basis), list(su2_comm.basis))

    def test_group_algebra_and_commutant_have_transposed_blocks(self):
        for n_sites, expected in [(2, ((1, 3), (1, 1))), (3, ((2, 2), (1, 4)))]:
            rep = build_permutation_rep(n_sites, 2)
            alg = rep.group_algebra()
            decomp = block_decompose(alg)
            assert decomp.blocks == expected
            dual = block_decompose(generated_algebra(list(collective_spin(n_sites))))
            assert sorted((d, n) for n, d in dual.blocks) == sorted(decomp.blocks)

    def test_su2_algebra_dimension(self):
        # sum of squared irrep dimensions: 9 + 1 at N = 2, 16 + 4 at N = 3
        for n_sites, dim in ((2, 10), (3, 20)):
            assert generated_algebra(list(collective_spin(n_sites))).dim == dim


@pytest.mark.parametrize("model", ["superradiance", "private_bath"])
def test_generator_containment_agrees_with_group_algebra(model):
    # containment of the transpositions alone against the whole group algebra:
    # collective decay is invariant, one sigma_minus per site is not
    if model == "superradiance":
        ops = list(build_superradiance_generator(3, 1.0, 1.0).lindblad_ops)
    else:
        site = GKLSGenerator(np.zeros((2, 2)), [sm])
        ops = list(build_private_bath_generator(3, np.zeros((8, 8)), site).lindblad_ops)
    rep = build_permutation_rep(3, 2)
    # an infinite tolerance takes every operator set as invariant, so the
    # containment is decided in both cases
    holds = local_invariance_check(ops, rep, tol=np.inf).containment_holds
    expected = rep.group_algebra().is_subalgebra_of(commutant(ops, rep.dim))
    assert holds is expected is (model == "superradiance")
