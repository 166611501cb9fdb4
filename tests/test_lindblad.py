import numpy as np
import pytest
from scipy.linalg import expm

from decofree.lindblad import (
    GKLSGenerator,
    bohr_frequency,
    build_gibbs_generator,
    detailed_balance_check,
    dissipativity_defect,
    evolve_state,
    gibbs_state,
)
from decofree.operators import (
    LiouvilleMetric,
    dag,
    eye,
    random_density,
    random_hermitian,
    sm,
    sp,
    sx,
    sy,
    sz,
    unvec,
    vec,
)
from oracles import gibbs_populations


@pytest.fixture
def gibbs_qubit():
    # ground state |0>, gap 1, so sm = |0><1| lowers the energy
    return build_gibbs_generator(-0.5 * sz, 1.0, [sm])


def random_generator(n, n_ops, rng):
    return GKLSGenerator(
        random_hermitian(n, rng),
        [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(n_ops)],
    )


class TestApplyGenerator:
    def test_trivial(self):
        gen = GKLSGenerator(np.zeros((2, 2)))
        a = sx + 2 * sz
        assert np.allclose(gen(a), 0)

    def test_no_jump_operators_no_dissipator(self):
        # the dissipator's term list is empty; its action is still a zero stack
        out = GKLSGenerator(sz).dissipative_part(np.stack([sx, sy, sz]))
        assert out.shape == (3, 2, 2) and not out.any()

    def test_apply_dual_is_the_schrodinger_matrix(self, rng):
        gen = random_generator(3, 2, rng)
        rho = random_density(3, rng)
        expected = unvec(dag(gen.heisenberg_matrix()) @ vec(rho), 3)
        assert np.max(np.abs(gen.apply_dual(rho) - expected)) < 1e-12

    def test_hamiltonian_sign(self):
        omega = 1.3
        gen = GKLSGenerator(0.5 * omega * sz)
        assert np.allclose(gen(sx), -omega * sy)

    def test_amplitude_damping_on_sz(self):
        gamma = 0.7
        gen = GKLSGenerator(np.zeros((2, 2)), [np.sqrt(gamma) * sm])
        assert np.allclose(gen(sz), gamma * (eye(2) - sz))

    def test_kills_identity(self, rng):
        gen = random_generator(3, 2, rng)
        assert np.max(np.abs(gen(eye(3)))) < 1e-10

    def test_preserves_adjoints(self, rng):
        gen = random_generator(3, 2, rng)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.max(np.abs(gen(dag(a)) - dag(gen(a)))) < 1e-10

    def test_rejects_non_hermitian_h(self):
        with pytest.raises(ValueError, match="hermitian"):
            GKLSGenerator(sm)


class TestSemigroup:
    """The semigroup through evolve_state, its action on states."""

    def test_time_zero(self, rng):
        gen = random_generator(2, 1, rng)
        rho = random_density(2, rng)
        assert np.allclose(evolve_state(gen, rho, 0.0), rho)

    def test_pure_dephasing_decay(self):
        gamma = 0.4
        gen = GKLSGenerator(np.zeros((2, 2)), [np.sqrt(gamma) * sz])
        plus = 0.5 * (eye(2) + sx)
        for t in (0.1, 1.0, 3.0):
            out = evolve_state(gen, plus, t)
            assert np.max(np.abs(out - 0.5 * (eye(2) + np.exp(-2 * gamma * t) * sx))) < 1e-10

    def test_semigroup_law(self, rng):
        gen = random_generator(2, 2, rng)
        rho = random_density(2, rng)
        lhs = evolve_state(gen, evolve_state(gen, rho, 0.3), 0.7)
        assert np.max(np.abs(lhs - evolve_state(gen, rho, 1.0))) < 1e-9

    def test_negative_time_rejected(self, rng):
        with pytest.raises(ValueError):
            evolve_state(random_generator(2, 1, rng), random_density(2, rng), -0.1)

    def test_dual_of_exponential_is_exponential_of_dual(self, rng):
        # Tr(A rho_t) = Tr(T_t(A) rho) with T_t = exp(t L) on observables
        gen = random_generator(3, 2, rng)
        heisenberg = expm(0.8 * gen.heisenberg_matrix())
        for _ in range(5):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = random_density(3, rng)
            lhs = np.trace(a @ evolve_state(gen, rho, 0.8))
            rhs = np.trace(unvec(heisenberg @ vec(a), 3) @ rho)
            assert abs(lhs - rhs) < 1e-9

    def test_positivity_and_trace_of_dual(self, rng):
        gen = random_generator(3, 2, rng)
        for t in (0.1, 1.0, 10.0):
            rho = random_density(3, rng)
            out = evolve_state(gen, rho, t)
            assert abs(np.trace(out) - 1.0) < 1e-9
            assert np.linalg.eigvalsh(0.5 * (out + dag(out))).min() > -1e-9


class TestDissipativity:
    def test_pure_hamiltonian_is_conservative(self, rng):
        gen = GKLSGenerator(random_hermitian(3, rng))
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.max(np.abs(dissipativity_defect(gen, a))) < 1e-12

    def test_dephasing_defect_value(self):
        gamma = 0.9
        gen = GKLSGenerator(np.zeros((2, 2)), [np.sqrt(gamma) * sz])
        assert np.allclose(dissipativity_defect(gen, sx), 4 * gamma * eye(2))

    def test_defect_of_a_stack_is_the_defect_of_each_operator(self, rng):
        gen = random_generator(3, 2, rng)
        stack = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        defects = dissipativity_defect(gen, stack)
        assert defects.shape == (5, 3, 3)
        for a, defect in zip(stack, defects):
            assert np.allclose(defect, dissipativity_defect(gen, a), rtol=0, atol=1e-12)

    def test_psd_and_commutator_identity(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            gen = random_generator(n, int(rng.integers(1, 4)), rng)
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            defect = dissipativity_defect(gen, a)
            assert np.linalg.eigvalsh(0.5 * (defect + dag(defect))).min() > -1e-10
            direct = sum(
                dag(v @ a - a @ v) @ (v @ a - a @ v) for v in gen.lindblad_ops
            )
            assert np.max(np.abs(defect - direct)) < 1e-10


def _flags(report):
    return report.stationary, report.commuting_parts, report.hermitian_dissipator


class TestDetailedBalance:
    def test_gibbs_qubit_passes(self, gibbs_qubit):
        report = detailed_balance_check(gibbs_qubit.generator, gibbs_qubit.metric())
        assert _flags(report) == (True, True, True)
        assert all(v < 1e-10 for v in report.residuals.values())

    def test_selfadjoint_dephasing_passes(self):
        gen = GKLSGenerator(np.zeros((2, 2)), [sz])
        report = detailed_balance_check(gen, LiouvilleMetric(eye(2) / 2))
        assert _flags(report) == (True, True, True)

    def test_non_eigenoperator_fails_stationarity(self):
        h = 0.5 * sz
        gen = GKLSGenerator(h, [sx])
        metric = LiouvilleMetric(gibbs_state(h, 1.0))
        report = detailed_balance_check(gen, metric)
        # sx is no eigenoperator of [H, .]: every condition fails
        assert _flags(report) == (False, False, False)

    @pytest.mark.parametrize("n", [3, 64])
    def test_drive_off_the_energy_basis_fails_commuting_parts(self, n):
        # H + 0.3 (V + V†) mixes the ladder's levels, so its commutator no
        # longer commutes with the thermal dissipator of H
        h = np.diag(np.arange(n) * 3.0 / n)
        v = np.diag(np.ones(n - 1), 1).astype(complex)
        gg = build_gibbs_generator(h, 1.0, [v])
        gen = GKLSGenerator(h + 0.3 * (v + dag(v)), gg.generator.lindblad_ops)
        report = detailed_balance_check(gen, gg.metric())
        assert not report.commuting_parts
        assert report.residuals["parts_commute"] > 1e-6
        assert report.hermitian_dissipator

    def test_wrong_thermal_ratio_fails_hermiticity(self):
        # rates 1 and 1/4 balance populations 4:1, not the metric's 2:3
        gen = GKLSGenerator(np.zeros((2, 2)), [sm, 0.5 * sp])
        report = detailed_balance_check(gen, LiouvilleMetric(np.diag([0.4, 0.6]).astype(complex)))
        assert report.commuting_parts
        assert not report.hermitian_dissipator
        assert report.residuals["dissipator_hermiticity"] > 0.1

    def test_hermiticity_via_basis_pairs(self, gibbs_qubit):
        # same statement as the superoperator identity, written out elementwise
        gen, metric = gibbs_qubit.generator, gibbs_qubit.metric()
        units = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            units[k][i, j] = 1.0
        for a in units:
            for b in units:
                lhs = metric.inner(a, gen.dissipative_part(b))
                rhs = metric.inner(gen.dissipative_part(a), b)
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGibbsGenerator:
    def test_bohr_frequency(self):
        assert bohr_frequency(-0.5 * sz, sm) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="raises"):
            bohr_frequency(-0.5 * sz, sp)
        with pytest.raises(ValueError, match="violated"):
            bohr_frequency(-0.5 * sz, sx + 0.5 * sm)

    def test_stationary_populations(self, gibbs_qubit):
        pops = np.diag(gibbs_qubit.stationary_state).real
        assert np.allclose(pops, gibbs_populations([-0.5, 0.5], 1.0), atol=1e-12)
        assert pops[0] == pytest.approx(0.7310585786300049)

    def test_stationarity_residual(self, gibbs_qubit):
        gen = gibbs_qubit.generator
        out = unvec(dag(gen.heisenberg_matrix()) @ vec(gibbs_qubit.stationary_state), 2)
        assert np.max(np.abs(out)) < 1e-12

    def test_infinite_temperature_limit(self):
        gg = build_gibbs_generator(-0.5 * sz, 1e6, [sm])
        down = gg.generator.lindblad_ops[0]
        up = gg.generator.lindblad_ops[1]
        assert abs(np.linalg.norm(down) - np.linalg.norm(up)) < 1e-5

    def test_dissipation_identity_on_random_operators(self, gibbs_qubit, rng):
        # Tr(sigma [L(A†A) - L(A†)A - A†L(A)]) equals the thermally weighted
        # commutator norms and twice the quadratic form of the dissipator
        gen, metric = gibbs_qubit.generator, gibbs_qubit.metric()
        sigma = gibbs_qubit.stationary_state
        for _ in range(100):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            lhs = np.trace(sigma @ dissipativity_defect(gen, a))
            assert abs(lhs.imag) < 1e-12
            rhs = 0.0
            for v, omega in gibbs_qubit.eigen_ops:
                down = v @ a - a @ v
                up = dag(v) @ a - a @ dag(v)
                rhs += metric.inner(down, down).real
                rhs += np.exp(-omega / gibbs_qubit.temperature) * metric.inner(up, up).real
            assert abs(lhs.real - rhs) < 1e-10
            quad = -2.0 * metric.inner(a, gen.dissipative_part(a)).real
            assert abs(lhs.real - quad) < 1e-10

    def test_three_level_ladder(self):
        h = np.diag([0.0, 1.0, 2.5]).astype(complex)
        v1 = np.zeros((3, 3), dtype=complex)
        v1[0, 1] = 1.0
        v2 = np.zeros((3, 3), dtype=complex)
        v2[1, 2] = 1.0
        gg = build_gibbs_generator(h, 0.7, [v1, v2])
        assert [w for _, w in gg.eigen_ops] == pytest.approx([1.0, 1.5])
        report = detailed_balance_check(gg.generator, gg.metric())
        assert _flags(report) == (True, True, True)

    def test_kernel_of_dissipator_is_commutant(self, gibbs_qubit):
        from decofree.algebra import commutant, nullspace
        from oracles import subspaces_equal

        gen = gibbs_qubit.generator
        null = nullspace(gen.dissipator_matrix())
        kernel = [unvec(null[:, k], 2) for k in range(null.shape[1])]
        comm = commutant([sm, sp], 2)
        assert subspaces_equal(kernel, list(comm.basis), tol=1e-7)
