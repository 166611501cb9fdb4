import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from decofree.born import (
    Bath,
    ControlTrajectory,
    Coupling,
    FrequencyGrid,
    born_state,
    constant_trajectory,
    device_correlator,
    df_state_check,
    error_frequency_domain,
    error_map,
    error_time_domain,
    filter_operators,
    flat_bath,
    gate_speed_scan,
    gaussian_bath,
    interaction_ops,
    ohmic_bath,
    quartic_gaussian_bath,
    stationary_correlator_estimate,
    tabulated_bath,
    _interaction_apply,
    _lag_sums,
)
from decofree.channels import cp_check
from decofree.operators import dag, eye, random_density, random_hermitian, sm, sx, sy, sz
from decofree.symmetry import collective_op, singlet_state
from oracles import (
    error_map_double_loop,
    exp_corr_square_integral,
    gaussian_corr_square_integral,
    lag_sums_double_loop,
    qubit_rotation_interaction_op,
    segment_propagator,
    stationary_covariance_spectrum,
    substep_propagator,
)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
KET0 = np.array([1.0, 0.0], dtype=complex)


def exp_bath(g, t_c):
    return Bath(
        n_ops=1,
        label="exp",
        spectral=None,
        correlation=lambda t: (g * g * np.exp(-np.abs(t) / t_c))[..., None, None],
    )


@pytest.fixture
def dephasing_setup():
    traj = constant_trajectory(np.zeros((2, 2)), 1.0)
    coupling = Coupling(system_ops=(sz,), bath=exp_bath(0.3, 0.5))
    c = exp_corr_square_integral(0.3, 0.5, 1.0)
    return traj, coupling, c


class TestPropagator:
    def test_equal_times(self):
        traj = constant_trajectory(sx, 1.0)
        assert np.allclose(traj.propagator(0.3, 0.3), eye(2))

    def test_constant_hamiltonian(self):
        h = 0.4 * sx + 0.1 * sz
        traj = constant_trajectory(h, 1.0)
        assert np.max(np.abs(traj.propagator(-1.0, 1.0) - expm(-2j * h))) < 1e-12

    def test_two_segment_ordering(self):
        traj = ControlTrajectory(1.0, [(1.0, sx), (1.0, sz)])
        expected = expm(-1j * sz) @ expm(-1j * sx)  # later segment acts last
        assert np.max(np.abs(traj.propagator(-1.0, 1.0) - expected)) < 1e-12
        oracle = substep_propagator(traj, -1.0, 1.0)
        assert np.max(np.abs(traj.propagator(-1.0, 1.0) - oracle)) < 1e-6

    def test_cocycle(self):
        traj = ControlTrajectory(1.0, [(0.7, sx), (0.9, sz), (0.4, sy)])
        u = traj.propagator(-0.5, 0.8)
        assert np.max(np.abs(traj.propagator(0.1, 0.8) @ traj.propagator(-0.5, 0.1) - u)) < 1e-10
        assert np.max(np.abs(dag(u) @ u - eye(2))) < 1e-10

    def test_reversed_times(self):
        traj = constant_trajectory(sx, 1.0)
        assert np.allclose(traj.propagator(0.5, -0.5), dag(traj.propagator(-0.5, 0.5)))

    def test_out_of_window(self):
        traj = constant_trajectory(sx, 1.0)
        with pytest.raises(ValueError, match="window"):
            traj.propagator(-1.5, 0.0)

    def test_segment_validation(self):
        with pytest.raises(ValueError, match="sum"):
            ControlTrajectory(1.0, [(0.5, sx)])
        with pytest.raises(ValueError, match="hermitian"):
            ControlTrajectory(1.0, [(2.0, sm)])


def interaction_at(traj, op, n_time=21):
    """Grid and S(s_i) on it for one coupling operator."""
    coupling = Coupling(system_ops=(op,), bath=gaussian_bath(1.0, 1.0))
    s_grid, _, ops = interaction_ops(traj, coupling, n_time)
    return s_grid, ops[0]


class TestInteractionOps:
    def test_free_case_is_constant(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        _, ops = interaction_at(traj, sx)
        assert np.allclose(ops, sx)

    def test_qubit_rotation_closed_form(self):
        omega = 1.7
        traj = constant_trajectory(0.5 * omega * sz, 1.0)
        s_grid, ops = interaction_at(traj, sx)
        for i in (4, 10, 19):  # s = -0.6, 0.0, 0.9
            expected = qubit_rotation_interaction_op(omega, s_grid[i], 1.0)
            assert np.max(np.abs(ops[i] - expected)) < 1e-12

    def test_commuting_coupling_is_unmoved(self):
        traj = constant_trajectory(0.8 * sz, 1.0)
        _, ops = interaction_at(traj, sz)
        assert np.allclose(ops, sz)

    def test_hermiticity(self):
        traj = ControlTrajectory(1.0, [(1.2, sx), (0.8, sy)])
        _, ops = interaction_at(traj, sz)
        assert np.max(np.abs(ops - ops.conj().transpose(0, 2, 1))) < 1e-12

    def test_matches_propagator_reference(self, rng):
        # the grid of 9 points (h = 0.25) puts s = -0.5 and s = 0.5 on the
        # segment boundaries; operators and state vectors both come from the
        # segment factorization, the reference from segment exponentials
        traj = ControlTrajectory(1.0, [(0.5, random_hermitian(3, rng)),
                                       (1.0, random_hermitian(3, rng)),
                                       (0.5, random_hermitian(3, rng))])
        coupling = Coupling(system_ops=(random_hermitian(3, rng), random_hermitian(3, rng)),
                            bath=gaussian_bath(1.0, 1.0, n_ops=2))
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        s_grid, _, ops = interaction_ops(traj, coupling, 9)
        _, _, vecs = _interaction_apply(traj, coupling, psi[:, None], 9)
        assert {-0.5, 0.5} <= set(s_grid.tolist())
        for i, s in enumerate(s_grid):
            u = segment_propagator(traj, -1.0, s)
            assert np.max(np.abs(traj.propagator(-1.0, s) - u)) < 1e-12
            for a, s_op in enumerate(coupling.system_ops):
                expected = dag(u) @ s_op @ u
                assert np.max(np.abs(ops[a, i] - expected)) < 1e-12
                assert np.max(np.abs(vecs[a, i, :, 0] - expected @ psi)) < 1e-12


class TestErrorMap:
    def test_zero_coupling(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        silent = Bath(n_ops=1, label="off",
                      correlation=lambda t: np.zeros((1, 1), dtype=complex))
        emap = error_map(traj, Coupling(system_ops=(sz,), bath=silent))
        assert np.max(np.abs(emap.phi_schrodinger)) == 0.0
        assert np.max(np.abs(emap.k_operator)) == 0.0

    def test_dephasing_closed_form(self, dephasing_setup):
        traj, coupling, c = dephasing_setup
        emap = error_map(traj, coupling)
        rho = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        assert np.max(np.abs(emap.apply(rho) - c * sz @ rho @ sz)) < 1e-5
        assert np.max(np.abs(emap.k_operator - c * eye(2))) < 1e-5

    def test_k_is_psd_and_hermitian(self, rng):
        traj = ControlTrajectory(1.0, [(1.0, 0.5 * sx), (1.0, 0.3 * sz)])
        coupling = Coupling(system_ops=(sx, sz), bath=gaussian_bath(0.05, 2.0, n_ops=2))
        emap = error_map(traj, coupling)
        evals = np.linalg.eigvalsh(emap.k_operator)
        assert evals.min() > -1e-12

    def test_error_map_is_cp(self):
        traj = ControlTrajectory(1.0, [(1.0, 0.5 * sx), (1.0, 0.3 * sz)])
        coupling = Coupling(system_ops=(sx,), bath=gaussian_bath(0.05, 2.0))
        emap = error_map(traj, coupling, n_time=101)
        check = cp_check(emap.phi_schrodinger, tol=1e-10)
        assert check.is_cp

    @pytest.mark.parametrize("n_time", [3, 41])
    def test_matches_double_loop(self, n_time):
        # complex cross correlations with C(-t) != C(t): a swapped lag
        # direction or operator pair shows
        amp = np.array([[1.0, 0.4j], [-0.4j, 0.9]])
        bath = Bath(n_ops=2, label="mixed",
                    correlation=lambda t: amp / ((1.0 + 1.5j * t) ** 2)[..., None, None])
        traj = ControlTrajectory(1.0, [(0.7, 0.9 * sx + 0.3 * sz), (1.3, 0.5 * sy)])
        coupling = Coupling(system_ops=(sx, sz), bath=bath)
        phi = error_map(traj, coupling, n_time=n_time).phi_schrodinger
        s_grid, weights, ops = interaction_ops(traj, coupling, n_time)
        h = s_grid[1] - s_grid[0]
        lag_corr = coupling.bath.correlation_matrix(np.arange(1 - n_time, n_time) * h)
        ref = error_map_double_loop(s_grid, weights, ops, lag_corr)
        assert np.max(np.abs(phi - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_four_thousand_time_points_within_one_gib(self, run_within_one_gib):
        # the FFT convolution keeps error_map at O(r g n^2 + n^4) memory; a
        # g x g kernel alone would take 977 MiB here
        run = run_within_one_gib(
            "import numpy as np\n"
            "from decofree.born import ControlTrajectory, Coupling, born_state, gaussian_bath\n"
            "from decofree.operators import sx, sz\n"
            "traj = ControlTrajectory(1.0, [(0.8, 0.6 * sx), (1.2, 0.4 * sz)])\n"
            "coupling = Coupling(system_ops=(sx, sz), bath=gaussian_bath(0.01, 2.0, n_ops=2))\n"
            "rho = np.array([[0.36, 0.48], [0.48, 0.64]])\n"
            "print(np.trace(born_state(traj, coupling, rho, n_time=4001)).real)\n"
        )
        assert run.returncode == 0, run.stderr
        assert abs(float(run.stdout) - 1.0) < 1e-9

    def test_rejects_bad_correlation_symmetry(self):
        bad = Bath(n_ops=1, label="bad",
                   correlation=lambda t: np.asarray(t, dtype=complex)[..., None, None])
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError, match="hermiticity"):
            error_map(traj, Coupling(system_ops=(sz,), bath=bad))


class TestQuadratureRefinement:
    def test_time_grid_converges_to_closed_form(self):
        # the exponential correlation has a kink on the diagonal, so Simpson
        # degrades to second order: refining the grid must shrink the error
        # roughly fourfold per doubling
        g, t_c, tau = 0.3, 0.5, 1.0
        c_exact = exp_corr_square_integral(g, t_c, tau)
        traj = constant_trajectory(np.zeros((2, 2)), tau)
        coupling = Coupling(system_ops=(sz,), bath=exp_bath(g, t_c))
        errors = [
            abs(error_time_domain(traj, coupling, PLUS, n_time=n) - c_exact)
            for n in (51, 101, 201)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[1] > 3.0
        assert errors[1] / errors[2] > 3.0
        assert errors[2] < 1e-5


class TestBornState:
    def test_free_evolution(self, rng):
        h = random_hermitian(2, rng)
        traj = constant_trajectory(h, 1.0)
        silent = Bath(n_ops=1, label="off",
                      correlation=lambda t: np.zeros((1, 1), dtype=complex))
        rho = random_density(2, rng)
        out = born_state(traj, Coupling(system_ops=(sz,), bath=silent), rho, n_time=51)
        u = expm(-2j * h)
        assert np.max(np.abs(out - u @ rho @ dag(u))) < 1e-10

    def test_dephasing_coherence_shrinks(self, dephasing_setup):
        traj, coupling, c = dephasing_setup
        rho = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        out = born_state(traj, coupling, rho)
        assert out[0, 1].real == pytest.approx(0.5 * (1 - 2 * c), abs=1e-5)

    def test_trace_and_hermiticity(self, rng, dephasing_setup):
        traj, coupling, _ = dephasing_setup
        for _ in range(5):
            rho = random_density(2, rng)
            out = born_state(traj, coupling, rho)
            assert abs(np.trace(out) - 1.0) < 1e-9
            assert np.max(np.abs(out - dag(out))) < 1e-9


class TestTimeDomainError:
    def test_zero_coupling(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        silent = Bath(n_ops=1, label="off",
                      correlation=lambda t: np.zeros((1, 1), dtype=complex))
        assert error_time_domain(traj, Coupling(system_ops=(sz,), bath=silent), PLUS) == 0.0

    def test_plus_state_pays_full_variance(self, dephasing_setup):
        traj, coupling, c = dephasing_setup
        assert error_time_domain(traj, coupling, PLUS) == pytest.approx(c, abs=1e-5)

    def test_pointer_state_is_free(self, dephasing_setup):
        traj, coupling, _ = dephasing_setup
        assert abs(error_time_domain(traj, coupling, KET0)) < 1e-12

    def test_matches_overlap_definition(self, dephasing_setup, rng):
        # eps agrees with 1 - <U psi| Gamma*(psi psi†) |U psi>
        traj, coupling, _ = dephasing_setup
        emap = error_map(traj, coupling)
        for _ in range(5):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            u = traj.propagator(-1.0, 1.0)
            overlap = np.vdot(u @ psi, born_state(traj, coupling, rho, emap=emap) @ (u @ psi))
            eps = error_time_domain(traj, coupling, psi, emap=emap)
            assert eps == pytest.approx(1.0 - overlap.real, abs=1e-10)

    def test_requires_normalized_state(self, dephasing_setup):
        traj, coupling, _ = dephasing_setup
        with pytest.raises(ValueError, match="normalized"):
            error_time_domain(traj, coupling, np.array([1.0, 1.0]))


class TestFilterOperators:
    def test_zero_frequency_free_case(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(1.0, 1.0))
        assert np.max(np.abs(filter_operators(traj, coupling, [0.0])[0, 0] - 2.0 * sz)) < 1e-12

    def test_sinc_profile(self):
        tau = 1.0
        traj = constant_trajectory(np.zeros((2, 2)), tau)
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(1.0, 1.0))
        for w in (0.7, 2.0, 5.3):
            expected = 2 * tau * np.sin(w * tau) / (w * tau) * sz
            assert np.max(np.abs(filter_operators(traj, coupling, [w])[0, 0] - expected)) < 1e-8

    def test_commuting_control_keeps_sinc(self):
        tau = 1.0
        traj = constant_trajectory(1.3 * sz, tau)
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(1.0, 1.0))
        w = 2.0
        expected = 2 * tau * np.sin(w * tau) / (w * tau) * sz
        assert np.max(np.abs(filter_operators(traj, coupling, [w])[0, 0] - expected)) < 1e-8

    def test_adjoint_is_reversed_phase_transform(self):
        traj = ControlTrajectory(1.0, [(1.1, 0.6 * sx), (0.9, 0.4 * sy)])
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(1.0, 1.0))
        s_grid, weights, ops = interaction_ops(traj, coupling, 401)
        for w in (0.0, 1.7):
            y = filter_operators(traj, coupling, [w])[0, 0]
            reversed_phase = np.einsum(
                "i,icd->cd", weights * np.exp(1j * w * s_grid), ops[0]
            )
            assert np.max(np.abs(dag(y) - reversed_phase)) < 1e-10

    def test_appending_commuting_tail_changes_nothing(self):
        # replacing the trailing commuting segment by two different commuting
        # segments leaves every interaction-picture operator, and hence every
        # filter operator, untouched
        base = ControlTrajectory(1.0, [(1.0, 0.8 * sx), (1.0, 0.5 * sz)])
        alt = ControlTrajectory(1.0, [(1.0, 0.8 * sx), (0.5, 0.5 * sz), (0.5, -1.1 * sz)])
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(1.0, 1.0))
        omegas = [0.0, 0.9, 3.1]
        ya = filter_operators(base, coupling, omegas)
        yb = filter_operators(alt, coupling, omegas)
        assert np.max(np.abs(ya - yb)) < 1e-9


class TestDeviceCorrelator:
    def test_eigenvector_gives_zero(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(1.0, 1.0))
        s = device_correlator(traj, coupling, KET0, [0.0, 1.0, 2.0])
        assert np.max(np.abs(s)) < 1e-14

    def test_plus_state_sinc_squared(self):
        tau = 1.0
        traj = constant_trajectory(np.zeros((2, 2)), tau)
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(1.0, 1.0))
        omegas = np.array([0.3, 1.1, 4.0])
        s = device_correlator(traj, coupling, PLUS, omegas)
        expected = 2 * tau * (np.sin(omegas * tau) / (omegas * tau)) ** 2
        assert np.max(np.abs(s[:, 0, 0] - expected)) < 1e-8

    def test_psd_matrices(self, rng):
        traj = ControlTrajectory(1.0, [(1.0, 0.5 * sx), (1.0, 0.3 * sy)])
        coupling = Coupling(system_ops=(sx, sz), bath=gaussian_bath(1.0, 1.0, n_ops=2))
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        s = device_correlator(traj, coupling, psi, np.linspace(-3, 3, 7))
        for mat in s:
            assert np.max(np.abs(mat - dag(mat))) < 1e-12
            assert np.linalg.eigvalsh(mat).min() > -1e-12

    def test_non_uniform_omegas_match_dense_filters(self, rng):
        traj = ControlTrajectory(1.0, [(0.6, random_hermitian(3, rng)),
                                       (1.4, random_hermitian(3, rng))])
        coupling = Coupling(system_ops=(random_hermitian(3, rng), random_hermitian(3, rng)),
                            bath=gaussian_bath(1.0, 1.0, n_ops=2))
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        omegas = np.array([-7.3, -0.41, 0.0, 0.05, 2.2, 2.25, 19.0])
        y = filter_operators(traj, coupling, omegas)
        ypsi = y @ psi
        centered = ypsi - (ypsi @ psi.conj())[..., None] * psi
        dense = np.einsum("awc,bwc->wab", centered.conj(), centered) / 2.0
        s = device_correlator(traj, coupling, psi, omegas)
        assert np.max(np.abs(s - dense)) <= 1e-12 * np.max(np.abs(dense))


class TestFrequencyDomainError:
    def test_zero_spectrum(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        dead = Bath(n_ops=1, label="off",
                    spectral=lambda w: np.zeros((1, 1), dtype=complex))
        res = error_frequency_domain(
            traj, Coupling(system_ops=(sz,), bath=dead), PLUS, FrequencyGrid(10.0, 201)
        )
        assert res.epsilon == 0.0

    def test_flat_bath_parseval_value(self):
        # band-limited white spectrum: eps -> 4 pi R0 tau as the band widens
        tau, r0 = 1.0, 1e-4
        traj = constant_trajectory(np.zeros((2, 2)), tau)
        coupling = Coupling(system_ops=(sz,), bath=flat_bath(r0, cutoff=100.0))
        res = error_frequency_domain(
            traj, coupling, PLUS, FrequencyGrid(omega_max=120.0, n_points=8001)
        )
        assert res.epsilon == pytest.approx(4 * np.pi * r0 * tau, rel=0.02)

    def test_ohmic_cross_route(self):
        traj = constant_trajectory(0.4 * sx, 1.0)
        coupling = Coupling(system_ops=(sz,), bath=ohmic_bath(0.1, 3.0, 2.0))
        et = error_time_domain(traj, coupling, PLUS)
        ef = error_frequency_domain(
            traj, coupling, PLUS, FrequencyGrid(omega_max=60.0, n_points=12001)
        )
        assert abs(et - ef.epsilon) <= 1e-4 * abs(et)

    def test_boundary_warning_on_narrow_grid(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        coupling = Coupling(system_ops=(sz,), bath=flat_bath(1.0, cutoff=100.0))
        res = error_frequency_domain(traj, coupling, PLUS, FrequencyGrid(2.0, 101))
        assert res.boundary_warning

    def test_tabulated_bath_route(self):
        omegas = np.linspace(-30, 30, 3001)
        table = np.exp(-(omegas ** 2) / 8.0) * 0.01
        bath = tabulated_bath(omegas, table)
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        coupling = Coupling(system_ops=(sz,), bath=bath)
        exact = Coupling(system_ops=(sz,), bath=gaussian_bath(0.01, 2.0))
        grid = FrequencyGrid(25.0, 4001)
        res_tab = error_frequency_domain(traj, coupling, PLUS, grid)
        res_exact = error_frequency_domain(traj, exact, PLUS, grid)
        assert res_tab.epsilon == pytest.approx(res_exact.epsilon, rel=1e-4)


class TestRouteEquivalence:
    def test_gaussian_bath_random_trajectories(self, rng):
        for n in (2, 4):
            for _ in range(3):
                segs = [(0.8, random_hermitian(n, rng)), (1.2, random_hermitian(n, rng))]
                traj = ControlTrajectory(1.0, segs)
                coupling = Coupling(
                    system_ops=(random_hermitian(n, rng),),
                    bath=gaussian_bath(0.01, 2.0),
                )
                psi = rng.normal(size=n) + 1j * rng.normal(size=n)
                psi /= np.linalg.norm(psi)
                et = error_time_domain(traj, coupling, psi)
                ef = error_frequency_domain(traj, coupling, psi, FrequencyGrid.for_trajectory(traj))
                assert abs(et - ef.epsilon) <= max(1e-6, 1e-3 * abs(et))


class TestBornVersusExact:
    def test_dephasing_residual_scaling(self):
        # exact gaussian dephasing: off-diagonal factor e^{-2c}, so the exact
        # error of |+> is (1 - e^{-2c})/2 while the second-order value is c
        tau, width = 1.0, 2.0
        base = gaussian_corr_square_integral(1.0, width, tau)
        traj = constant_trajectory(np.zeros((2, 2)), tau)
        residuals = {}
        for c_target in (0.01, 0.025, 0.05, 0.1):
            amp = c_target / base
            coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(amp, width))
            eps_born = error_time_domain(traj, coupling, PLUS)
            assert eps_born == pytest.approx(c_target, rel=1e-6)
            eps_exact = 0.5 * (1.0 - np.exp(-2.0 * c_target))
            assert abs(eps_born - eps_exact) <= 2.0 * c_target ** 2
            residuals[c_target] = abs(eps_born - eps_exact)
        # halving the coupling quarters c and shrinks the residual ~16x
        ratio = residuals[0.1] / residuals[0.05 / 2]
        assert 13.0 <= ratio <= 17.0


class TestDFStateCheck:
    def test_pointer_state(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(0.05, 1.0))
        report = df_state_check(traj, coupling, KET0, FrequencyGrid(8.0, 801), (-4.0, 4.0))
        assert report.predicted_df
        assert abs(report.epsilon_in_support) < 1e-12

    def test_singlet_under_collective_dephasing(self):
        jz = 0.5 * collective_op(sz, 2)
        traj = constant_trajectory(np.zeros((4, 4)), 1.0)
        coupling = Coupling(system_ops=(jz,), bath=gaussian_bath(0.05, 1.0))
        report = df_state_check(
            traj, coupling, singlet_state(), FrequencyGrid(8.0, 801), (-4.0, 4.0)
        )
        assert report.max_residual < 1e-12
        assert abs(report.epsilon_in_support) < 1e-12

    def test_superposition_is_not_df(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(0.05, 1.0))
        report = df_state_check(traj, coupling, PLUS, FrequencyGrid(8.0, 801), (-4.0, 4.0))
        assert report.max_residual > 0.1
        assert report.epsilon_in_support > 0.0


class TestGateSpeedScan:
    def test_flat_bath_scales_linearly(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        coupling = Coupling(system_ops=(sz,), bath=flat_bath(1e-4, cutoff=100.0))
        res = gate_speed_scan(
            traj, coupling, PLUS, [1.0, 2.0], grid=FrequencyGrid(120.0, 8001)
        )
        ratio = res.points[1].epsilon / res.points[0].epsilon
        assert ratio == pytest.approx(2.0, rel=0.05)
        assert res.monotone_increasing

    def test_superohmic_rewards_slow_gates(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        coupling = Coupling(system_ops=(sz,), bath=quartic_gaussian_bath(0.1, 1.0))
        res = gate_speed_scan(traj, coupling, PLUS, [1.0, 2.0, 4.0],
                              grid=FrequencyGrid(30.0, 4001))
        assert res.monotone_decreasing

    def test_zero_coupling_is_flat_zero(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        dead = Bath(n_ops=1, label="off",
                    spectral=lambda w: np.zeros((1, 1), dtype=complex))
        res = gate_speed_scan(traj, Coupling(system_ops=(sz,), bath=dead),
                              PLUS, [1.0, 2.0, 4.0], grid=FrequencyGrid(10.0, 201))
        assert all(p.epsilon == 0.0 for p in res.points)

    def test_matches_rescaled_frequency_route(self, rng, monkeypatch):
        import decofree.born as born_module

        traj = ControlTrajectory(1.0, [(0.5, random_hermitian(3, rng)),
                                       (0.9, random_hermitian(3, rng)),
                                       (0.6, random_hermitian(3, rng))])
        coupling = Coupling(system_ops=(random_hermitian(3, rng), random_hermitian(3, rng)),
                            bath=gaussian_bath(0.01 * np.array([[1.0, 0.4], [0.4, 0.9]]),
                                               2.0, n_ops=2))
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        grid = FrequencyGrid.for_trajectory(traj)
        lambdas = [1.0, 2.0, 3.0, 0.5]
        calls = []
        original = born_module._centered

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(born_module, "_centered", counting)
        res = gate_speed_scan(traj, coupling, psi, lambdas, grid=grid)
        assert len(calls) == 1
        monkeypatch.undo()
        for lam, point in zip(lambdas, res.points):
            ref = error_frequency_domain(traj.rescaled(lam), coupling, psi, grid)
            assert abs(point.epsilon - ref.epsilon) <= 1e-12 * abs(ref.epsilon)
            assert point.boundary_warning == ref.boundary_warning

    def test_rescaled_trajectory_keeps_unitary(self):
        traj = ControlTrajectory(1.0, [(1.0, 0.7 * sx), (1.0, 0.2 * sz)])
        scaled = traj.rescaled(3.0)
        u1 = traj.propagator(-1.0, 1.0)
        u2 = scaled.propagator(-3.0, 3.0)
        assert np.max(np.abs(u1 - u2)) < 1e-12


class TestStationaryCorrelatorDiagnostic:
    def test_peak_position_matches_device_correlator(self):
        # rotating coupling: both spectra must peak near the rotation frequency
        omega0 = 3.0
        tau = 8.0
        traj = constant_trajectory(0.5 * omega0 * sz, tau)
        coupling = Coupling(system_ops=(sx,), bath=gaussian_bath(1.0, 1.0))
        omegas = np.linspace(-6.0, 6.0, 241)
        s_dev = device_correlator(traj, coupling, KET0, omegas, n_time=801)
        est = stationary_correlator_estimate(traj, coupling, KET0, omegas, n_time=801)
        peak_dev = omegas[np.argmax(np.abs(s_dev[:, 0, 0]))]
        peak_est = omegas[np.argmax(np.abs(est[:, 0, 0]))]
        bin_width = omegas[1] - omegas[0]
        assert abs(peak_dev - peak_est) <= bin_width + 1e-12
        assert abs(abs(peak_dev) - omega0) <= 0.2

    def test_matches_per_lag_oracle(self, rng):
        traj = ControlTrajectory(1.0, [(0.7, 0.9 * sx + 0.3 * sz), (1.3, 0.5 * sy)])
        coupling = Coupling(system_ops=(sx, sz), bath=gaussian_bath(1.0, 1.0, n_ops=2))
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        omegas = np.linspace(-6.0, 6.0, 25)
        est = stationary_correlator_estimate(traj, coupling, psi, omegas, n_time=41)
        s_grid, _, ops = interaction_ops(traj, coupling, 41)
        ref = stationary_covariance_spectrum(s_grid, ops, psi, omegas)
        assert np.max(np.abs(est - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_requires_normalized_state(self):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(1.0, 1.0))
        with pytest.raises(ValueError, match="normalized"):
            stationary_correlator_estimate(traj, coupling, np.array([1.0, 1.0]), [0.0])


class TestLagSums:
    @pytest.mark.parametrize("g", [1, 9])
    def test_matches_double_loop(self, rng, g):
        x = rng.normal(size=(2, g, 3)) + 1j * rng.normal(size=(2, g, 3))
        d = _lag_sums(x)
        ref = lag_sums_double_loop(x)
        assert d.shape == ref.shape == (2 * g - 1, 2, 2)
        assert np.max(np.abs(d - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestBathArrays:
    FAMILIES = (
        gaussian_bath(np.array([[1.0, 0.3], [0.3, 0.5]]), 1.3, n_ops=2),
        flat_bath(0.2, cutoff=2.0),
        ohmic_bath(0.5, -0.5, 1.5),
        ohmic_bath(0.5, 1.5, 1.5, n_ops=2),
        quartic_gaussian_bath(0.4, 1.1),
        tabulated_bath(np.linspace(-3.0, 3.0, 61), np.exp(-np.linspace(-3.0, 3.0, 61) ** 2)),
    )
    INPUTS = (
        [pytest.param(b, "spectral_matrix", id=f"{b.label}-{b.n_ops}") for b in FAMILIES]
        + [pytest.param(b, "correlation_matrix", id=f"{b.label}-{b.n_ops}-correlation")
           for b in FAMILIES if b.correlation is not None]
    )

    @pytest.mark.parametrize("bath, method", INPUTS)
    def test_array_equals_scalar_evaluation(self, bath, method):
        if method == "spectral_matrix":
            points = np.array([-4.0, -2.0, -0.7, 0.0, 1e-3, 0.9, 2.0, 3.0, 5.5])
        else:
            points = np.array([-2.5, -0.3, 0.0, 1e-9, 0.7, 3.0])
        evaluate = getattr(bath, method)
        batch = evaluate(points)
        assert batch.shape == (points.size, bath.n_ops, bath.n_ops)
        for x, mat in zip(points, batch):
            single = evaluate(x)
            assert single.shape == (bath.n_ops, bath.n_ops)
            assert np.allclose(mat, single, rtol=1e-14, atol=0.0)

    def test_flat_correlation_at_zero_is_exact(self):
        level, cutoff = 0.2, 2.0
        bath = flat_bath(level, cutoff=cutoff)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero = bath.correlation_matrix(np.array([0.0, 0.4]))[0]
            single = bath.correlation_matrix(0.0)
        assert at_zero[0, 0] == single[0, 0] == 2.0 * level * cutoff

    def test_ohmic_sub_ohmic_is_silent_at_nonpositive_frequencies(self):
        bath = ohmic_bath(0.5, -0.5, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = bath.spectral_matrix(np.array([-2.0, -1e-9, 0.0, 0.5]))
        assert np.all(values[:3] == 0.0)
        assert values[3, 0, 0].real > 0.0

    def test_tabulated_validation(self):
        omegas = np.linspace(-1.0, 1.0, 5)
        good = np.tile(np.array([[1.0, 0.5j], [-0.5j, 1.0]]), (5, 1, 1))
        tabulated_bath(omegas, good)
        skew = good.copy()
        skew[2, 0, 1] = 0.1
        with pytest.raises(ValueError, match="hermitian"):
            tabulated_bath(omegas, skew)
        indefinite = good.copy()
        indefinite[3] = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="PSD"):
            tabulated_bath(omegas, indefinite)
