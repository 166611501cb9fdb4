import dataclasses
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
    route_errors,
    tabulated_bath,
    _centered,
    _fft_size,
    _interaction_apply,
    _lag_sums,
    _lag_transform,
    _spectral_error,
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

    def test_rejects_asymmetry_between_sample_times(self):
        # the odd part vanishes at t = 0, 0.37 and 1, so a check at those
        # three times alone passes this bath (and eps_time reads about 2.55);
        # every other +-lh pair of lags breaks C(-t) = C(t)†
        bad = Bath(n_ops=1, label="bad", correlation=lambda t: (
            np.exp(-t ** 2) + t * (t ** 2 - 0.37 ** 2) * (t ** 2 - 1.0))[..., None, None])
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        coupling = Coupling(system_ops=(sz,), bath=bad)
        with pytest.raises(ValueError, match="hermiticity"):
            error_time_domain(traj, coupling, PLUS)
        with pytest.raises(ValueError, match="hermiticity"):
            route_errors(traj, coupling, PLUS, FrequencyGrid.for_trajectory(traj))


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
        # the lag-sum eps agrees with 1 - <U psi| Gamma*(psi psi†) |U psi> of the dense map
        traj, coupling, _ = dephasing_setup
        emap = error_map(traj, coupling)
        for _ in range(5):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            u = traj.propagator(-1.0, 1.0)
            overlap = np.vdot(u @ psi, born_state(traj, coupling, rho, emap=emap) @ (u @ psi))
            eps = error_time_domain(traj, coupling, psi)
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
        s = device_correlator(traj, coupling, KET0, FrequencyGrid(2.0, 5))
        assert np.max(np.abs(s)) < 1e-14

    def test_plus_state_sinc_squared(self):
        tau = 1.0
        traj = constant_trajectory(np.zeros((2, 2)), tau)
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(1.0, 1.0))
        grid = FrequencyGrid(4.0, 41)
        s = device_correlator(traj, coupling, PLUS, grid)
        expected = 2 * tau * np.sinc(grid.points * tau / np.pi) ** 2
        assert np.max(np.abs(s[:, 0, 0] - expected)) < 1e-8

    def test_psd_matrices(self, rng):
        traj = ControlTrajectory(1.0, [(1.0, 0.5 * sx), (1.0, 0.3 * sy)])
        coupling = Coupling(system_ops=(sx, sz), bath=gaussian_bath(1.0, 1.0, n_ops=2))
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        s = device_correlator(traj, coupling, psi, FrequencyGrid(3.0, 7))
        for mat in s:
            assert np.max(np.abs(mat - dag(mat))) < 1e-12
            assert np.linalg.eigvalsh(mat).min() > -1e-12

    def test_matches_dense_filters(self, rng):
        traj = ControlTrajectory(1.0, [(0.6, random_hermitian(3, rng)),
                                       (1.4, random_hermitian(3, rng))])
        coupling = Coupling(system_ops=(random_hermitian(3, rng), random_hermitian(3, rng)),
                            bath=gaussian_bath(1.0, 1.0, n_ops=2))
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        grid = FrequencyGrid(19.0, 39)
        y = filter_operators(traj, coupling, grid.points)
        ypsi = y @ psi
        centered = ypsi - (ypsi @ psi.conj())[..., None] * psi
        dense = np.einsum("awc,bwc->wab", centered.conj(), centered) / 2.0
        s = device_correlator(traj, coupling, psi, grid)
        assert np.max(np.abs(s - dense)) <= 1e-12 * np.max(np.abs(dense))


class TestLagTransform:
    @pytest.mark.parametrize("n_points", [4001, 4000])
    @pytest.mark.parametrize("lam", [1.0, 8.0])
    def test_matches_dense_sum_at_default_sizes(self, rng, n_points, lam):
        # the CLI's grids (401 time points, frequencies out to 40/tau) and an
        # even point count; the step 8h is what a scan to lambda = 8 transforms
        traj = ControlTrajectory(1.0, [(0.7, random_hermitian(3, rng)),
                                       (1.3, random_hermitian(3, rng))])
        coupling = Coupling(system_ops=(random_hermitian(3, rng), random_hermitian(3, rng)),
                            bath=gaussian_bath(1.0, 1.0, n_ops=2))
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        s_grid, weights, centered = _centered(traj, coupling, psi, 401)
        d = _lag_sums(centered * weights[:, None])
        h = lam * (s_grid[1] - s_grid[0])
        grid = FrequencyGrid.for_trajectory(traj, n_points=n_points)
        lags = np.arange(1 - s_grid.size, s_grid.size)
        dense = np.einsum("wl,lab->wab", np.exp(-1j * np.outer(grid.points, lags * h)), d)
        fast = _lag_transform(d, h, grid)
        assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(dense))


class TestFrequencyGrid:
    @pytest.mark.parametrize("n_points", [201.0, True, "201"])
    def test_rejects_non_integer_point_count(self, n_points):
        with pytest.raises(ValueError, match="integer"):
            FrequencyGrid(10.0, n_points)

    def test_accepts_numpy_integer_point_count(self):
        assert FrequencyGrid(10.0, np.int64(201)).points.size == 201

    def test_points_and_steps_are_built_once_and_read_only(self):
        grid = FrequencyGrid(10.0, 201)
        assert grid.points is grid.points and grid.steps is grid.steps
        assert np.array_equal(grid.points, np.linspace(-10.0, 10.0, 201))
        assert np.array_equal(grid.steps, np.diff(grid.points))
        for values in (grid.points, grid.steps):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.0


def test_fft_size_is_the_smallest_five_smooth_length():
    smooth = sorted(2 ** a * 3 ** b * 5 ** c for a in range(14) for b in range(9)
                    for c in range(6) if 2 ** a * 3 ** b * 5 ** c <= 8192)
    for n in range(1, 5001):
        assert _fft_size(n) == next(m for m in smooth if m >= n), n


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

    @pytest.mark.parametrize("profile", [1j, 1.0])
    def test_imaginary_overlap_warns(self, profile):
        # only a spectrum with a nonnegligible imaginary part makes the overlap complex
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        bath = Bath(n_ops=1, label="complex", spectral=lambda w: profile)
        coupling = Coupling(system_ops=(sz,), bath=bath)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            error_frequency_domain(traj, coupling, PLUS, FrequencyGrid(10.0, 201))
        messages = [str(w.message) for w in caught]
        assert messages == (["spectral overlap has a nonnegligible imaginary part"]
                            if profile == 1j else [])


# hermitian PSD and not diagonal, so every entry of R_ab weighs its own S_ab
TERM_AMP = np.array([[1.0, 0.4 - 0.3j], [0.4 + 0.3j, 0.8]])
TABLE_OMEGAS = np.linspace(-45.0, 45.0, 4501)


def two_term_bath():
    """R(w) = e^{-w^2/2} A_0 + 1_{|w| <= 3} A_1 and its Fourier pair C(t)."""
    return Bath(
        n_ops=2,
        label="two-term",
        spectral=lambda w: np.stack([np.exp(-w ** 2 / 2.0),
                                     np.where(np.abs(w) <= 3.0, 1.0, 0.0)], axis=-1),
        correlation=lambda t: np.stack([np.sqrt(2.0 * np.pi) * np.exp(-t ** 2 / 2.0),
                                        6.0 * np.sinc(3.0 * t / np.pi)], axis=-1),
        amplitude=0.01 * np.stack([TERM_AMP, np.diag([0.3, 0.1])]),
    )


TERM_BATHS = (
    gaussian_bath(0.01 * TERM_AMP, 1.7, n_ops=2),
    flat_bath(0.002 * TERM_AMP, cutoff=12.0, n_ops=2),
    dataclasses.replace(ohmic_bath(0.2, 1.5, 1.5, n_ops=2), amplitude=TERM_AMP),
    dataclasses.replace(quartic_gaussian_bath(0.1, 2.0, n_ops=2), amplitude=TERM_AMP),
    two_term_bath(),
)
ROUTE_BATHS = TERM_BATHS + (
    tabulated_bath(TABLE_OMEGAS,
                   0.01 * np.exp(-TABLE_OMEGAS ** 2 / 8.0)[:, None, None] * TERM_AMP
                   + 0.01 * np.exp(-(TABLE_OMEGAS - 1.0) ** 2)[:, None, None]
                   * np.diag([0.2, 0.5])),
)


def random_two_operator_setup(rng):
    traj = ControlTrajectory(1.0, [(0.8, random_hermitian(3, rng)),
                                   (1.2, random_hermitian(3, rng))])
    ops = (random_hermitian(3, rng), random_hermitian(3, rng))
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    return traj, ops, psi / np.linalg.norm(psi)


class TestBathTerms:
    @pytest.mark.parametrize("bath", TERM_BATHS, ids=lambda b: b.label)
    def test_matrices_are_amplitude_times_profile(self, bath):
        x = np.array([-4.0, -0.7, 0.0, 0.9, 2.5, 13.0])
        terms = bath.terms
        assert terms.shape == (bath.amplitude.size // 4, 2, 2)
        for method, func in (("spectral_matrix", bath.spectral),
                             ("correlation_matrix", bath.correlation)):
            profiles = np.broadcast_to(func(x), x.shape + bath.amplitude.shape[:-2])
            expected = np.einsum("wt,tab->wab", profiles.reshape(x.size, -1), terms)
            assert np.allclose(getattr(bath, method)(x), expected, rtol=1e-14, atol=0.0)

    def test_default_amplitude_is_the_matrix_units(self):
        bath = TERM_BATHS[-1]
        table = ROUTE_BATHS[-1]
        assert np.array_equal(table.amplitude, np.eye(4).reshape(2, 2, 2, 2))
        assert np.array_equal(table.terms.reshape(4, 4), np.eye(4))
        x = np.array([-3.0, 0.5, 2.0])
        assert np.array_equal(table.spectral_profiles(x), table.spectral_matrix(x).reshape(3, 4))
        assert bath.spectral_profiles(x).shape == (3, 2)

    def test_rejects_amplitude_of_wrong_size(self):
        with pytest.raises(ValueError, match="amplitude"):
            Bath(n_ops=2, label="bad", spectral=lambda w: w, amplitude=np.eye(3))

    @pytest.mark.parametrize("bath", ROUTE_BATHS, ids=lambda b: b.label)
    def test_contracted_route_matches_matrix_reference(self, rng, bath):
        # the r^2-channel reference: the full device correlator against the
        # full spectral matrix, sum_ab R_ab S_ab at every grid point
        traj, ops, psi = random_two_operator_setup(rng)
        coupling = Coupling(system_ops=ops, bath=bath)
        grid = FrequencyGrid.for_trajectory(traj)
        res = error_frequency_domain(traj, coupling, psi, grid)
        scan = gate_speed_scan(traj, coupling, psi, [1.0, 2.0], grid=grid)
        for lam, point in zip((1.0, 2.0), scan.points):
            scaled = traj.rescaled(lam)
            s_dev = device_correlator(scaled, coupling, psi, grid)
            overlap = np.einsum("wab,wab->w", bath.spectral_matrix(grid.points), s_dev)
            ref = _spectral_error(scaled.tau, grid, overlap)
            if lam == 1.0:
                assert abs(res.epsilon - ref.epsilon) <= 1e-13 * abs(ref.epsilon)
                assert np.max(np.abs(res.overlap - ref.overlap)) <= 1e-13 * np.max(
                    np.abs(ref.overlap))
                assert res.boundary_warning == ref.boundary_warning
            assert abs(point.epsilon - ref.epsilon) <= 1e-12 * abs(ref.epsilon)
            assert point.boundary_warning == ref.boundary_warning

    @pytest.mark.parametrize("bath, channels", [(TERM_BATHS[0], 1), (TERM_BATHS[-1], 2),
                                                (ROUTE_BATHS[-1], 4)],
                             ids=["gaussian", "two-term", "tabulated"])
    def test_one_transform_of_t_channels(self, rng, monkeypatch, bath, channels):
        import decofree.born as born_module

        shapes = []
        original = born_module._lag_transform

        def counting(d, h, grid):
            shapes.append(d.shape)
            return original(d, h, grid)

        monkeypatch.setattr(born_module, "_lag_transform", counting)
        traj, ops, psi = random_two_operator_setup(rng)
        coupling = Coupling(system_ops=ops, bath=bath)
        grid = FrequencyGrid.for_trajectory(traj)
        route_errors(traj, coupling, psi, grid)
        gate_speed_scan(traj, coupling, psi, [1.0, 2.0, 4.0, 8.0], grid=grid)
        assert shapes == [(801, channels)] * 5


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
    """Eigenvector criterion: psi is error-free when (Y_a(w) - <Y_a(w)>) psi = 0 on
    the band where the bath spectrum is positive; its squared norm is 2 tau S_aa(w)."""

    @staticmethod
    def _criterion(ops, psi):
        n = ops[0].shape[0]
        traj = constant_trajectory(np.zeros((n, n)), 1.0)
        coupling = Coupling(system_ops=ops, bath=gaussian_bath(0.05, 1.0))
        grid = FrequencyGrid(8.0, 801)
        band = np.abs(grid.points) <= 4.0
        s_dev = device_correlator(traj, coupling, psi, grid)
        orth_sq = 2.0 * traj.tau * np.diagonal(s_dev[band], axis1=1, axis2=2).real
        residual = float(np.sqrt(max(orth_sq.max(), 0.0)))
        return residual, error_frequency_domain(traj, coupling, psi, grid).epsilon

    def test_pointer_state(self):
        residual, eps = self._criterion((sz,), KET0)
        assert residual < 1e-12
        assert abs(eps) < 1e-12

    def test_singlet_under_collective_dephasing(self):
        residual, eps = self._criterion((0.5 * collective_op(sz, 2),), singlet_state())
        assert residual < 1e-12
        assert abs(eps) < 1e-12

    def test_superposition_is_not_df(self):
        residual, eps = self._criterion((sz,), PLUS)
        assert residual > 0.1
        assert eps > 0.0


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

    @pytest.mark.parametrize("lambdas", [[2.0], []], ids=["one", "none"])
    def test_fewer_than_two_points_are_not_monotone(self, lambdas):
        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(0.01, 2.0))
        res = gate_speed_scan(traj, coupling, PLUS, lambdas, grid=FrequencyGrid(40.0, 401))
        assert len(res.points) == len(lambdas)
        assert not res.monotone_decreasing
        assert not res.monotone_increasing

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

    @pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_factor_before_any_work(self, monkeypatch, lam):
        import decofree.born as born_module

        def no_work(*args, **kwargs):
            raise AssertionError("interaction picture computed before the factors were checked")

        traj = constant_trajectory(np.zeros((2, 2)), 1.0)
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(1.0, 1.0))
        monkeypatch.setattr(born_module, "_centered", no_work)
        with pytest.raises(ValueError, match="positive and finite"):
            gate_speed_scan(traj, coupling, PLUS, [1.0, lam],
                            grid=FrequencyGrid.for_trajectory(traj))
        with pytest.raises(ValueError, match="positive and finite"):
            traj.rescaled(lam)


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

    @pytest.mark.parametrize("omegas, values", [
        ([1.0, 0.0, -1.0], [0.1, 0.5, 0.9]),
        ([-1.0, 1.0, 1.0], [0.1, 0.5, 0.9]),
        ([-1.0, 0.0, 1.0], [0.1, 0.5]),
        (1.0, 0.5),
        ([[-1.0, 0.0, 1.0]], [[0.1, 0.5, 0.9]]),
        ([-1.0, 1.0], np.ones((2, 1, 2))),
    ], ids=["decreasing", "repeated", "unequal-lengths", "scalars", "two-dimensional",
            "non-square"])
    def test_tabulated_table_np_interp_cannot_read(self, omegas, values):
        with pytest.raises(ValueError, match="increase strictly"):
            tabulated_bath(omegas, values)
