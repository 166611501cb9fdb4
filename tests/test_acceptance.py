"""Acceptance suite: every criterion at its frozen tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances and runtime budgets are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from decofree.algebra import (
    block_decompose,
    commutant,
    commutant_bounds,
    detailed_balance_channel_from_gibbs,
    df_algebra_discrete,
    df_algebra_semigroup,
    multiplicative_domain,
    relaxation_trace,
    subspace_contains,
)
from decofree.born import (
    Coupling,
    ControlTrajectory,
    FrequencyGrid,
    born_state,
    constant_trajectory,
    error_frequency_domain,
    error_map,
    error_time_domain,
    flat_bath,
    gate_speed_scan,
    gaussian_bath,
    quartic_gaussian_bath,
)
from decofree.channels import (
    cp_check,
    dephasing_channel,
    kadison_defect,
    random_unital_channel,
)
from decofree.lindblad import GKLSGenerator, build_gibbs_generator, dissipativity_defect
from decofree.operators import (
    dag,
    eye,
    random_density,
    random_hermitian,
    sm,
    sx,
    sz,
)
from decofree.symmetry import (
    build_permutation_rep,
    build_superradiance_generator,
    collective_op,
    collective_spin,
    singlet_state,
)
from oracles import (
    commutant_dimension,
    definitional_df_subalgebra,
    principal_angles,
    gaussian_corr_square_integral,
)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
KET0 = np.array([1.0, 0.0], dtype=complex)


def passed(num, text):
    print(f"\nACCEPTANCE {num:2d}: PASS - {text}")


@pytest.fixture(scope="module")
def gibbs_qubit():
    return build_gibbs_generator(-0.5 * sz, 1.0, [sm])


@pytest.fixture(scope="module")
def gibbs_channel(gibbs_qubit):
    return detailed_balance_channel_from_gibbs(gibbs_qubit, 1.0)


def test_01_multiplicative_domain_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for k in range(50):
        n = 2 if k < 25 else 3
        chan = random_unital_channel(n, int(rng.integers(2, n * n + 1)), rng)
        linear = multiplicative_domain(chan)
        brute = definitional_df_subalgebra(chan)
        assert len(brute) == linear.dim
        if linear.dim:
            angles = principal_angles(list(linear.basis), brute)
            assert angles.size == 0 or angles.max() < 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    passed(1, f"linearized DF algebra == brute-force zero set on 50 channels "
              f"({elapsed:.1f}s)")


def test_02_dephasing_domain_structure():
    alg = multiplicative_domain(dephasing_channel(0.25))
    assert alg.dim == 2
    decomp = block_decompose(alg)
    assert decomp.blocks == ((1, 1), (1, 1))
    passed(2, "dephasing p=0.25 gives the diagonal algebra, blocks [(1,1),(1,1)]")


def test_03_collective_spin_commutant_dimensions():
    start = time.perf_counter()
    dims = {}
    for n_sites, expected in [(2, 2), (3, 5), (4, 14)]:
        ops = list(collective_spin(n_sites))
        dims[n_sites] = commutant(ops).dim
        assert dims[n_sites] == expected
        assert commutant_dimension(ops, 2 ** n_sites) == expected
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    passed(3, f"collective su(2) commutant dims {dims} ({elapsed:.1f}s)")


def test_04_thermal_dissipation_identity(gibbs_qubit):
    rng = np.random.default_rng(104)
    gen = gibbs_qubit.generator
    metric = gibbs_qubit.metric()
    sigma = gibbs_qubit.stationary_state
    worst_sum = worst_quad = 0.0
    for _ in range(100):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = np.trace(sigma @ dissipativity_defect(gen, a)).real
        rhs = 0.0
        for v, omega in gibbs_qubit.eigen_ops:
            down = v @ a - a @ v
            up = dag(v) @ a - a @ dag(v)
            rhs += metric.inner(down, down).real
            rhs += np.exp(-omega / gibbs_qubit.temperature) * metric.inner(up, up).real
        quad = -2.0 * metric.inner(a, gen.dissipative_part(a)).real
        worst_sum = max(worst_sum, abs(lhs - rhs))
        worst_quad = max(worst_quad, abs(lhs - quad))
    assert worst_sum <= 1e-10
    assert worst_quad <= 1e-10
    passed(4, f"thermal dissipation identity on 100 operators "
              f"(residuals {worst_sum:.1e}, {worst_quad:.1e})")


def test_05_limited_relaxation(gibbs_channel):
    trace = relaxation_trace(gibbs_channel, sx, k_max=20)
    assert np.all(np.diff(trace.errors) <= 1e-12)
    ratio = trace.errors[20] / trace.errors[0]
    assert ratio <= 1e-4
    assert trace.rate_estimate == pytest.approx(trace.dissipative_gap, rel=0.05)
    passed(5, f"relaxation onto the DF part: e20/e0 = {ratio:.2e}, "
              f"rate {trace.rate_estimate:.4f} vs gap {trace.dissipative_gap:.4f}")


def test_06_commutant_containment_chains(gibbs_channel):
    checked = []
    # dephasing: trivial unitary part, so all three bounds are defined
    deph = dephasing_channel(0.25)
    bounds = commutant_bounds(eye(2), deph)
    nalg = multiplicative_domain(deph)
    df = df_algebra_discrete(deph)
    assert bounds.of_ops.is_subalgebra_of(bounds.of_pair_products, tol=1e-7)
    assert bounds.of_pair_products.is_subalgebra_of(nalg, tol=1e-7)
    assert bounds.of_all_products is not None
    assert bounds.of_ops.is_subalgebra_of(bounds.of_all_products, tol=1e-7)
    assert bounds.of_all_products.is_subalgebra_of(df.algebra, tol=1e-7)
    checked.append("dephasing")

    # collective decay (superradiance) at N = 2, one time step
    sr = build_superradiance_generator(2, 1.0, 1.0)
    from scipy.linalg import expm

    from decofree.channels import channel_from_superop, compose, unitary_channel

    gamma_d = channel_from_superop(expm(sr.dissipator_matrix()), tol=1e-7)
    u = expm(-1j * sr.hamiltonian)
    bounds = commutant_bounds(u, gamma_d)
    full = compose(unitary_channel(u), gamma_d)
    nalg = multiplicative_domain(full)
    df = df_algebra_discrete(full)
    assert bounds.unitary_commutes
    assert bounds.of_ops.is_subalgebra_of(bounds.of_pair_products, tol=1e-7)
    assert bounds.of_pair_products.is_subalgebra_of(nalg, tol=1e-7)
    assert bounds.of_all_products is not None
    assert bounds.of_ops.is_subalgebra_of(bounds.of_all_products, tol=1e-7)
    assert bounds.of_all_products.is_subalgebra_of(df.algebra, tol=1e-7)
    checked.append("superradiance N=2")
    passed(6, f"commutant lower-bound chains verified on {checked}")


def test_07_symmetry_containment_chain():
    for n_sites in (2, 3):
        rep = build_permutation_rep(n_sites, 2)
        group_alg = rep.group_algebra()
        su2_comm = commutant(list(collective_spin(n_sites)))
        v = collective_op(sm, n_sites)
        v_comm = commutant([v])
        assert group_alg.is_subalgebra_of(su2_comm, tol=1e-7)
        assert subspace_contains(list(v_comm.basis), list(su2_comm.basis), tol=1e-7)
        gen = build_superradiance_generator(n_sites, 1.0, 1.0)
        lower = df_algebra_semigroup(gen)
        assert group_alg.is_subalgebra_of(lower, tol=1e-7)
    v2 = collective_op(sm, 2)
    assert np.linalg.norm(v2 @ singlet_state()) <= 1e-12
    passed(7, "permutation algebra inside su(2) commutant inside the DF lower "
              "bound at N=2,3; singlet is dark")


def test_08_born_route_equivalence():
    rng = np.random.default_rng(108)
    start = time.perf_counter()
    worst = 0.0
    for k in range(20):
        n = 2 if k < 10 else 4
        n_segments = int(rng.integers(1, 4))
        durations = rng.uniform(0.3, 1.0, size=n_segments)
        durations *= 2.0 / durations.sum()
        traj = ControlTrajectory(
            1.0, [(d, random_hermitian(n, rng)) for d in durations]
        )
        n_ops = int(rng.integers(1, 3))
        amp = 0.01 if n_ops == 1 else 0.01 * np.array([[1.0, 0.4], [0.4, 0.9]])
        coupling = Coupling(
            system_ops=tuple(random_hermitian(n, rng) for _ in range(n_ops)),
            bath=gaussian_bath(amp, rng.uniform(1.0, 3.0), n_ops=n_ops),
        )
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        eps_t = error_time_domain(traj, coupling, psi)
        eps_f = error_frequency_domain(
            traj, coupling, psi, FrequencyGrid.for_trajectory(traj)
        ).epsilon
        diff = abs(eps_t - eps_f)
        assert diff <= max(1e-6, 1e-3 * abs(eps_t))
        worst = max(worst, diff / max(abs(eps_t), 1e-6))
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    passed(8, f"time/frequency error routes agree on 20 trajectories "
              f"(worst rel {worst:.1e}, {elapsed:.1f}s)")


def test_09_born_versus_exact_dephasing():
    tau, width = 1.0, 2.0
    base = gaussian_corr_square_integral(1.0, width, tau)
    traj = constant_trajectory(np.zeros((2, 2)), tau)
    residuals = {}
    for c in (0.01, 0.025, 0.05, 0.1):
        coupling = Coupling(system_ops=(sz,), bath=gaussian_bath(c / base, width))
        eps_born = error_time_domain(traj, coupling, PLUS)
        assert eps_born == pytest.approx(c, rel=1e-6)
        eps_exact = 0.5 * (1.0 - np.exp(-2.0 * c))
        residuals[c] = abs(eps_born - eps_exact)
        assert residuals[c] <= 2.0 * c ** 2
    shrink = residuals[0.1] / residuals[0.025]
    assert 13.0 <= shrink <= 17.0
    passed(9, f"second-order dephasing error within 2c^2 of the exact value; "
              f"residual shrinks {shrink:.1f}x when the coupling halves")


def test_10_gate_speed_strategies():
    traj = constant_trajectory(np.zeros((2, 2)), 1.0)
    flat = Coupling(system_ops=(sz,), bath=flat_bath(1e-4, cutoff=100.0))
    res_flat = gate_speed_scan(traj, flat, PLUS, [1.0, 2.0],
                               grid=FrequencyGrid(120.0, 8001))
    ratio = res_flat.points[1].epsilon / res_flat.points[0].epsilon
    assert ratio == pytest.approx(2.0, rel=0.05)

    superohmic = Coupling(system_ops=(sz,), bath=quartic_gaussian_bath(0.1, 1.0))
    res_slow = gate_speed_scan(traj, superohmic, PLUS, [1.0, 2.0, 4.0],
                               grid=FrequencyGrid(30.0, 4001))
    eps = [p.epsilon for p in res_slow.points]
    assert eps[0] > eps[1] > eps[2]
    passed(10, f"flat bath doubles with duration (ratio {ratio:.3f}); "
               f"quartic spectrum rewards slow gates {[round(e, 5) for e in eps]}")


def test_11_df_eigenvector_criterion():
    jz = 0.5 * collective_op(sz, 2)
    traj2 = constant_trajectory(np.zeros((4, 4)), 1.0)
    collective = Coupling(system_ops=(jz,), bath=gaussian_bath(0.05, 1.0))
    eps_singlet_t = error_time_domain(traj2, collective, singlet_state())
    eps_singlet_f = error_frequency_domain(
        traj2, collective, singlet_state(), FrequencyGrid.for_trajectory(traj2)
    ).epsilon
    assert abs(eps_singlet_t) <= 1e-12
    assert abs(eps_singlet_f) <= 1e-12

    traj1 = constant_trajectory(np.zeros((2, 2)), 1.0)
    pointer = Coupling(system_ops=(sz,), bath=gaussian_bath(0.05, 1.0))
    eps0_t = error_time_domain(traj1, pointer, KET0)
    eps0_f = error_frequency_domain(
        traj1, pointer, KET0, FrequencyGrid.for_trajectory(traj1)
    ).epsilon
    assert abs(eps0_t) <= 1e-12
    assert abs(eps0_f) <= 1e-12
    passed(11, "singlet under collective dephasing and pointer state under sz "
               "coupling are exactly error free")


def test_12_positivity_suites():
    rng = np.random.default_rng(112)
    worst_choi = np.inf
    worst_kadison = np.inf
    worst_dissipativity = np.inf
    for _ in range(200):
        n = int(rng.integers(2, 5))
        chan = random_unital_channel(n, int(rng.integers(1, n * n + 1)), rng)
        worst_choi = min(worst_choi, cp_check(chan).min_eigenvalue)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        defect = kadison_defect(chan, a)
        worst_kadison = min(
            worst_kadison, np.linalg.eigvalsh(0.5 * (defect + dag(defect))).min()
        )
        gen = GKLSGenerator(
            random_hermitian(n, rng),
            [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
             for _ in range(int(rng.integers(1, 4)))],
        )
        diss = dissipativity_defect(gen, a)
        worst_dissipativity = min(
            worst_dissipativity, np.linalg.eigvalsh(0.5 * (diss + dag(diss))).min()
        )
    assert worst_choi >= -1e-10
    assert worst_kadison >= -1e-10
    assert worst_dissipativity >= -1e-10

    traj = ControlTrajectory(1.0, [(1.0, 0.6 * sx), (1.0, 0.2 * sz)])
    coupling = Coupling(system_ops=(sx,), bath=gaussian_bath(0.02, 2.0))
    emap = error_map(traj, coupling, n_time=201)
    k_min = np.linalg.eigvalsh(emap.k_operator).min()
    assert k_min >= -1e-10
    choi_min = cp_check(emap.phi_schrodinger, tol=1e-9).min_eigenvalue
    assert choi_min >= -1e-9
    worst_trace = 0.0
    for _ in range(10):
        rho = random_density(2, rng)
        out = born_state(traj, coupling, rho, emap=emap)
        worst_trace = max(worst_trace, abs(np.trace(out).real - 1.0))
    assert worst_trace <= 1e-9
    passed(12, f"positivity suites: Choi {worst_choi:.1e}, Kadison defect "
               f"{worst_kadison:.1e}, dissipativity {worst_dissipativity:.1e}, "
               f"K {k_min:.1e}, trace drift {worst_trace:.1e}")
