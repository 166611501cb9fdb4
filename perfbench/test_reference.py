"""The benchmark's oracles against brute-force numpy computations.

    python3 -m pytest -q perfbench/test_reference.py
"""

from __future__ import annotations

import math
import os
import sys
from functools import reduce
from itertools import permutations

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# np.trapezoid is numpy >= 2; np.trapz is its older name
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _commutant_dim(ops) -> int:
    n = ops[0].shape[0]
    one = np.eye(n)
    stacked = np.vstack([np.kron(one, a) - np.kron(a.T, one) for a in ops])
    return ref.nullity(stacked)


@pytest.mark.parametrize("tau,width", [(1.0, 2.0), (0.7, 3.5), (1.2, 1.5)])
def test_gaussian_dephasing_closed_form(tau, width):
    amp = 0.013
    s = np.linspace(-tau, tau, 2001)
    lag = s[:, None] - s[None, :]
    corr = amp * width * np.sqrt(2 * np.pi) * np.exp(-0.5 * (width * lag) ** 2)
    brute = _trapezoid(_trapezoid(corr, s, axis=1), s)
    assert ref.gaussian_dephasing_epsilon(amp, width, tau) == pytest.approx(brute, rel=1e-5)


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_schur_weyl_blocks_against_brute_force(n_sites):
    perms = ref.all_permutation_matrices(n_sites)
    s_n = ref.schur_weyl_blocks(n_sites, "S_N")
    su2 = ref.schur_weyl_blocks(n_sites, "su2")
    assert sum(nj * dj for nj, dj in s_n) == 2 ** n_sites
    # the span of the group is the S_N algebra; its commutant is the su(2) algebra
    assert ref.orthonormal_span(perms).shape[1] == ref.blocks_dimension(s_n)
    assert _commutant_dim(ref.adjacent_transpositions(n_sites)) == ref.blocks_dimension(su2)
    assert _commutant_dim(ref.collective_spin(n_sites)) == ref.blocks_dimension(s_n)


@pytest.mark.parametrize("n_sites", [2, 3])
def test_collective_dephasing_blocks(n_sites):
    jz = ref.collective(0.5 * ref.SZ, n_sites)
    blocks = ref.collective_dephasing_blocks(n_sites)
    assert _commutant_dim([jz]) == ref.blocks_dimension(blocks)
    assert ref.blocks_dimension(blocks) == sum(math.comb(n_sites, k) ** 2
                                               for k in range(n_sites + 1))


def test_permutation_matrix_permutes_product_states():
    rng = np.random.default_rng(0)
    vs = [ref.random_unit_vector(2, rng) for _ in range(3)]
    for perm in permutations(range(3)):
        r = ref.permutation_matrix(perm)
        assert np.allclose(r @ reduce(np.kron, vs), reduce(np.kron, [vs[p] for p in perm]))
    assert len(ref.adjacent_transpositions(4)) == 3


@pytest.mark.parametrize("n_sites", [2, 3])
def test_superradiance_channel_matches_rk4(n_sites):
    kraus = ref.superradiance_channel(n_sites)
    n = 2 ** n_sites
    assert np.allclose(sum(w.conj().T @ w for w in kraus), np.eye(n), atol=1e-12)
    h, ops = ref.superradiance_model(n_sites)
    rng = np.random.default_rng(1)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    rho /= np.trace(rho)

    def rhs(x):
        out = -1j * (h @ x - x @ h)
        for v in ops:
            vv = v.conj().T @ v
            out += v @ x @ v.conj().T - 0.5 * (vv @ x + x @ vv)
        return out

    # brute force: RK4 on the matrix ODE up to t = 1
    x, dt = rho.copy(), 1e-3
    for _ in range(1000):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.allclose(sum(w @ rho @ w.conj().T for w in kraus), x, atol=1e-10)


@pytest.mark.parametrize("n_sites", [2, 3])
def test_dark_state_is_dark(n_sites):
    d = ref.dark_state(n_sites, np.random.default_rng(2))
    h, ops = ref.superradiance_model(n_sites)
    assert np.linalg.norm(ops[0] @ d) < 1e-12
    energy = np.vdot(d, h @ d)
    assert np.linalg.norm(h @ d - energy * d) < 1e-12


def test_multiplicativity_residual():
    p = 0.3
    kraus = [math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * ref.SZ]
    diagonal = [np.eye(2) / math.sqrt(2), ref.SZ / math.sqrt(2)]
    assert ref.multiplicativity_residual(kraus, diagonal, 5) < 1e-14
    assert ref.multiplicativity_residual(kraus, [ref.SX / math.sqrt(2)], 1) > 0.1


def test_algebra_closure_and_containment():
    diag = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0]) / math.sqrt(2)]
    res = ref.algebra_closure(diag)
    assert res["rank"] == 2 and max(res["unit"], res["adjoint"], res["product"]) < 1e-14
    open_span = [np.eye(2) / math.sqrt(2), ref.SX / math.sqrt(2), ref.SZ / math.sqrt(2)]
    assert ref.algebra_closure(open_span)["product"] > 0.1
    assert ref.contains(open_span, [ref.SX + 2 * ref.SZ]) < 1e-14
    assert ref.contains(open_span, [ref.SY]) > 0.9


def test_tabulated_copy_samples_the_gaussian():
    bath = {"type": "gaussian", "coupling": [[0.02, 0.005], [0.005, 0.01]], "width": 2.5}
    tab = workloads.tabulate_gaussian(bath, 2, 1.0, n_points=11)
    omegas = np.asarray(tab["omega"])
    values = np.asarray(tab["R"])
    expect = np.exp(-omegas ** 2 / (2 * 2.5 ** 2))[:, None, None] * np.asarray(bath["coupling"])
    assert omegas[0] == -40.0 and omegas[-1] == 40.0
    assert np.allclose(values, expect, rtol=0, atol=1e-17)


def test_span_self_time_excludes_children():
    # clock readings: outer starts, two inner calls of 2 s and 3 s, outer ends at 10 s
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.span_wrapper("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = tracer.span_wrapper("outer", outer_body)
    tracer.job_id = 7
    outer()
    labels = [tracer.labels[i] for i in tracer.name]
    assert labels == ["outer", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 0] and list(tracer.job) == [7, 7, 7]
    assert list(tracer.start) == [0.0, 1.0, 4.0] and list(tracer.end) == [10.0, 3.0, 7.0]
    assert list(tracer.self_time) == [5.0, 2.0, 3.0]
    assert tracer.calls == {"outer": 1, "inner": 2}


def test_nullspace_rows_keeps_the_tallest_matrix():
    tracer = spans.Tracer()
    rows = tracer.nullspace_rows(lambda mat, rtol=0.0: mat.shape[1])
    assert rows(np.zeros((5, 3)), rtol=1e-9) == 3
    assert rows(np.zeros((2, 4))) == 4
    assert tracer.nullspace_max_rows == 5
