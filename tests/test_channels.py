import numpy as np
import pytest

from decofree.algebra import df_algebra_discrete, multiplicative_domain
from decofree.channels import (
    REDUCED_TOL,
    KrausMap,
    choi_matrix,
    compose,
    cp_check,
    dephasing_channel,
    kadison_defect,
    kraus_from_choi,
    random_unital_channel,
    reduce_kraus,
    unitary_channel,
)
from decofree.operators import (dag, eye, random_density, random_hermitian, random_unitary, sx,
                                sz, unvec, vec)


def transpose_superop(n):
    """Schrodinger superoperator of X -> X^T (not CP), for injection tests."""
    t = np.zeros((n * n, n * n))
    for a in range(n):
        for b in range(n):
            t[a * n + b, b * n + a] = 1.0
    return t


class TestApply:
    def test_identity(self, rng):
        chan = unitary_channel(eye(3))
        a = random_hermitian(3, rng)
        assert np.allclose(chan(a), a)

    def test_dephasing_shrinks_sx(self):
        chan = dephasing_channel(0.25)
        assert np.allclose(chan(sx), 0.5 * sx)

    def test_dephasing_fixes_sz(self):
        chan = dephasing_channel(0.25)
        assert np.allclose(chan(sz), sz)

    def test_unitality(self, rng):
        chan = random_unital_channel(3, 4, rng)
        assert np.max(np.abs(chan(eye(3)) - eye(3))) < 1e-12

    def test_rejects_non_unital(self):
        with pytest.raises(ValueError, match="unital"):
            KrausMap([np.diag([1.0, 0.5])])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dephasing_channel(0.1)(eye(3))


class TestDual:
    def test_identity_dual(self, rng):
        chan = unitary_channel(eye(2))
        rho = random_density(2, rng)
        assert np.allclose(chan.apply_dual(rho), rho)

    def test_dephasing_on_plus(self):
        chan = dephasing_channel(0.25)
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        assert np.allclose(chan.apply_dual(plus), 0.5 * (eye(2) + 0.5 * sx))

    def test_duality_identity(self, rng):
        chan = random_unital_channel(3, 3, rng)
        for _ in range(100):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = random_density(3, rng)
            lhs = np.trace(a @ chan.apply_dual(rho))
            rhs = np.trace(chan(a) @ rho)
            assert abs(lhs - rhs) < 1e-10

    def test_trace_preserving(self, rng):
        chan = random_unital_channel(4, 5, rng)
        rho = random_density(4, rng)
        assert abs(np.trace(chan.apply_dual(rho)) - 1.0) < 1e-12

    def test_superop_matrices_are_adjoints(self, rng):
        # the Schrodinger-picture matrix is the Heisenberg one's conjugate transpose
        chan = random_unital_channel(3, 2, rng)
        rho = random_density(3, rng)
        expected = unvec(dag(chan.heisenberg_matrix()) @ vec(rho), 3)
        assert np.max(np.abs(chan.apply_dual(rho) - expected)) < 1e-12


class TestChoi:
    def test_identity_channel_choi(self):
        c = choi_matrix(dag(unitary_channel(eye(2)).heisenberg_matrix()))
        evals = np.linalg.eigvalsh(c)
        assert np.allclose(sorted(evals), [0, 0, 0, 2], atol=1e-12)

    def test_transpose_map_not_cp(self):
        check = cp_check(transpose_superop(2))
        assert not check.is_cp
        assert check.min_eigenvalue == pytest.approx(-1.0)

    def test_kraus_maps_are_cp(self, rng):
        for n, r in [(2, 3), (3, 2), (4, 4)]:
            chan = random_unital_channel(n, r, rng)
            check = cp_check(chan)
            assert check.is_cp
            assert check.min_eigenvalue > -1e-12

    @pytest.mark.parametrize("n, k", [(3, 2), (2, 4), (2, 6)], ids=["k<n2", "k=n2", "k>n2"])
    def test_kraus_cp_check_builds_no_choi_matrix(self, monkeypatch, n, k):
        # Choi = A A† for A = [vec W_a]: its least eigenvalue is 0 for k < n^2 and
        # the least squared singular value of A otherwise
        chan = random_unital_channel(n, k, np.random.default_rng(10 * n + k))
        dense = float(np.linalg.eigvalsh(choi_matrix(dag(chan.heisenberg_matrix()))).min())

        def refuse(*args, **kwargs):
            raise AssertionError("n^2 x n^2 Choi matrix built")

        monkeypatch.setattr("decofree.channels.choi_matrix", refuse)
        check = cp_check(chan)
        assert check.is_cp
        assert check.min_eigenvalue == pytest.approx(dense, abs=1e-12)
        assert (check.min_eigenvalue > 1e-3) == (k >= n * n)

    def test_kraus_from_choi_round_trip(self, rng):
        chan = random_unital_channel(3, 2, rng)
        rebuilt = KrausMap(kraus_from_choi(choi_matrix(dag(chan.heisenberg_matrix()))), tol=1e-8)
        a = random_hermitian(3, rng)
        assert np.max(np.abs(rebuilt(a) - chan(a))) < 1e-10

    def test_reduction_reaches_choi_rank(self, depolarizing):
        # redundant three-operator presentation of a rank-2 dephasing map, and
        # the 16-operator list of depolarizing o depolarizing (k > n^2, rank 4)
        depol = depolarizing.kraus_ops
        for chan, rank in [
            (KrausMap([np.sqrt(0.5) * eye(2), np.sqrt(0.25) * eye(2), np.sqrt(0.25) * sz]), 2),
            (KrausMap([b @ a for a in depol for b in depol]), 4),
        ]:
            reduced = reduce_kraus(chan)
            choi = choi_matrix(dag(chan.heisenberg_matrix()))
            choi_rank = int(np.sum(np.linalg.eigvalsh(choi) > 1e-10))
            assert len(reduced.kraus_ops) == choi_rank == rank
            assert np.max(np.abs(reduced.heisenberg_matrix() - chan.heisenberg_matrix())) < 1e-12

    def test_reduction_accepts_what_its_input_map_accepted(self):
        # sum W†W = (1 + 1.4e-7) 1: inside tol = 1e-6, beyond REDUCED_TOL = 1e-8 alone
        chan = KrausMap([np.sqrt(0.75 + 1.4e-7) * eye(2), 0.5 * sz], tol=1e-6)
        assert chan.unitality_defect == pytest.approx(1.4e-7, rel=1e-6)
        reduced = reduce_kraus(chan)
        assert len(reduced.kraus_ops) == 2
        assert reduced.unitality_defect <= chan.unitality_defect + REDUCED_TOL
        assert multiplicative_domain(chan).dim == 2
        assert df_algebra_discrete(chan).algebra.dim == 2

    def test_non_cp_choi_rejected(self):
        with pytest.raises(ValueError, match="not PSD"):
            kraus_from_choi(choi_matrix(transpose_superop(2)))


class TestKadison:
    def test_unitary_channel_equality_case(self, rng):
        chan = unitary_channel(random_unitary(3, rng))
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.max(np.abs(kadison_defect(chan, a))) < 1e-12

    def test_dephasing_defect(self):
        chan = dephasing_channel(0.25)
        assert np.allclose(kadison_defect(chan, sx), 0.75 * eye(2))

    def test_psd_on_random_cases(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 5))
            chan = random_unital_channel(n, int(rng.integers(1, n * n + 1)), rng)
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            defect = kadison_defect(chan, a)
            assert np.linalg.eigvalsh(0.5 * (defect + dag(defect))).min() > -1e-10


class TestDissipationFunction:
    """The dissipation function D(A, B) = Gamma(A†B) - Gamma(A†)Gamma(B) on its
    diagonal, which is the Kadison defect."""

    def test_vanishes_on_identity(self, rng):
        chan = random_unital_channel(3, 3, rng)
        assert np.max(np.abs(kadison_defect(chan, eye(3)))) < 1e-12

    def test_zero_dissipation_implies_multiplicative(self, rng):
        # sz is dissipation-free for dephasing, so the map is multiplicative on it
        chan = dephasing_channel(0.25)
        assert np.max(np.abs(kadison_defect(chan, sz))) < 1e-12
        for _ in range(20):
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.max(np.abs(chan(sz @ b) - chan(sz) @ chan(b))) < 1e-9
            assert np.max(np.abs(chan(b @ sz) - chan(b) @ chan(sz))) < 1e-9


def _power(chan, k):
    """Gamma^k as k - 1 compositions."""
    out = chan
    for _ in range(k - 1):
        out = compose(chan, out)
    return out


class TestComposition:
    def test_identity_power(self, rng):
        chan = _power(unitary_channel(eye(3)), 5)
        a = random_hermitian(3, rng)
        assert np.allclose(chan(a), a)

    def test_dephasing_power_combines(self):
        p = 0.25
        squared = _power(dephasing_channel(p), 2)
        # two rounds of dephasing: (1 - 2p') = (1 - 2p)^2
        assert np.allclose(squared(sx), (1 - 2 * p) ** 2 * sx)

    def test_unitary_composition_order(self, rng):
        u, v = random_unitary(3, rng), random_unitary(3, rng)
        composed = compose(unitary_channel(u), unitary_channel(v))
        expected = unitary_channel(v @ u)
        a = random_hermitian(3, rng)
        assert np.max(np.abs(composed(a) - expected(a))) < 1e-12

    def test_unitality_preserved(self, rng):
        g1 = random_unital_channel(3, 3, rng)
        g2 = random_unital_channel(3, 2, rng)
        assert compose(g1, g2).unitality_defect < 1e-10
        assert _power(g1, 4).unitality_defect < 1e-10

    def test_power_keeps_rank_bounded(self, rng):
        chan = random_unital_channel(2, 4, rng)
        assert len(_power(chan, 5).kraus_ops) <= 4


def test_depolarizing_collapses_to_trace(depolarizing):
    assert np.allclose(depolarizing(sx), 0)
    assert np.allclose(depolarizing(eye(2)), eye(2))
