import numpy as np
import pytest

from decofree.operators import (
    LiouvilleMetric,
    TermMap,
    check_density_matrix,
    commutator_norm,
    dag,
    eye,
    is_hermitian,
    random_density,
    random_hermitian,
    random_unitary,
    sandwich_superop,
    sm,
    sp,
    sx,
    sy,
    superop_matrix,
    superop_norm,
    sz,
    tensor_product,
    unvec,
    vec,
)
from decofree.channels import random_unital_channel
from decofree.lindblad import GKLSGenerator


def kron_by_hand(a, b):
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na * nb, na * nb), dtype=complex)
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k, j * nb + l] = a[i, j] * b[k, l]
    return out


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(eye(2), eye(2)), eye(4))

    def test_sz_with_identity(self):
        assert np.allclose(tensor_product(sz, eye(2)), np.diag([1, 1, -1, -1]))

    def test_basis_action(self):
        # sx (x) sx maps e0 (x) e0 to e1 (x) e1, i.e. index 0 -> index 3
        v = np.zeros(4)
        v[0] = 1.0
        out = tensor_product(sx, sx) @ v
        assert np.allclose(out, np.eye(4)[3])

    def test_against_index_arithmetic(self, rng):
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        assert np.allclose(tensor_product(a, b), kron_by_hand(a, b))


class TestVectorization:
    def test_round_trips_exact(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(unvec(vec(a)), a)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        assert np.array_equal(vec(unvec(v)), v)

    def test_column_stacking(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(vec(a), np.array([1, 3, 2, 4], dtype=complex))
        assert np.array_equal(unvec(np.array([1, 3, 2, 4], dtype=complex)), a)

    def test_stacks(self, rng):
        stack = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        rows = vec(stack)
        assert rows.shape == (4, 9)
        for j in range(4):
            assert np.array_equal(rows[j], vec(stack[j]))
            # a single vector unvecs as the Fortran-order reshape it always was
            assert np.array_equal(unvec(rows[j], 3), rows[j].reshape((3, 3), order="F"))
        assert np.array_equal(unvec(rows, 3), stack)
        assert np.shares_memory(unvec(rows, 3), rows)


class TestSandwich:
    def test_identity(self):
        s = sandwich_superop(eye(2), eye(2))
        assert np.allclose(s, eye(4))

    def test_pauli_conjugation(self):
        s = sandwich_superop(sx, sx)
        assert np.allclose(unvec(s @ vec(sz)), -sz)

    def test_matrix_unit(self):
        # projectors on either side pick out one entry of the all-ones matrix
        s = sandwich_superop(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        out = unvec(s @ vec(np.ones((2, 2))))
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        assert np.allclose(out, expected)

    def test_action_matches_products(self, rng):
        left = random_hermitian(3, rng)
        right = random_hermitian(3, rng)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(
            unvec(sandwich_superop(left, right) @ vec(x)), left @ x @ right
        )

    def test_composition(self, rng):
        l1, r1 = random_hermitian(3, rng), random_hermitian(3, rng)
        l2, r2 = random_hermitian(3, rng), random_hermitian(3, rng)
        combined = sandwich_superop(l1, r1) @ sandwich_superop(l2, r2)
        direct = sandwich_superop(l1 @ l2, r2 @ r1)
        assert np.max(np.abs(combined - direct)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sandwich_superop(eye(2), eye(3))


class TestLiouvilleInner:
    def test_normalization(self):
        metric = LiouvilleMetric(eye(3) / 3)
        assert metric.inner(eye(3), eye(3)) == pytest.approx(1.0)

    def test_sz_norm(self):
        metric = LiouvilleMetric(np.diag([0.6, 0.4]).astype(complex))
        assert metric.inner(sz, sz) == pytest.approx(1.0)

    def test_pauli_cross_term(self):
        # Tr(sigma sx sy) = Tr(sigma i sz) = 0.5 i for sigma = diag(3/4, 1/4)
        metric = LiouvilleMetric(np.diag([0.75, 0.25]).astype(complex))
        assert metric.inner(sx, sy) == pytest.approx(0.5j)

    def test_positivity_and_sesquilinearity(self, rng):
        metric = LiouvilleMetric(random_density(3, rng))
        for _ in range(25):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            z = complex(rng.normal(), rng.normal())
            val = metric.inner(a, a)
            assert abs(val.imag) < 1e-12
            assert val.real >= -1e-12
            lin = metric.inner(a, b + z * c)
            assert lin == pytest.approx(metric.inner(a, b) + z * metric.inner(a, c))
            conj_lin = metric.inner(b + z * c, a)
            assert conj_lin == pytest.approx(
                metric.inner(b, a) + np.conj(z) * metric.inner(c, a)
            )

    def test_requires_faithful_state(self):
        with pytest.raises(ValueError):
            LiouvilleMetric(np.diag([1.0, 0.0]).astype(complex))

    def test_dimension_mismatch(self):
        metric = LiouvilleMetric(eye(2) / 2)
        with pytest.raises(ValueError):
            metric.inner(eye(3), eye(3))

    def test_gram_superop(self, rng):
        # <A, B>_sigma = vec(A)† G vec(B) for G: X -> X sigma, kron(sigma.T, 1)
        metric = LiouvilleMetric(random_density(3, rng))
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        gram = np.kron(metric.sigma.T, eye(3))
        assert np.vdot(vec(a), gram @ vec(b)) == pytest.approx(metric.inner(a, b))
        assert np.vdot(vec(a), vec(b @ metric.sigma)) == pytest.approx(metric.inner(a, b))


class TestPredicates:
    def test_hermiticity(self, rng):
        assert is_hermitian(random_hermitian(4, rng))
        assert not is_hermitian(sm)

    def test_density_check(self):
        check_density_matrix(eye(2) / 2)
        with pytest.raises(ValueError):
            check_density_matrix(eye(2))
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_pauli_constants():
    assert np.allclose(sx @ sx, eye(2))
    assert np.allclose(sm, (sx + 1j * sy) / 2)
    assert np.allclose(sp, dag(sm))
    assert np.allclose(sm @ sp, np.diag([1.0, 0.0]))


def test_dag_of_a_stack(rng):
    a = rng.normal(size=(20, 4, 4)) + 1j * rng.normal(size=(20, 4, 4))
    out = dag(a)
    assert out.shape == (20, 4, 4)
    assert all(np.array_equal(out[k], a[k].conj().T) for k in range(20))


def _random_terms(n, count, rng):
    def mat():
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    return [(complex(*rng.normal(size=2)), mat(), mat()) for _ in range(count)]


def _dense(terms):
    # explicit Kronecker products: independent of superop_matrix, which sandwich_superop calls
    return sum(c * np.kron(r.T, l) for c, l, r in terms)


class TestKroneckerSumNorms:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_superop_norm_is_the_dense_frobenius_norm(self, n, rng):
        terms = _random_terms(n, 2 * n, rng)  # more terms than n^2 at n = 2
        assert superop_norm(terms) == pytest.approx(np.linalg.norm(_dense(terms)), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_superop_matrix_is_the_kronecker_sum(self, n, rng):
        terms = _random_terms(n, 2 * n, rng)
        c, left, right = zip(*terms)
        expected = _dense(terms)
        err = np.max(np.abs(superop_matrix(left, right, c) - expected))
        assert err <= 1e-14 * np.abs(expected).max()

    def test_empty_list_is_the_zero_map(self):
        assert superop_norm([]) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cancelling_list_is_zero(self, n, rng):
        # a unitary remixing of a Kraus list gives the same channel through
        # other factors: the difference of the two lists is the zero map
        ops = random_unital_channel(n, 3, rng).kraus_ops
        u = random_unitary(3, rng)
        mixed = np.tensordot(u, np.stack(ops), axes=1)
        terms = [(1.0, dag(w), w) for w in ops] + [(-1.0, dag(w), w) for w in mixed]
        assert superop_norm(terms) <= 1e-13 * superop_norm(terms[:3])

    def test_commutator_and_hermiticity_residuals_match_dense(self, rng):
        s, t = _random_terms(3, 3, rng), _random_terms(3, 2, rng)
        ds, dt = _dense(s), _dense(t)
        scale = max(np.linalg.norm(ds) * np.linalg.norm(dt), 1.0)
        assert commutator_norm(s, t) == pytest.approx(
            np.linalg.norm(ds @ dt - dt @ ds) / scale, rel=1e-10)
        metric = LiouvilleMetric(random_density(3, rng))
        g = _dense([(1.0, eye(3), metric.sigma)])
        assert metric.hermiticity_residual(s) == pytest.approx(
            np.linalg.norm(g @ ds - dag(ds) @ g) / max(np.linalg.norm(ds), 1.0), rel=1e-10)


def _term_maps():
    rng = np.random.default_rng(7)
    jumps = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
    gen = GKLSGenerator(random_hermitian(3, rng), jumps)
    return {"kraus": random_unital_channel(3, 2, rng), "generator": gen,
            "hamiltonian_part": gen.hamiltonian_part, "dissipator": gen.dissipator}


class TestTermMap:
    @pytest.mark.parametrize("name", ["kraus", "generator", "hamiltonian_part", "dissipator"])
    def test_action_and_dual_on_a_stack_are_the_dense_matrices(self, name, rng):
        m = _term_maps()[name]
        stack = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        heisenberg = m.heisenberg_matrix()
        schrodinger = dag(heisenberg)
        scale = np.linalg.norm(heisenberg) * np.max(np.abs(stack))
        for x, y, z in zip(stack, m(stack), m.apply_dual(stack)):
            assert np.max(np.abs(y - unvec(heisenberg @ vec(x), 3))) < 1e-13 * scale
            assert np.max(np.abs(z - unvec(schrodinger @ vec(x), 3))) < 1e-13 * scale

    @pytest.mark.parametrize("name", ["kraus", "generator", "hamiltonian_part", "dissipator"])
    def test_dense_matrix_is_built_once_and_read_only(self, name):
        m = _term_maps()[name]
        dense = m.heisenberg_matrix()
        assert m.heisenberg_matrix() is dense
        with pytest.raises(ValueError):
            dense[0, 0] = 1.0

    def test_generator_has_two_terms_plus_one_per_jump_operator(self):
        gen = _term_maps()["generator"]
        assert len(gen.terms()) == 2 + len(gen.lindblad_ops) == 4
        assert len(gen.hamiltonian_part.terms()) == 2
        assert len(gen.dissipator.terms()) == 4
        assert GKLSGenerator(sz).dissipator.terms() == []

    def test_generator_matrix_is_the_sum_of_its_parts(self):
        gen = _term_maps()["generator"]
        total = gen.heisenberg_matrix()
        parts = gen.hamiltonian_part.heisenberg_matrix() + gen.dissipator_matrix()
        assert np.linalg.norm(total - parts) <= 1e-14 * np.linalg.norm(total)

    @pytest.mark.parametrize("name", ["kraus", "generator", "hamiltonian_part", "dissipator"])
    def test_dense_matrix_is_the_kronecker_sum_of_the_terms(self, name):
        m = _term_maps()[name]
        expected = _dense(m.terms())
        assert np.max(np.abs(m.heisenberg_matrix() - expected)) <= 1e-14 * np.abs(expected).max()

    def test_no_terms_is_the_zero_matrix(self):
        # a generator without jump operators keeps a zero dissipator matrix
        for m in (TermMap(3, []), GKLSGenerator(sz).dissipator):
            dense = m.heisenberg_matrix()
            assert dense.shape == (m.dim ** 2, m.dim ** 2) and not dense.any()
        assert superop_matrix(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), []).shape == (4, 4)


def test_every_draw_takes_the_one_seed():
    # DEFAULT_SEED is assigned once, in operators, and every default_rng call
    # in the package draws it: the seed a report states decides all its draws
    import ast
    import pathlib

    import decofree
    from decofree import cli, operators

    assigned, draws = [], []
    for path in sorted(pathlib.Path(decofree.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == "DEFAULT_SEED"
                    and isinstance(node.ctx, ast.Store)):
                assigned.append(path.name)
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("default_rng"):
                draws.append(f"{path.name}: {ast.unparse(node)}")
    assert assigned == ["operators.py"]
    assert cli.DEFAULT_SEED is operators.DEFAULT_SEED
    assert draws and all(d.endswith("default_rng(DEFAULT_SEED)") for d in draws), draws
