import numpy as np
import pytest
from scipy.linalg import expm, null_space

import decofree.algebra as algebra
from decofree.algebra import (
    DetailedBalanceChannel,
    MatrixAlgebra,
    block_decompose,
    commutant,
    commutant_bounds,
    detailed_balance_channel_from_gibbs,
    df_algebra_discrete,
    df_algebra_semigroup,
    df_project,
    df_projector_basis,
    fixed_points,
    full_algebra,
    generated_algebra,
    intersect_spans,
    multiplicative_domain,
    nullspace,
    relaxation_trace,
    subspace_contains,
)
from decofree.channels import (
    KrausMap,
    channel_from_superop,
    compose,
    dephasing_channel,
    random_unital_channel,
    reduce_kraus,
    unitary_channel,
)
from decofree.jsonio import channel_from_json
from decofree.lindblad import GKLSGenerator, build_gibbs_generator, detailed_balance_check
from decofree.operators import (
    LiouvilleMetric,
    dag,
    eye,
    random_hermitian,
    random_unitary,
    sm,
    sx,
    sz,
    unvec,
    vec,
)
from decofree.symmetry import (
    build_permutation_rep,
    build_superradiance_generator,
    collective_op,
    collective_spin,
    global_invariance_residual,
)
from oracles import (
    _orthonormal_span,
    commutant_dimension,
    definitional_df_subalgebra,
    principal_angles,
    product_closure,
    stacked_commutant,
    subspaces_equal,
)


@pytest.fixture
def gibbs_qubit():
    return build_gibbs_generator(-0.5 * sz, 1.0, [sm])


@pytest.fixture
def gibbs_channel(gibbs_qubit):
    return detailed_balance_channel_from_gibbs(gibbs_qubit, 1.0)


def _superradiance_channel(n_sites):
    return channel_from_superop(
        expm(build_superradiance_generator(n_sites, 1.0, 1.0).heisenberg_matrix())
    )


def _collective_dephasing_channel(n_sites):
    jz = 0.5 * collective_op(sz, n_sites)
    return KrausMap([np.sqrt(w) * expm(-1j * a * jz)
                     for w, a in zip((0.5, 0.3, 0.2), (0.7, 1.9, 2.6))])


def _rotated_dephasing_channel():
    # qutrit dephasing after a rotation of levels 0 and 1: the domain (the
    # rotated diagonals, dim 3) is not invariant and shrinks to span{1, E_22}
    c, s = np.cos(0.4), np.sin(0.4)
    v = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=complex)
    phase = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    return KrausMap([np.sqrt(0.6) * v, np.sqrt(0.4) * v @ phase])


def _shift_pinching_channel(n):
    # Gamma(A) = (S V)† E_D(A) (S V): E_D pinches to the diagonal, S is the cyclic
    # shift and V rotates e_0, e_1 by 0.7 rad.  The domain is the diagonal algebra,
    # and each recursion step ties one more pair of diagonal entries, down to C 1
    c, s = np.cos(0.7), np.sin(0.7)
    v = eye(n)
    v[:2, :2] = [[c, -s], [s, c]]
    shift_v = np.roll(eye(n), 1, axis=0) @ v
    return KrausMap([np.outer(e, e) @ shift_v for e in eye(n)])


def _span_algebra(mats):
    """MatrixAlgebra on the oracle's orthonormal basis of span(mats)."""
    mats = np.asarray(mats, dtype=complex)
    rows = _orthonormal_span(mats.reshape(len(mats), -1))
    return MatrixAlgebra(rows.reshape(-1, *mats.shape[1:]))


SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def _hidden_block_algebra(shape, rng):
    """span{1} plus sum_j n_j^2 random elements of U (sum_j M_nj kron 1_dj) U†."""
    n = sum(nj * dj for nj, dj in shape)
    u = random_unitary(n, rng)
    span = [eye(n)]
    for _ in range(sum(nj * nj for nj, _ in shape)):
        m = np.zeros((n, n), dtype=complex)
        off = 0
        for nj, dj in shape:
            a = rng.normal(size=(nj, nj)) + 1j * rng.normal(size=(nj, nj))
            m[off:off + nj * dj, off:off + nj * dj] = np.kron(a, eye(dj))
            off += nj * dj
        span.append(u @ m @ dag(u))
    return _span_algebra(span)


def _random_element(alg, rng):
    coeffs = rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim)
    return np.tensordot(coeffs, alg.basis, axes=1)


class TestNullspace:
    def test_wide_matrix_keeps_full_kernel(self):
        row = np.array([[1.0, 2.0, 0.0, -1.0]])
        null = nullspace(row)
        assert null.shape == (4, 3)
        assert np.allclose(dag(null) @ null, eye(3))
        assert np.allclose(row @ null, 0.0)


def _orthonormal_columns(rng, rows, cols):
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return np.linalg.qr(g)[0]


class TestRankRule:
    """One singular-value cut and one principal-angle test behind every subspace decision."""

    @pytest.mark.parametrize("angle, equal", [(1e-9, True), (5e-8, True),
                                              (2e-7, False), (1e-6, False)])
    def test_subspaces_equal_against_scipy_angles(self, rng, angle, equal):
        # two spans of one dimension are equal when each contains the other
        q = _orthonormal_columns(rng, 9, 6)
        span = [unvec(v, 3) for v in q[:, :5].T]
        rotated = list(span)
        rotated[0] = unvec(np.cos(angle) * q[:, 0] + np.sin(angle) * q[:, 5], 3)
        angles = principal_angles(span, rotated)
        assert angles.max() == pytest.approx(angle, rel=1e-3)
        assert subspace_contains(span, rotated) is subspace_contains(rotated, span) is equal
        assert subspace_contains(span, rotated) == (angles.max() <= 1e-7)
        assert subspace_contains(span, rotated[1:])  # the unrotated part lies in both

    def test_intersect_spans(self, rng):
        q = _orthonormal_columns(rng, 9, 9)
        span = [unvec(v, 3) for v in q[:, :5].T]
        # a copy that keeps the plane of q0, q1 in a rotated basis and swaps
        # the rest of the span for three vectors outside it
        mix = _orthonormal_columns(rng, 2, 2)
        partial = [unvec(v, 3) for v in np.column_stack([q[:, :2] @ mix, q[:, 5:8]]).T]
        complement = [unvec(v, 3) for v in q[:, 5:].T]
        for other, dim in ((span, 5), (partial, 2), (complement, 0)):
            meet = intersect_spans(span, other)
            assert len(meet) == dim
            if meet:
                cols = np.stack([vec(m) for m in meet], axis=1)
                assert np.allclose(dag(cols) @ cols, eye(dim), atol=1e-12)
            assert subspace_contains(span, meet) and subspace_contains(other, meet)

    def test_no_rank_or_seed_knob_in_any_signature(self):
        # the cut is NULLSPACE_RTOL * max(s_max, 1) on unit-scale input, everywhere,
        # every randomized step draws operators.DEFAULT_SEED, and the DF recursion
        # runs to its fixed point
        import importlib
        import inspect

        offenders = []
        for name in ("operators", "channels", "lindblad", "algebra", "symmetry", "born",
                     "jsonio", "cli"):
            module = importlib.import_module(f"decofree.{name}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                callables = [obj]
                if inspect.isclass(obj):
                    callables += [getattr(obj, k) for k in vars(obj)
                                  if not k.startswith("_") and callable(getattr(obj, k))]
                for fn in callables:
                    try:
                        params = inspect.signature(fn).parameters
                    except (TypeError, ValueError):
                        continue
                    offenders += [f"{name}.{attr}({p})" for p in params
                                  if p in ("rtol", "scale", "seed", "max_k")]
        assert offenders == []


def test_single_value_options_and_unreached_names_are_gone():
    # an option with one value in use is a constant or a required argument, and a
    # name no caller reaches is not defined
    import dataclasses
    import inspect

    from decofree import algebra, born, jsonio, lindblad, operators, symmetry
    from decofree.channels import choi_matrix

    def params(fn):
        return inspect.signature(fn).parameters

    for fn in (MatrixAlgebra.contains, MatrixAlgebra.validate, lindblad.bohr_frequency,
               operators.is_hermitian, symmetry.local_invariance_check):
        assert "tol" not in params(fn), fn.__qualname__
    assert list(params(generated_algebra)) == ["ops"]
    with pytest.raises(ValueError):
        generated_algebra([])
    assert params(born.gate_speed_scan)["grid"].default is inspect.Parameter.empty
    assert params(df_project)["basis"].default is inspect.Parameter.empty
    assert list(params(jsonio.dump_json)) == ["obj"]
    for owner, name in ((algebra, "orthonormal_matrix_basis"), (MatrixAlgebra, "from_span"),
                        (algebra.BlockDecomposition, "matrix_dim"),
                        (DetailedBalanceChannel, "dim"), (MatrixAlgebra, "matrix_dim"),
                        (LiouvilleMetric, "dim"), (lindblad.DetailedBalanceReport, "passed")):
        assert not hasattr(owner, name), name
    # fields no code read: a dataclass field without a default is no class attribute
    for owner, name in ((lindblad.GibbsGenerator, "hamiltonian"), (born.SpectralError, "omegas"),
                        (born.BornErrorMap, "tau"), (born.BornErrorMap, "n_time"),
                        (algebra.RelaxationTrace, "projected")):
        assert name not in {f.name for f in dataclasses.fields(owner)}, name
    # the Choi matrix is built from a raw Schrodinger matrix only
    with pytest.raises(TypeError):
        choi_matrix(unitary_channel(eye(2)))
    for bath in (born.Bath(n_ops=2, label="custom", spectral=lambda w: np.ones((2, 2))),
                 born.tabulated_bath([0.0, 1.0], [1.0, 2.0]), born.gaussian_bath()):
        assert isinstance(bath.amplitude, np.ndarray)


class TestCommutant:
    def test_identity_gives_everything(self):
        assert commutant([eye(2)]).dim == 4

    def test_sz_gives_diagonals(self):
        alg = commutant([sz])
        assert alg.dim == 2
        assert alg.contains(np.diag([1.0, 3.0]).astype(complex))
        assert not alg.contains(sx)

    def test_empty_set(self):
        assert commutant([], 3).dim == 9

    def test_collective_spin_three_qubits(self):
        alg = commutant(list(collective_spin(3)))
        assert alg.dim == 5
        assert alg.dim == commutant_dimension(list(collective_spin(3)), 8)

    def test_result_is_algebra(self, rng):
        ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
        commutant(ops).validate()

    def test_double_commutant_recovers_algebra(self, rng):
        for _ in range(5):
            ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))]
            closure = product_closure(ops, 3)
            bicomm = commutant(list(commutant(ops).basis), 3)
            assert subspaces_equal(closure, list(bicomm.basis), tol=1e-7)
            assert subspaces_equal(closure, list(generated_algebra(ops).basis), tol=1e-7)

    @pytest.mark.parametrize("shape", [
        ((2, 1), (1, 1)), ((2, 2),), ((3, 1), (1, 2)), ((2, 2), (2, 2)), ((1, 2), (1, 2), (2, 1)),
    ], ids=str)
    def test_matches_stacked_oracle_on_hidden_blocks(self, shape, rng):
        # a few random elements of U (sum_j M_nj kron 1_dj) U†: every hermitian
        # element has eigenvalues of multiplicity dj, equal only up to rounding
        # once conjugated, so an eigenspace split by rounding loses elements
        n = sum(nj * dj for nj, dj in shape)
        u = random_unitary(n, rng)
        ops = []
        for _ in range(2):
            m = np.zeros((n, n), dtype=complex)
            off = 0
            for nj, dj in shape:
                a = rng.normal(size=(nj, nj)) + 1j * rng.normal(size=(nj, nj))
                m[off:off + nj * dj, off:off + nj * dj] = np.kron(a, eye(dj))
                off += nj * dj
            ops.append(u @ m @ dag(u))
        expected = stacked_commutant(ops, n)
        assert len(expected) == sum(dj * dj for _, dj in shape)
        assert subspaces_equal(list(commutant(ops).basis), expected, tol=1e-7)
        hermitian = [ops[0] + dag(ops[0])]
        assert subspaces_equal(list(commutant(hermitian).basis),
                               stacked_commutant(hermitian, n), tol=1e-7)

    def test_operator_list_or_stack(self):
        ops = [sz, np.zeros((2, 2)), 1e-12 * sx]
        assert np.array_equal(commutant(ops).basis, commutant(np.stack(ops)).basis)
        # numerically zero operators impose no constraint
        assert np.array_equal(commutant(ops).basis, commutant([sz]).basis)
        # {J}' holds J - 1 as well; with J† adjoined only the scalars are left
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        assert commutant([jordan]).dim == 1

    def test_anti_monotone(self, rng):
        small = [random_hermitian(4, rng)]
        big = small + [random_hermitian(4, rng)]
        c_small = commutant(small)
        c_big = commutant(big)
        assert subspace_contains(list(c_small.basis), list(c_big.basis))


class TestGeneratedAlgebra:
    def test_identity_alone(self):
        assert generated_algebra([eye(3)]).dim == 1

    def test_swap_representation(self):
        alg = generated_algebra([SWAP])
        assert alg.dim == 2
        decomp = block_decompose(alg)
        assert decomp.blocks == ((1, 3), (1, 1))

    def test_sx_squares_to_identity(self):
        assert generated_algebra([sx]).dim == 2

    def test_closure(self, rng):
        alg = generated_algebra([rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))])
        alg.validate()

    def test_one_commuting_solve(self, monkeypatch, rng):
        # the second commutant is read off the first one's blocks, not solved for
        from decofree import algebra

        calls = []
        solve = algebra._commuting_part

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(algebra, "_commuting_part", counted)
        generated_algebra([rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), SWAP])
        assert len(calls) == 1

    def test_recovers_hidden_block_algebras(self, rng):
        # two random elements generate U (sum_j M_nj kron 1_dj) U†; the last
        # shape fills the size cap
        for shape in [((2, 2), (2, 2)), ((3, 1), (3, 1)), ((1, 3), (1, 3)), ((2, 1), (1, 2)),
                      ((7, 1), (5, 5), (3, 9), (1, 5))]:
            hidden = _hidden_block_algebra(shape, rng)
            alg = generated_algebra([_random_element(hidden, rng) for _ in range(2)])
            assert alg.dim == sum(nj * nj for nj, _ in shape)
            assert subspaces_equal(list(alg.basis), list(hidden.basis))
            decomp = block_decompose(alg)
            assert tuple(sorted(decomp.blocks, reverse=True)) == tuple(sorted(shape, reverse=True))


class TestMatrixAlgebra:
    def test_basis_is_one_read_only_stack(self):
        given = np.stack([eye(2), sz]) / np.sqrt(2.0)
        alg = MatrixAlgebra(given)
        assert alg.basis.shape == (2, 2, 2)
        with pytest.raises(ValueError):
            alg.basis[0, 0, 0] = 0.0
        assert given.flags.writeable

    def test_full_algebra_orders_matrix_units(self):
        basis = full_algebra(3).basis
        for i in range(3):
            for j in range(3):
                unit = np.zeros((3, 3))
                unit[i, j] = 1.0
                assert np.array_equal(basis[i * 3 + j], unit)

    def test_validate_rejects_a_span_not_closed_under_products(self):
        # unital and *-closed, but sx sz = -i sy lies outside the span: only the
        # product residual of the one seeded element sees it
        alg = _span_algebra([eye(2), sx, sz])
        res = alg.closure_residuals()
        assert res["unit"] <= 1e-12 and res["adjoint"] <= 1e-12 and res["product"] > 1e-2
        with pytest.raises(ValueError, match="product"):
            alg.validate()


class TestBlockDecompose:
    def test_full_algebra_is_single_block(self):
        decomp = block_decompose(full_algebra(3))
        assert decomp.blocks == ((3, 1),)
        assert np.allclose(decomp.conjugator, eye(3))

    def test_diagonal_algebra(self):
        alg = _span_algebra([np.diag([1, 0]), np.diag([0, 1])])
        assert block_decompose(alg).blocks == ((1, 1), (1, 1))

    def test_collective_spin_two_qubits(self):
        alg = generated_algebra(list(collective_spin(2)))
        decomp = block_decompose(alg)
        assert decomp.blocks == ((3, 1), (1, 1))
        assert sum(nj * dj for nj, dj in decomp.blocks) == 4
        assert max(decomp.off_block_mass(b) for b in alg.basis) < 1e-8

    def test_dimension_count_matches_blocks(self, rng):
        ops = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))]
        alg = generated_algebra(ops)
        decomp = block_decompose(alg)
        assert sum(nj * nj for nj, dj in decomp.blocks) == alg.dim
        assert sum(nj * dj for nj, dj in decomp.blocks) == 4

    def test_deterministic_for_fixed_seed(self):
        alg = generated_algebra([SWAP])
        d1 = block_decompose(alg)
        d2 = block_decompose(alg)
        assert d1.blocks == d2.blocks
        assert np.array_equal(d1.conjugator, d2.conjugator)

    @pytest.mark.parametrize("n_sites, blocks", [
        (4, "((5, 1), (3, 3), (1, 2))"),
        (5, "((6, 1), (4, 4), (2, 5))"),
        (6, "((7, 1), (5, 5), (3, 9), (1, 5))"),
    ], ids=["N4", "N5", "N6"])
    def test_collective_spin_four_qubits_within_one_gib(self, n_sites, blocks, run_within_one_gib):
        run = run_within_one_gib(
            "import sys\n"
            "from decofree.algebra import block_decompose, generated_algebra\n"
            "from decofree.symmetry import collective_spin\n"
            "print(block_decompose(generated_algebra(list(collective_spin(int(sys.argv[1]))))).blocks)\n",
            str(n_sites))
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == blocks

    def test_multiplicity_space_conjugation(self):
        # commutant of su(2) on two qubits: 1 (x) M_1 + singlet, transposed shape
        alg = commutant(list(collective_spin(2)))
        decomp = block_decompose(alg)
        assert decomp.blocks == ((1, 3), (1, 1))

    def test_recovers_hidden_block_shapes(self, rng):
        # random unitary conjugations of known direct sums must come back out;
        # equal factors stay apart, and the last shape fills the size cap
        for shape in [((2, 1), (1, 1)), ((2, 2),), ((3, 1), (1, 2)), ((2, 2), (1, 1)),
                      ((2, 2), (2, 2)), ((3, 1), (3, 1)), ((1, 3), (1, 3)),
                      ((7, 1), (5, 5), (3, 9), (1, 5))]:
            alg = _hidden_block_algebra(shape, rng)
            decomp = block_decompose(alg)
            assert tuple(sorted(decomp.blocks, reverse=True)) == tuple(sorted(shape, reverse=True))
            assert max(decomp.off_block_mass(b) for b in alg.basis) < 1e-8

    def test_solves_for_no_center(self, monkeypatch, rng):
        # the blocks come from eigenspaces of one generic element: no center
        # solve, no re-orthonormalization, no pass over all basis products
        alg = _hidden_block_algebra(((3, 1), (2, 2), (1, 3)), rng)

        def refuse(*args, **kwargs):
            raise AssertionError("block_decompose took a separate solve")

        monkeypatch.setattr("decofree.algebra._commuting_part", refuse)
        monkeypatch.setattr(MatrixAlgebra, "closure_residuals", refuse)
        assert block_decompose(alg).blocks == ((3, 1), (2, 2), (1, 3))

    def test_off_block_mass_of_a_stack_is_the_worst_element(self, rng):
        alg = _hidden_block_algebra(((2, 1), (1, 2)), rng)
        decomp = block_decompose(alg)
        stack = np.stack([_random_element(alg, rng) for _ in range(3)]
                         + [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))])
        masses = [decomp.off_block_mass(m) for m in stack]
        assert masses[-1] > 0.1 > 1e-8 > max(masses[:-1])
        assert decomp.off_block_mass(stack) == pytest.approx(max(masses), rel=1e-12)
        assert decomp.off_block_mass(stack[:3]) < 1e-8
        assert decomp.off_block_mass(stack.reshape(2, 2, 4, 4)) == pytest.approx(max(masses),
                                                                                 rel=1e-12)

    def test_rejects_span_not_closed_under_products(self):
        # unital and *-closed, but sx sz = -i sy lies outside the span
        with pytest.raises(ValueError):
            block_decompose(_span_algebra([eye(2), sx, sz]))


class TestMultiplicativeDomain:
    def test_unitary_channel_full(self, rng):
        chan = unitary_channel(random_unitary(3, rng))
        assert multiplicative_domain(chan).dim == 9

    def test_dephasing_diagonal(self):
        alg = multiplicative_domain(dephasing_channel(0.25))
        assert alg.dim == 2
        assert alg.contains(sz)

    def test_depolarizing_trivial(self, depolarizing):
        assert multiplicative_domain(depolarizing).dim == 1

    def test_matches_definitional_set(self, rng, depolarizing):
        channels = [
            dephasing_channel(0.25),
            depolarizing,
            unitary_channel(random_unitary(2, rng)),
        ]
        for _ in range(10):
            channels.append(random_unital_channel(int(rng.integers(2, 4)), 2, rng))
        for chan in channels:
            linear = multiplicative_domain(chan)
            brute = definitional_df_subalgebra(chan)
            assert len(brute) == linear.dim
            angles = principal_angles(list(linear.basis), brute)
            assert angles.size == 0 or angles.max() < 1e-7

    def test_zero_pair_products_are_not_stacked(self, reach, monkeypatch):
        # of the n (n + 1) / 2 pair products W_a W_b† of the shift-pinching channel's
        # n reduced Kraus operators, n + 1 are nonzero
        counts = []
        original = algebra.commutant
        monkeypatch.setattr(algebra, "commutant",
                            lambda ops, dim=None: counts.append(len(ops)) or original(ops, dim))
        chan = channel_from_json(reach.df_shift_pinching(8)["inputs"]["channel"]())
        assert len(reduce_kraus(chan).kraus_ops) == 8
        assert multiplicative_domain(chan).dim == 8
        assert counts == [9]

    def test_multiplicativity_on_result(self, rng):
        chan = dephasing_channel(0.25)
        alg = multiplicative_domain(chan)
        for a in alg.basis:
            for b in alg.basis:
                assert np.max(np.abs(chan(a @ b) - chan(a) @ chan(b))) < 1e-9


    def test_channel_path_builds_no_superoperator(self, request, rng):
        # multiplicative_domain, df_algebra_discrete and reduce_kraus work on
        # n x n matrices only: no Heisenberg or Choi matrix
        chans = [dephasing_channel(0.25), random_unital_channel(3, 2, rng),
                 _collective_dephasing_channel(2), _rotated_dephasing_channel()]
        expected = [(multiplicative_domain(c).dim, df_algebra_discrete(c).algebra.dim)
                    for c in chans]
        request.getfixturevalue("no_superoperator")
        for chan, dims in zip(chans, expected):
            assert len(reduce_kraus(chan).kraus_ops) <= len(chan.kraus_ops)
            assert (multiplicative_domain(chan).dim, df_algebra_discrete(chan).algebra.dim) == dims


class TestFlipAutomorphism:
    def test_not_inner(self):
        # the swap of the two diagonal entries is a valid automorphism of the
        # diagonal algebra, but no unitary inside the algebra implements it
        def flip(a):
            return np.diag([a[1, 1], a[0, 0]])

        basis = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        best = np.inf
        for phi1 in np.linspace(0, 2 * np.pi, 25):
            for phi2 in np.linspace(0, 2 * np.pi, 25):
                u = np.diag([np.exp(1j * phi1), np.exp(1j * phi2)])
                worst = max(
                    float(np.max(np.abs(dag(u) @ a @ u - flip(a)))) for a in basis
                )
                best = min(best, worst)
        assert best >= 0.5

    def test_sx_does_implement_it(self):
        a = np.diag([2.0, -1.0]).astype(complex)
        assert np.allclose(sx @ a @ sx, np.diag([-1.0, 2.0]))


class TestDiscreteDF:
    def test_unitary_channel_everything(self, rng):
        chan = unitary_channel(random_unitary(2, rng))
        res = df_algebra_discrete(chan)
        assert res.algebra.dim == 4

    def test_dephasing_stable_at_one(self):
        res = df_algebra_discrete(dephasing_channel(0.25))
        assert res.algebra.dim == 2
        assert res.algebra.contains(sz)

    def test_gibbs_channel_ergodic(self, gibbs_channel):
        res = df_algebra_discrete(gibbs_channel.channel())
        assert res.algebra.dim == 1

    @pytest.mark.parametrize("n", [26, 32])
    def test_long_chain_reaches_its_fixed_point(self, n):
        # one dimension per step: the chain needs n - 1 steps to reach C 1
        res = df_algebra_discrete(_shift_pinching_channel(n))
        assert (res.algebra.dim, res.k_used) == (1, n)

    def test_recursion_applies_the_map_once(self):
        # the images of S_{j+1} = S_j c are those of S_j times c, so the map is
        # applied to S_0 only, however many steps the chain takes
        from decofree.algebra import _largest_invariant_subspace

        chan = _shift_pinching_channel(8)
        calls = []

        def counting(x):
            calls.append(len(x))
            return chan(x)

        q = vec(multiplicative_domain(chan).basis).T
        q, steps = _largest_invariant_subspace(counting, q)
        assert (q.shape[1], steps) == (1, 7)
        assert calls == [8]

    @pytest.mark.parametrize("make_channel", [
        lambda: dephasing_channel(0.25),
        lambda: _superradiance_channel(2),
        lambda: _superradiance_channel(3),
        lambda: _collective_dephasing_channel(2),
        lambda: random_unital_channel(3, 2, np.random.default_rng(5)),
        _rotated_dephasing_channel,
    ], ids=["dephasing", "superradiance-N2", "superradiance-N3",
            "collective-dephasing-N2", "random-unital-n3", "rotated-dephasing-n3"])
    def test_matches_iterated_oracle(self, make_channel):
        chan = make_channel()
        cumulative = power = None
        for _ in range(3):
            power = chan if power is None else compose(chan, power)
            brute = definitional_df_subalgebra(power)
            cumulative = brute if cumulative is None else intersect_spans(cumulative, brute)
        res = df_algebra_discrete(chan)
        assert subspaces_equal(list(res.algebra.basis), cumulative, tol=1e-7)


class TestSemigroupDF:
    def test_pure_hamiltonian_everything(self, rng):
        gen = GKLSGenerator(random_hermitian(3, rng))
        res = df_algebra_semigroup(gen)
        assert res.dim == 9

    def test_gibbs_qubit_trivial(self, gibbs_qubit):
        res = df_algebra_semigroup(gibbs_qubit.generator)
        assert res.dim == 1

    def test_takes_the_generator_only(self):
        # detailed balance is no hypothesis of the algebra: lindblad reports it
        # for a given state, at its own fixed bound
        import inspect

        assert list(inspect.signature(df_algebra_semigroup).parameters) == ["gen"]
        assert list(inspect.signature(detailed_balance_check).parameters) == ["gen", "metric"]

    def test_superradiance_contains_permutation_algebra(self):
        from decofree.symmetry import build_permutation_rep

        gen = build_superradiance_generator(2, 1.0, 1.0)
        res = df_algebra_semigroup(gen)
        group_alg = build_permutation_rep(2, 2).group_algebra()
        assert group_alg.dim == 2
        assert group_alg.is_subalgebra_of(res)

    def test_thermal_ladder_folds_one_basis_of_the_span(self, monkeypatch):
        # the Gibbs generator's operators are multiples of L and L†, so span(S u S†)
        # is two-dimensional: two operators are folded, not the four of S and S†
        n = 8
        gen = build_gibbs_generator(np.diag(19.2 * np.arange(n) / n), 1.0,
                                    [np.diag(np.ones(n - 1), 1)]).generator
        counts = []
        solve = algebra._commuting_part
        monkeypatch.setattr(algebra, "_commuting_part",
                            lambda ops, i, j: counts.append(len(ops)) or solve(ops, i, j))
        assert df_algebra_semigroup(gen).dim == 1
        assert counts == [2]


def _ladder(*rates):
    # qutrit with E_0 > E_1 > E_2 and one lowering operator per given rate
    ops = []
    for level, rate in enumerate(rates):
        v = np.zeros((3, 3), dtype=complex)
        v[level + 1, level] = rate
        ops.append(v)
    return build_gibbs_generator(np.diag([2.0, 1.2, 0.0]), 0.8, ops)


class TestSemigroupDFOracles:
    @pytest.mark.parametrize("make_generator, dim", [
        (lambda: GKLSGenerator(np.kron(sx, sx), [np.kron(sm, eye(2))]), 2),
        (lambda: GKLSGenerator(sx, [sz]), 1),
        (lambda: GKLSGenerator(np.kron(sx, sx), [np.kron(sz, eye(2)) + np.kron(eye(2), sz)]), 5),
        (lambda: GKLSGenerator(random_hermitian(3, np.random.default_rng(3)),
                               [np.diag([1.0, 1.0, -1.0])]), 1),
    ], ids=["xx-coupling-decay", "drive-dephasing", "collective-dephasing-xx",
            "random-qutrit-dephasing"])
    def test_matches_one_step_channel_oracle(self, make_generator, dim):
        # Hamiltonian and dissipator do not commute in any of these
        gen = make_generator()
        chan = channel_from_superop(expm(0.37 * gen.heisenberg_matrix()))
        cumulative = power = None
        for _ in range(3):
            power = chan if power is None else compose(chan, power)
            brute = definitional_df_subalgebra(power)
            cumulative = brute if cumulative is None else intersect_spans(cumulative, brute)
        res = df_algebra_semigroup(gen)
        assert res.dim == dim
        assert subspaces_equal(list(res.basis), cumulative, tol=1e-7)

    @pytest.mark.parametrize("make_generator, dim", [
        (lambda: GKLSGenerator(np.kron(sx, sx), [np.kron(sm, eye(2))]), 2),
        (lambda: GKLSGenerator(sx, [sz]), 1),
        (lambda: GKLSGenerator(np.kron(sx, sx), [np.kron(sz, eye(2)) + np.kron(eye(2), sz)]), 5),
        (lambda: GKLSGenerator(random_hermitian(3, np.random.default_rng(3)),
                               [np.diag([1.0, 1.0, -1.0])]), 1),
    ], ids=["xx-coupling-decay", "drive-dephasing", "collective-dephasing-xx",
            "random-qutrit-dephasing"])
    def test_builds_no_superoperator(self, no_superoperator, make_generator, dim):
        # on {L_k, L_k†}' the generator is i[H, .], applied to operator stacks
        res = df_algebra_semigroup(make_generator())
        assert res.dim == dim

    @pytest.mark.parametrize("h_scale, l_scale", [(1.0, 1.0), (1e-3, 1e3), (1e-4, 1e4)])
    def test_weak_drive_is_not_hidden_by_strong_dissipation(self, h_scale, l_scale):
        # the rank cut sees i[H, .] at unit norm, whatever the size of the L_k
        res = df_algebra_semigroup(GKLSGenerator(h_scale * sx, [l_scale * sz]))
        assert res.dim == 1

    def test_identity_survives_a_large_energy_offset(self):
        # i[H, .] is blind to H + c 1, but its rounding is not: the recursion
        # works with H centred on its spectrum, so span{1} is never cut
        u = random_unitary(4, np.random.default_rng(1))
        z = u @ np.kron(sz, eye(2)) @ dag(u)
        z = 0.5 * (z + dag(z))
        res = df_algebra_semigroup(GKLSGenerator(1e9 * eye(4) + z, [z]))
        assert res.dim >= 1
        assert res.contains(eye(4))

    @pytest.mark.parametrize("make_gibbs", [
        lambda: build_gibbs_generator(-0.5 * sz, 1.0, [sm]),
        lambda: _ladder(1.0, 0.7),
        lambda: _ladder(1.0),
    ], ids=["qubit", "qutrit-ladder", "qutrit-one-rung"])
    def test_metric_gives_dissipator_kernel(self, make_gibbs):
        # detailed balance in the Gibbs metric makes the algebra ker L_D
        gen = make_gibbs().generator
        res = df_algebra_semigroup(gen)
        kernel = [unvec(v, gen.dim) for v in nullspace(gen.dissipator_matrix()).T]
        assert subspaces_equal(list(res.basis), kernel, tol=1e-7)


class TestFixedPoints:
    def test_identity_channel(self):
        assert fixed_points(unitary_channel(eye(2))).dim == 4

    def test_nondegenerate_unitary_gives_diagonals(self):
        chan = unitary_channel(expm(1j * 0.7 * sz))
        res = fixed_points(chan)
        assert res.dim == 2
        assert MatrixAlgebra(res.basis).contains(sz)

    def test_ergodic_gibbs_channel(self, gibbs_channel):
        res = fixed_points(gibbs_channel.channel())
        assert res.dim == 1
        assert res.faithful
        assert MatrixAlgebra(res.basis).closure_residuals()["product"] <= 1e-7
        assert np.allclose(res.stationary_state, gibbs_channel.metric.sigma, atol=1e-8)

    @pytest.mark.parametrize("name", ["gibbs", "collective-dephasing-N2", "rotated-dephasing"])
    def test_one_svd_gives_both_kernels(self, monkeypatch, request, name):
        # past the one rank cut of S - 1, the right singular vectors span the fixed
        # observables and the left ones the stationary states, the kernel of S† - 1
        from decofree import algebra

        chan = {"gibbs": lambda: request.getfixturevalue("gibbs_channel").channel(),
                "collective-dephasing-N2": lambda: _collective_dephasing_channel(2),
                "rotated-dephasing": _rotated_dephasing_channel}[name]()
        calls, svd = [], np.linalg.svd

        def recording_svd(*args, **kwargs):
            calls.append(svd(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        res = fixed_points(chan)
        monkeypatch.undo()
        assert len(calls) == 1
        u, s, _ = calls[0]
        left = list(unvec(u[:, algebra._rank(s):].T))
        ident = eye(chan.dim ** 2)
        fixed = list(unvec(null_space(chan.heisenberg_matrix() - ident).T))
        stationary = list(unvec(null_space(dag(chan.heisenberg_matrix()) - ident).T))
        assert len(left) == len(stationary) == res.dim >= 1
        assert subspaces_equal(left, stationary, tol=1e-7)
        assert subspaces_equal(list(res.basis), fixed, tol=1e-7)
        assert _span_algebra(stationary).contains(res.stationary_state)

    def test_faithful_at_the_metric_cut(self):
        # generalized amplitude damping with excited population 1e-11: the stationary
        # state's least eigenvalue lies above FAITHFUL_TOL, so the metric accepts it
        p, g = 1e-11, 0.5
        chan = KrausMap([np.sqrt(1 - p) * np.diag([1.0, np.sqrt(1 - g)]),
                         np.sqrt(1 - p) * np.sqrt(g) * np.outer([1, 0], [0, 1]),
                         np.sqrt(p) * np.diag([np.sqrt(1 - g), 1.0]),
                         np.sqrt(p) * np.sqrt(g) * np.outer([0, 1], [1, 0])])
        res = fixed_points(chan)
        assert np.linalg.eigvalsh(res.stationary_state)[0] == pytest.approx(p, rel=1e-6)
        LiouvilleMetric(res.stationary_state)
        assert res.faithful

    def test_fixed_points_inside_global_df(self, gibbs_channel):
        chan = gibbs_channel.channel()
        fixed = fixed_points(chan)
        df = df_algebra_discrete(chan)
        assert subspace_contains(list(df.algebra.basis), list(fixed.basis))


class TestCommutantBounds:
    def test_trivial_dissipative_part(self, rng):
        bounds = commutant_bounds(random_unitary(2, rng), unitary_channel(eye(2)))
        assert bounds.of_ops.dim == 4
        assert bounds.of_pair_products.dim == 4
        assert bounds.of_all_products is not None and bounds.of_all_products.dim == 4

    def test_dephasing_chain(self):
        chan = dephasing_channel(0.25)
        bounds = commutant_bounds(eye(2), chan)
        assert bounds.of_ops.dim == 2
        nalg = multiplicative_domain(chan)
        assert bounds.of_ops.is_subalgebra_of(bounds.of_pair_products)
        assert bounds.of_pair_products.is_subalgebra_of(nalg)
        assert subspaces_equal(list(bounds.of_pair_products.basis), list(nalg.basis))
        assert bounds.of_all_products is not None
        df = df_algebra_discrete(chan)
        assert bounds.of_all_products.is_subalgebra_of(df.algebra)

    def test_pair_commutant_is_multiplicative_domain(self):
        # a seeded random channel in a direct sum with a random unitary one:
        # the domain is C 1 (+) M_2, of dimension 5, by the definitional oracle
        rng = np.random.default_rng(302)
        u = random_unitary(2, rng)
        ops = [np.zeros((5, 5), dtype=complex) for _ in range(3)]
        for w, block in zip(ops, random_unital_channel(3, 3, rng).kraus_ops):
            w[:3, :3] = block
            w[3:, 3:] = u / np.sqrt(3.0)
        chan = KrausMap(ops)
        bounds = commutant_bounds(eye(5), chan)
        nalg = multiplicative_domain(chan)
        assert nalg.dim == 5
        assert subspaces_equal(list(bounds.of_pair_products.basis), list(nalg.basis))
        assert subspaces_equal(list(nalg.basis), definitional_df_subalgebra(chan))

    def test_superradiance_kraus_factor(self, gibbs_channel):
        # thermal qubit: W1 = {sm, sp}' is trivial and sits in every bound
        bounds = commutant_bounds(
            gibbs_channel.unitary, gibbs_channel.dissipative
        )
        assert bounds.unitary_commutes
        assert bounds.of_ops.is_subalgebra_of(bounds.of_pair_products)
        assert bounds.of_all_products is not None
        assert bounds.of_ops.is_subalgebra_of(bounds.of_all_products)


def test_checks_build_no_superoperator(gibbs_channel, no_superoperator):
    # every commutation, hermiticity and stationarity check works on operator
    # terms; the dense builders are refused while the checks run
    ladder = _ladder(1.0, 0.7)  # build_gibbs_generator checks stationarity
    report = detailed_balance_check(ladder.generator, ladder.metric())
    assert (report.stationary, report.commuting_parts, report.hermitian_dissipator) == (
        True, True, True)
    rep = build_permutation_rep(2, 2)
    assert global_invariance_residual(build_superradiance_generator(2, 1.0, 1.0), rep) < 1e-10
    assert global_invariance_residual(KrausMap([eye(4)]), rep) < 1e-10
    assert commutant_bounds(gibbs_channel.unitary, gibbs_channel.dissipative).unitary_commutes
    DetailedBalanceChannel(unitary=gibbs_channel.unitary, dissipative=gibbs_channel.dissipative,
                           metric=gibbs_channel.metric)


@pytest.mark.parametrize("spoil, message", [
    ({"unitary": eye(3)}, "unitary dimension does not match the dissipative part"),
    ({"unitary": 2.0 * eye(2)}, "unitary part is not unitary within tolerance"),
    ({"unitary": sx}, "unitary and dissipative parts do not commute"),
    ({"metric": LiouvilleMetric(eye(2) / 2)}, "dissipative part is not hermitian in the metric"),
    ({"unitary": sx, "dissipative": unitary_channel(eye(2))},
     "metric state is not invariant under the unitary part"),
    # a unital part hermitian in the metric keeps sigma, so only a non-unital one is refused
    ({"unitary": eye(2), "dissipative": KrausMap([0.5 * eye(2)], tol=1.0)},
     "metric state is not stationary for the channel"),
], ids=["shape", "not-unitary", "not-commuting", "not-hermitian", "not-invariant",
        "not-stationary"])
def test_detailed_balance_channel_refuses_inconsistent_parts(gibbs_channel, spoil, message):
    parts = {"unitary": gibbs_channel.unitary, "dissipative": gibbs_channel.dissipative,
             "metric": gibbs_channel.metric}
    with pytest.raises(ValueError, match=message):
        DetailedBalanceChannel(**(parts | spoil))


def test_detailed_balance_channel_needs_a_positive_time_step(gibbs_qubit):
    with pytest.raises(ValueError, match="time step must be positive"):
        detailed_balance_channel_from_gibbs(gibbs_qubit, 0.0)


class TestRelaxation:
    def test_projector_basis_is_metric_orthonormal_for_a_complex_gram_matrix(self):
        # the qutrit ladder with one rung, rotated off the real axis: the sigma Gram
        # matrix of the fixed-point basis is complex, so conj(L^-1) matters
        u = random_unitary(3, np.random.default_rng(5))
        v = np.zeros((3, 3), dtype=complex)
        v[1, 0] = 1.0
        gibbs = build_gibbs_generator(u @ np.diag([2.0, 1.2, 0.0]) @ dag(u), 0.8, [u @ v @ dag(u)])
        db = detailed_balance_channel_from_gibbs(gibbs)
        basis = df_projector_basis(db)
        gram = np.array([[db.metric.inner(a, b) for b in basis] for a in basis])
        assert len(basis) == 2 and np.max(np.abs(gram - eye(2))) < 1e-12
        assert subspaces_equal(basis, list(fixed_points(db.dissipative).basis))

    def test_df_observable_never_moves(self, gibbs_channel):
        trace = relaxation_trace(gibbs_channel, eye(2), k_max=10)
        assert np.max(trace.errors) < 1e-12

    def test_sx_decays_geometrically(self, gibbs_channel):
        trace = relaxation_trace(gibbs_channel, sx, k_max=20)
        assert np.all(np.diff(trace.errors) <= 1e-12)
        assert trace.errors[20] / trace.errors[0] <= 1e-4
        expected_gap = np.exp(-0.5 * (1.0 + np.exp(-1.0)))
        assert trace.dissipative_gap == pytest.approx(expected_gap, rel=1e-10)
        assert trace.rate_estimate == pytest.approx(expected_gap, rel=0.05)

    def test_exact_diagonalization_oracle(self, gibbs_channel):
        # the 4x4 dissipative superoperator predicts the whole error sequence
        s_d = gibbs_channel.dissipative.heisenberg_matrix()
        from decofree.operators import unvec, vec

        basis = df_projector_basis(gibbs_channel)
        pa = df_project(gibbs_channel, sx, basis)
        trace = relaxation_trace(gibbs_channel, sx, k_max=12)
        current = vec(sx - pa)
        for k in range(13):
            direct = gibbs_channel.metric.norm(unvec(current, 2))
            assert trace.errors[k] == pytest.approx(direct, abs=1e-12)
            current = s_d @ current

    def test_projector_is_metric_orthogonal(self, gibbs_channel, rng):
        basis = df_projector_basis(gibbs_channel)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pa = df_project(gibbs_channel, a, basis)
        for b in basis:
            # residual orthogonal to the fixed space in the sigma inner product
            assert abs(gibbs_channel.metric.inner(b, a - pa)) < 1e-12
