import json

import numpy as np
import pytest

from decofree.born import gaussian_bath
from decofree.channels import dephasing_channel
from decofree.jsonio import (
    ValidationError,
    bath_from_json,
    channel_from_json,
    channel_to_json,
    coupling_from_json,
    dump_json,
    generator_from_json,
    generator_to_json,
    gibbs_to_json,
    matrix_from_json,
    matrix_to_json,
    pure_state_from_json,
    state_from_json,
    trajectory_from_json,
    trajectory_to_json,
    vector_from_json,
    vector_to_json,
)
from decofree.lindblad import GKLSGenerator, GibbsGenerator, build_gibbs_generator
from decofree.born import ControlTrajectory
from decofree.operators import sm, sx, sz


class TestMatrixRoundTrip:
    def test_sigma_x_literal(self):
        obj = {"dim": 2, "rows": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
        assert np.array_equal(matrix_from_json(obj), sx)

    def test_bit_exact_round_trip(self, rng):
        m = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-300, 300, size=(3, 3))
        m = m + 1j * rng.normal(size=(3, 3))
        m[0, 0] = 0.1 + 0.2j  # classic shortest-repr cases
        text = dump_json(matrix_to_json(m))
        back = matrix_from_json(json.loads(text))
        assert np.array_equal(back, m)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 2, "rows": [[[0, 0]]]})

    def test_vector_round_trip(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.array_equal(vector_from_json(vector_to_json(v)), v)


class TestWritersMatchPerEntryOracle:
    """The array writers against one Python float pair per entry."""

    @staticmethod
    def oracle(entries) -> list:
        return [[float(z.real), float(z.imag)] for z in entries]

    def test_matrices(self, rng):
        special = np.array([[-0.0, 5e-324], [1e16, complex(-0.0, -0.0)]])
        transposed = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))).T
        assert not transposed.flags.c_contiguous
        for m in (rng.normal(size=(3, 3)), transposed, special, special.real):
            expected = {"dim": m.shape[0], "rows": [self.oracle(row) for row in m]}
            assert matrix_to_json(m) == expected
            assert dump_json(matrix_to_json(m)) == dump_json(expected)
        assert dump_json(matrix_to_json(special)).count("-0.0") == 3

    def test_column_vector(self, rng):
        column = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        column[0, 0] = complex(-0.0, 1e16)
        expected = {"dim": 4, "entries": self.oracle(column[:, 0])}
        assert vector_to_json(column) == expected
        assert dump_json(vector_to_json(column)) == dump_json(expected)


class TestEntryValidation:
    @pytest.mark.parametrize("pair", [
        [float("nan"), 0.0], [0.0, float("-inf")], ["1", 0], [True, 0], [0, None],
        [10 ** 400, 0], [1.0], 1.0,
    ], ids=["nan", "-inf", "string", "bool", "null", "huge-int", "one-part", "scalar"])
    def test_rejected(self, pair):
        with pytest.raises(ValidationError, match="finite numbers"):
            matrix_from_json({"dim": 1, "rows": [[pair]]})
        with pytest.raises(ValidationError, match="finite numbers"):
            vector_from_json({"entries": [pair]})

    def test_integers_accepted(self):
        assert vector_from_json({"entries": [[1, -2]]})[0] == 1 - 2j

    # every scalar field of a model file: its loader and a value it accepts
    FIELDS = {
        "tau": (lambda v: trajectory_from_json(
            {"tau": v, "segments": [{"dt": 2.0, "H": matrix_to_json(sz)}]}), 1.0),
        "dt": (lambda v: trajectory_from_json(
            {"tau": 1.0, "segments": [{"dt": v, "H": matrix_to_json(sz)}]}), 2.0),
        "T": (lambda v: generator_from_json(
            {"H": matrix_to_json(-0.5 * sz), "V": [matrix_to_json(sm)], "T": v}), 1.0),
        "N": (lambda v: generator_from_json({"model": "superradiance", "N": v}), 2),
        "d": (lambda v: generator_from_json({"model": "private_bath", "N": 2, "d": v}), 2),
        "omega": (lambda v: generator_from_json(
            {"model": "superradiance", "N": 2, "omega": v}), 1.0),
        "gamma": (lambda v: generator_from_json(
            {"model": "superradiance", "N": 2, "gamma": v}), 1.0),
        "matrix-dim": (lambda v: matrix_from_json({"dim": v, "rows": [[[1.0, 0.0]]]}), 1),
        "vector-dim": (lambda v: vector_from_json({"dim": v, "entries": [[1.0, 0.0]]}), 1),
        "tabulated-omega": (lambda v: bath_from_json(
            {"omega": [-1.0, v, 1.0], "R": [0.0, 1.0, 0.0]}), 0.0),
        "tabulated-R": (lambda v: bath_from_json(
            {"omega": [-1.0, 0.0, 1.0], "R": [0.0, v, 0.0]}), 1.0),
    }
    INTEGER_FIELDS = ["N", "d", "matrix-dim", "vector-dim"]

    @pytest.mark.parametrize("leaf", [float("nan"), float("-inf"), "1", True, None, 10 ** 400],
                             ids=["nan", "-inf", "string", "bool", "null", "huge-int"])
    @pytest.mark.parametrize("field", list(FIELDS))
    def test_scalar_field_rejected(self, field, leaf):
        load, good = self.FIELDS[field]
        load(good)
        with pytest.raises(ValidationError):
            load(leaf)

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_integer_field_needs_an_integral_value(self, field):
        load, good = self.FIELDS[field]
        load(float(good))  # an integral float is an integer
        with pytest.raises(ValidationError, match="integer"):
            load(good + 0.5)


class TestChannelIO:
    def test_round_trip(self, rng):
        chan = dephasing_channel(0.25)
        back = channel_from_json(channel_to_json(chan))
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(back(a), chan(a))

    def test_non_unital_rejected_with_defect(self):
        obj = {"dim": 2, "kraus": [matrix_to_json(np.diag([1.0, 0.5]))]}
        with pytest.raises(ValidationError) as err:
            channel_from_json(obj)
        assert err.value.details["unitality_defect"] == pytest.approx(0.75)


class TestGeneratorIO:
    def test_plain_round_trip(self, rng):
        gen = GKLSGenerator(0.5 * sz, [sm, 0.3 * sz])
        back = generator_from_json(generator_to_json(gen))
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(back(a), gen(a))

    def test_gibbs_round_trip(self):
        gibbs = build_gibbs_generator(-0.5 * sz, 1.0, [sm])
        back = generator_from_json(gibbs_to_json(gibbs))
        assert isinstance(back, GibbsGenerator)
        assert np.allclose(back.stationary_state, gibbs.stationary_state)

    def test_model_registry(self):
        gen = generator_from_json({"model": "superradiance", "N": 2, "omega": 1.0, "gamma": 1.0})
        assert gen.dim == 4
        assert len(gen.lindblad_ops) == 1
        with pytest.raises(ValidationError, match="unknown model"):
            generator_from_json({"model": "nope"})

    def test_private_bath_model(self):
        gen = generator_from_json(
            {"model": "private_bath", "N": 2, "v_site": [matrix_to_json(sm)]}
        )
        assert gen.dim == 4
        assert len(gen.lindblad_ops) == 2


class TestStateIO:
    def test_density_matrix_validated(self):
        with pytest.raises(ValidationError):
            state_from_json(matrix_to_json(np.diag([1.5, -0.5])))

    def test_pure_state_norm(self):
        with pytest.raises(ValidationError, match="norm"):
            pure_state_from_json(vector_to_json(np.array([1.0, 1.0])))


class TestTrajectoryAndBathIO:
    def test_trajectory_round_trip(self):
        traj = ControlTrajectory(1.0, [(0.5, sx), (1.5, sz)])
        back = trajectory_from_json(trajectory_to_json(traj))
        assert back.tau == traj.tau
        assert np.allclose(
            back.propagator(-1.0, 1.0), traj.propagator(-1.0, 1.0)
        )

    def test_bath_families(self):
        for spec in (
            {"type": "gaussian", "coupling": 0.1, "width": 2.0},
            {"type": "flat", "level": 0.1, "cutoff": 10.0},
            {"type": "ohmic", "coupling": 0.1, "kappa": 3.0, "cutoff": 2.0},
        ):
            bath = bath_from_json(spec)
            assert bath.spectral_matrix(0.5).shape == (1, 1)

    def test_tabulated_bath(self):
        bath = bath_from_json({"omega": [-1.0, 0.0, 1.0], "R": [0.0, 1.0, 0.0]})
        assert bath.spectral_matrix(0.5)[0, 0] == pytest.approx(0.5)
        assert bath.spectral_matrix(3.0)[0, 0] == 0.0

    def test_unknown_bath_type(self):
        with pytest.raises(ValidationError, match="unknown bath"):
            bath_from_json({"type": "pink"})

    def test_coupling_round_trip(self):
        obj = {
            "S": [matrix_to_json(sz)],
            "bath": {"type": "gaussian", "coupling": 0.1, "width": 2.0},
        }
        coupling = coupling_from_json(obj)
        assert coupling.n_ops == 1
        reference = gaussian_bath(0.1, 2.0)
        assert coupling.bath.spectral_matrix(1.3)[0, 0] == pytest.approx(
            reference.spectral_matrix(1.3)[0, 0]
        )


def test_bath_type_that_is_no_string_is_validation_error():
    with pytest.raises(ValidationError, match="unknown bath type"):
        bath_from_json({"type": ["gaussian"], "coupling": 0.1})
