"""JSON schemas for matrices, channels, generators, trajectories and baths.

Complex entries are [re, im] pairs; matrices are row-major arrays of rows.
Round trips are bit exact for IEEE-754 doubles because the encoder prints
shortest round-trip decimals.  Loaders validate physical constraints and
raise :class:`ValidationError` with a machine-readable detail dict.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .born import (
    Bath,
    ControlTrajectory,
    Coupling,
    flat_bath,
    gaussian_bath,
    ohmic_bath,
    quartic_gaussian_bath,
    tabulated_bath,
)
from .channels import KrausMap
from .lindblad import GKLSGenerator, GibbsGenerator, build_gibbs_generator
from .operators import DEFAULT_TOL, check_density_matrix


class ValidationError(ValueError):
    """Input failed schema or physical validation."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}

    def as_json(self) -> dict:
        # the encoder refuses inf and nan, so a non-finite detail is written as its string
        details = {key: str(value) if isinstance(value, float) and not math.isfinite(value)
                   else value for key, value in self.details.items()}
        return {"error": "validation", "message": str(self), **details}


def _finite(leaves: list) -> bool:
    """Every leaf a finite JSON number: exactly an int or a float (bool is an int
    subclass), finite as a double.  Both tests run at C speed over the list."""
    try:
        return set(map(type, leaves)) <= {int, float} and all(map(math.isfinite, leaves))
    except OverflowError:  # an integer beyond the double range
        return False


def _number(obj: dict, key: str, default=None, *, integer: bool = False):
    """obj[key], or `default` when absent: a finite JSON number, integral if `integer`."""
    value = obj.get(key, default)
    if not _finite([value]) or integer and value % 1:
        raise ValidationError(f"{key!r} must be {'an integer' if integer else 'a finite number'}, "
                              f"got {value!r}")
    return round(value) if integer else value  # round: exact on an integral value


def _fields(obj: dict, kind: str, fields: tuple, **found: int) -> None:
    """Refuse a key outside `fields`, which the loader reads (a misspelt optional field
    would run its default), and a restated dimension key=n in `found` other than n."""
    unknown = obj.keys() - fields
    if unknown:
        raise ValidationError(f"unknown {kind} field(s): {', '.join(map(repr, sorted(unknown)))}")
    for key, n in found.items():
        if _number(obj, key, n, integer=True) != n:
            raise ValidationError(f"{kind} {key!r} is {obj[key]}, but its data have dimension {n}")


def _real_array(value, message: str, *shapes) -> np.ndarray:
    """`value`, lists nested to one depth with finite JSON numbers as leaves, as a
    float array shaped like one of `shapes` (None matches any length)."""
    leaves = value if type(value) is list else [value]
    try:  # descend by first rows; np.array refuses rows of another depth or length
        while leaves and type(leaves[0]) is list:
            leaves = [x for row in leaves for x in row]
        arr = np.array(value, dtype=float) if _finite(leaves) else None
    except (TypeError, ValueError):  # a number where a row belongs, or ragged rows
        arr = None
    if arr is not None:
        for shape in shapes:
            if len(shape) == arr.ndim and all(k in (None, m) for k, m in zip(shape, arr.shape)):
                return arr
    raise ValidationError(message)


def _checked(build, prefix: str = "", details: dict | None = None):
    """build(), with a ValueError the library raises reported as invalid input."""
    try:
        return build()
    except ValueError as exc:
        raise ValidationError(prefix + str(exc), details) from exc


def _complex_array(obj: Any, kind: str, key: str, ndim: int) -> np.ndarray:
    """obj[key]: [re, im] pairs nested `ndim` lists deep, n entries per list with
    n = obj["dim"] when given.  A complex view of the pairs keeps every bit."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{kind} object must have a {key!r} field")
    pairs = _real_array(obj[key], f"{kind} {key!r} must hold [re, im] pairs of finite numbers",
                        (None,) * ndim + (2,))
    z = pairs.view(complex)[..., 0]
    _fields(obj, kind, ("dim", key), dim=len(z))
    if z.shape != (len(z),) * ndim:
        raise ValidationError(f"{kind} {key!r} must be square")
    return z


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]), "rows": np.stack([m.real, m.imag], axis=-1).tolist()}


def matrix_from_json(obj: Any) -> np.ndarray:
    return _complex_array(obj, "matrix", "rows", 2)


def vector_to_json(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex).ravel()
    return {"dim": int(v.size), "entries": np.stack([v.real, v.imag], axis=-1).tolist()}


def vector_from_json(obj: Any) -> np.ndarray:
    return _complex_array(obj, "vector", "entries", 1)


# ---------------------------------------------------------------------------
# Channels


def channel_to_json(channel: KrausMap) -> dict:
    return {
        "dim": channel.dim,
        "kraus": [matrix_to_json(w) for w in channel.kraus_ops],
    }


def matrices_from_json(obj: Any, key: str, owner: str, *, required: bool = True) -> list:
    """obj[key] as a list of matrices of one dimension: nonempty when required,
    else an absent key reads as no matrices."""
    value = obj.get(key, None if required else []) if isinstance(obj, dict) else None
    if not isinstance(value, list) or required and not value:
        raise ValidationError(f"{owner} object must have a {'nonempty ' * required}{key!r} list")
    ops = [matrix_from_json(m) for m in value]
    if len({m.shape for m in ops}) > 1:
        raise ValidationError(f"all {key!r} matrices of the {owner} object must have one dimension")
    return ops


def channel_from_json(obj: Any) -> KrausMap:
    ops = matrices_from_json(obj, "kraus", "channel")
    _fields(obj, "channel", ("dim", "kraus"), dim=ops[0].shape[0])
    try:
        return KrausMap(ops)
    except ValueError as exc:  # every list that reaches KrausMap is nonempty and square
        raise ValidationError(str(exc), {"unitality_defect": exc.unitality_defect,
                                         "tolerance": DEFAULT_TOL}) from exc


# ---------------------------------------------------------------------------
# Generators


def generator_to_json(gen: GKLSGenerator) -> dict:
    return {
        "dim": gen.dim,
        "H": matrix_to_json(gen.hamiltonian),
        "V": [matrix_to_json(v) for v in gen.lindblad_ops],
    }


def generator_from_json(obj: Any):
    if isinstance(obj, dict) and "model" in obj:
        return _model_generator(obj)
    if not isinstance(obj, dict) or "H" not in obj:
        raise ValidationError("generator object must have an 'H' field")
    h = matrix_from_json(obj["H"])
    _fields(obj, "generator", ("dim", "H", "V", *(("T", "omega") if "T" in obj else ())),
            dim=h.shape[0])
    ops = matrices_from_json(obj, "V", "generator", required=False)
    if "T" not in obj:
        return _checked(lambda: GKLSGenerator(h, ops))
    temperature = _number(obj, "T")
    gibbs = _checked(lambda: build_gibbs_generator(h, temperature, ops),
                     details={"temperature": temperature})
    bohr = [w for _, w in gibbs.eigen_ops]  # "omega", as gibbs_to_json writes it, restates them
    omega = _real_array(obj.get("omega", bohr), "generator 'omega' must list one finite "
                        "number per 'V' operator", (len(ops),))
    if np.any(np.abs(omega - bohr) > 1e-8):  # the tolerance of bohr_frequency
        raise ValidationError("generator 'omega' disagrees with the Bohr frequencies of its "
                              "'V' operators", {"bohr_frequencies": bohr})
    return gibbs


def _model_generator(obj: dict) -> GKLSGenerator:
    """Registry of named N-particle models: superradiance and private_bath."""
    from .symmetry import _check_size, build_private_bath_generator, build_superradiance_generator

    name = obj["model"]
    try:
        if name == "superradiance":
            _fields(obj, name, ("model", "N", "omega", "gamma"))
            n_sites = _number(obj, "N", integer=True)
            return build_superradiance_generator(n_sites, _number(obj, "omega", 1.0),
                                                 _number(obj, "gamma", 1.0))
        if name == "private_bath":
            n_sites = _number(obj, "N", integer=True)
            site_h = matrix_from_json(obj["h_site"]) if "h_site" in obj else None
            d = _number(obj, "d", 2, integer=True) if site_h is None else site_h.shape[0]
            _fields(obj, name, ("model", "N", "d", "h_site", "v_site", "H"), d=d)
            # the size cap holds before any d x d or d**N x d**N array is allocated
            dim = _check_size(d, n_sites)
            site_gen = GKLSGenerator(np.zeros((d, d)) if site_h is None else site_h,
                                     matrices_from_json(obj, "v_site", "model", required=False))
            ham = matrix_from_json(obj["H"]) if "H" in obj else np.zeros((dim, dim))
            return build_private_bath_generator(n_sites, ham, site_gen)
    except ValueError as exc:
        raise ValidationError(f"bad model parameters: {exc}") from exc
    raise ValidationError(
        f"unknown model {name!r}", {"known_models": ["superradiance", "private_bath"]}
    )


def gibbs_to_json(gibbs: GibbsGenerator) -> dict:
    return {
        "dim": gibbs.generator.dim,
        "H": matrix_to_json(gibbs.generator.hamiltonian),
        "V": [matrix_to_json(v) for v, _ in gibbs.eigen_ops],
        "T": gibbs.temperature,
        "omega": [float(w) for _, w in gibbs.eigen_ops],
    }


# ---------------------------------------------------------------------------
# States


def state_from_json(obj: Any) -> np.ndarray:
    rho = matrix_from_json(obj)
    _checked(lambda: check_density_matrix(rho))
    return rho


def pure_state_from_json(obj: Any) -> np.ndarray:
    psi = vector_from_json(obj)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > DEFAULT_TOL:  # the tolerance of the Born routes' own check
        raise ValidationError(f"state vector norm {norm:.12g} != 1", {"norm": norm})
    return psi


# ---------------------------------------------------------------------------
# Trajectories and baths


def trajectory_to_json(traj: ControlTrajectory) -> dict:
    return {
        "tau": traj.tau,
        "segments": [
            {"dt": seg.duration, "H": matrix_to_json(seg.hamiltonian)}
            for seg in traj.segments
        ],
    }


def trajectory_from_json(obj: Any) -> ControlTrajectory:
    segs = obj.get("segments") if isinstance(obj, dict) else None
    if not isinstance(segs, list) or not all(isinstance(seg, dict) for seg in segs):
        raise ValidationError("trajectory object must have 'tau' and a 'segments' list of objects")
    _fields(obj, "trajectory", ("tau", "segments"))
    for seg in segs:
        _fields(seg, "segment", ("dt", "H"))
    return _checked(lambda: ControlTrajectory(
        _number(obj, "tau"), [(_number(seg, "dt"), matrix_from_json(seg.get("H"))) for seg in segs]
    ), "bad trajectory: ")


def _amplitude(obj: dict, key: str):
    """A coupling amplitude: one finite number, or a matrix of them as a list of rows."""
    return _real_array(obj.get(key, 1.0), f"bath parameter {key!r} must be a finite number "
                       "or a matrix of them as a list of rows", (), (None, None))


# bath "type" (None for a bath without one, a tabulated spectrum) -> (the fields of
# its object, its builder from that object and the number of coupling operators)
_BATH_FAMILIES = {
    None: (("omega", "R"), lambda obj, n: tabulated_bath(
        _real_array(obj.get("omega"), "'omega' must list finite numbers", (None,)),
        _real_array(obj.get("R"), "'R' must list finite numbers or real matrices",
                    (None,), (None, None, None)))),
    "gaussian": (("type", "coupling", "width"), lambda obj, n: gaussian_bath(
        _amplitude(obj, "coupling"), _number(obj, "width", 1.0), n_ops=n)),
    "flat": (("type", "level", "coupling", "cutoff"), lambda obj, n: flat_bath(
        _amplitude(obj, "level" if "level" in obj else "coupling"),
        _number(obj, "cutoff", 50.0), n_ops=n)),
    "ohmic": (("type", "coupling", "kappa", "cutoff"), lambda obj, n: ohmic_bath(
        _number(obj, "coupling", 1.0), _number(obj, "kappa", 1.0),
        _number(obj, "cutoff", 1.0), n_ops=n)),
    "quartic-gaussian": (("type", "coupling", "width"), lambda obj, n: quartic_gaussian_bath(
        _number(obj, "coupling", 1.0), _number(obj, "width", 1.0), n_ops=n)),
}


def bath_from_json(obj: Any, n_ops: int = 1) -> Bath:
    if not isinstance(obj, dict):
        raise ValidationError("bath object must be a JSON object")
    kind = obj.get("type")
    if not (kind is None or isinstance(kind, str) and kind in _BATH_FAMILIES):
        raise ValidationError(f"unknown bath type {kind!r}",
                              {"known_types": sorted(filter(None, _BATH_FAMILIES))})
    fields, build = _BATH_FAMILIES[kind]
    name = f"{kind} bath" if kind else "tabulated bath (no 'type')"
    _fields(obj, name, fields)
    if "level" in obj and "coupling" in obj:  # the two names of the flat amplitude
        raise ValidationError("flat bath takes 'level' or 'coupling', not both")
    return _checked(lambda: build(obj, n_ops), f"bad {name}: ")


def ops_from_json(obj: Any) -> list:
    ops = matrices_from_json(obj, "ops", "ops")  # {"ops": [<matrix>...]} of `blocks --ops`
    _fields(obj, "ops", ("ops",))
    return ops


def coupling_from_json(obj: Any) -> Coupling:
    """{"S": [<matrix>...], "bath": <bath>} -> Coupling."""
    ops = matrices_from_json(obj, "S", "coupling")
    _fields(obj, "coupling", ("S", "bath"))
    bath = bath_from_json(obj.get("bath"), n_ops=len(ops))
    return _checked(lambda: Coupling(system_ops=tuple(ops), bath=bath))


# ---------------------------------------------------------------------------
# File helpers


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(str(exc)) from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def dump_json(obj: Any, path: str | None = None) -> str:
    """One line of compact JSON with sorted keys; compact separators keep the C encoder."""
    text = json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":")) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
