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
from .operators import check_density_matrix, dag, eye


class ValidationError(ValueError):
    """Input failed schema or physical validation."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}

    def as_json(self) -> dict:
        return {"error": "validation", "message": str(self), **self.details}


def _finite(value) -> bool:
    """A finite JSON number: exactly an int or a float (bool is an int subclass)."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the double range
        return False


def _pair_to_complex(pair) -> complex:
    """One [re, im] entry: two finite JSON numbers, not bools or strings."""
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        re, im = pair
        if _finite(re) and _finite(im):
            return complex(re, im)
    raise ValidationError(
        f"complex entry must be a [re, im] pair of finite numbers, got {pair!r}"
    )


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]), "rows": np.stack([m.real, m.imag], axis=-1).tolist()}


def matrix_from_json(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValidationError("matrix object must have a 'rows' field")
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValidationError("matrix 'rows' must be a list of rows")
    try:
        n = int(obj.get("dim", len(rows)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"matrix 'dim' must be an integer: {exc}") from exc
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValidationError(f"matrix rows do not form a {n}x{n} array")
    return np.array([[_pair_to_complex(z) for z in row] for row in rows], dtype=complex)


def vector_to_json(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex).ravel()
    return {"dim": int(v.size), "entries": np.stack([v.real, v.imag], axis=-1).tolist()}


def vector_from_json(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValidationError("vector object must have an 'entries' field")
    v = np.array([_pair_to_complex(z) for z in obj["entries"]], dtype=complex)
    # compared without int(), so a non-numeric dim is a mismatch, not a crash
    if "dim" in obj and obj["dim"] != v.size:
        raise ValidationError("vector length does not match its declared dim")
    return v


# ---------------------------------------------------------------------------
# Channels


def channel_to_json(channel: KrausMap) -> dict:
    return {
        "dim": channel.dim,
        "kraus": [matrix_to_json(w) for w in channel.kraus_ops],
    }


def channel_from_json(obj: Any, *, tol: float = 1e-9) -> KrausMap:
    if not isinstance(obj, dict) or not isinstance(obj.get("kraus"), list) or not obj["kraus"]:
        raise ValidationError("channel object must have a nonempty 'kraus' list")
    ops = [matrix_from_json(m) for m in obj["kraus"]]
    if len({w.shape for w in ops}) > 1:
        raise ValidationError("all Kraus operators must have one dimension")
    try:
        channel = KrausMap(ops, tol=tol)
    except ValueError as exc:
        n = ops[0].shape[0]
        gram = sum(dag(w) @ w for w in ops)
        defect = float(np.max(np.abs(gram - eye(n))))
        raise ValidationError(
            str(exc), {"unitality_defect": defect, "tolerance": tol}
        ) from exc
    return channel


# ---------------------------------------------------------------------------
# Generators


def generator_to_json(gen: GKLSGenerator) -> dict:
    return {
        "dim": gen.dim,
        "H": matrix_to_json(gen.hamiltonian),
        "V": [matrix_to_json(v) for v in gen.lindblad_ops],
    }


def generator_from_json(obj: Any, *, tol: float = 1e-9):
    if isinstance(obj, dict) and "model" in obj:
        return _model_generator(obj)
    if not isinstance(obj, dict) or "H" not in obj:
        raise ValidationError("generator object must have an 'H' field")
    h = matrix_from_json(obj["H"])
    ops = [matrix_from_json(m) for m in obj.get("V", [])]
    if "T" in obj:
        try:
            return build_gibbs_generator(h, float(obj["T"]), ops)
        except ValueError as exc:
            raise ValidationError(str(exc), {"temperature": obj["T"]}) from exc
    try:
        return GKLSGenerator(h, ops, tol=tol)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _model_generator(obj: dict) -> GKLSGenerator:
    """Registry of named N-particle models: superradiance and private_bath."""
    from .symmetry import _check_size, build_private_bath_generator, build_superradiance_generator

    name = obj["model"]
    try:
        if name == "superradiance":
            return build_superradiance_generator(
                int(obj["N"]), float(obj.get("omega", 1.0)), float(obj.get("gamma", 1.0))
            )
        if name == "private_bath":
            n_sites = int(obj["N"])
            site_h = matrix_from_json(obj["h_site"]) if "h_site" in obj else None
            d = int(obj.get("d", 2)) if site_h is None else site_h.shape[0]
            # the size cap holds before any d x d or d**N x d**N array is allocated
            dim = _check_size(d, n_sites)
            site_gen = GKLSGenerator(np.zeros((d, d)) if site_h is None else site_h,
                                     [matrix_from_json(m) for m in obj.get("v_site", [])])
            ham = matrix_from_json(obj["H"]) if "H" in obj else np.zeros((dim, dim))
            return build_private_bath_generator(n_sites, ham, site_gen)
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad model parameters: {exc}") from exc
    raise ValidationError(
        f"unknown model {name!r}", {"known_models": ["superradiance", "private_bath"]}
    )


def gibbs_to_json(gibbs: GibbsGenerator) -> dict:
    return {
        "dim": gibbs.generator.dim,
        "H": matrix_to_json(gibbs.hamiltonian),
        "V": [matrix_to_json(v) for v, _ in gibbs.eigen_ops],
        "T": gibbs.temperature,
        "omega": [float(w) for _, w in gibbs.eigen_ops],
    }


# ---------------------------------------------------------------------------
# States


def state_from_json(obj: Any, *, tol: float = 1e-8) -> np.ndarray:
    rho = matrix_from_json(obj)
    try:
        check_density_matrix(rho, tol)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return rho


def pure_state_from_json(obj: Any, *, tol: float = 1e-8) -> np.ndarray:
    psi = vector_from_json(obj)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol:
        raise ValidationError(f"state vector norm {norm:.6g} != 1", {"norm": norm})
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
    if not isinstance(obj, dict) or "tau" not in obj or "segments" not in obj:
        raise ValidationError("trajectory object must have 'tau' and 'segments'")
    try:
        return ControlTrajectory(
            float(obj["tau"]),
            [(float(seg["dt"]), matrix_from_json(seg["H"])) for seg in obj["segments"]],
        )
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad trajectory: {exc}") from exc


def _number(obj: dict, key: str, default: float):
    """A bath family parameter that must be one finite number."""
    value = obj.get(key, default)
    if not _finite(value):
        raise ValidationError(f"bath parameter {key!r} must be a finite number, got {value!r}")
    return value


def _amplitude(obj: dict, key: str, default: float):
    """A coupling amplitude: one finite number, or a matrix of them as a list of rows."""
    value = obj.get(key, default)
    if isinstance(value, list) and all(
        isinstance(row, list) and all(_finite(x) for x in row) for row in value
    ):
        return value
    return _number(obj, key, default)


_BATH_FAMILIES = {
    "gaussian": lambda obj, n: gaussian_bath(
        _amplitude(obj, "coupling", 1.0), _number(obj, "width", 1.0), n_ops=n
    ),
    "flat": lambda obj, n: flat_bath(
        _amplitude(obj, "level" if "level" in obj else "coupling", 1.0),
        _number(obj, "cutoff", 50.0), n_ops=n
    ),
    "ohmic": lambda obj, n: ohmic_bath(
        _number(obj, "coupling", 1.0), _number(obj, "kappa", 1.0),
        _number(obj, "cutoff", 1.0), n_ops=n
    ),
    "quartic-gaussian": lambda obj, n: quartic_gaussian_bath(
        _number(obj, "coupling", 1.0), _number(obj, "width", 1.0), n_ops=n
    ),
}


def bath_from_json(obj: Any, n_ops: int = 1) -> Bath:
    if not isinstance(obj, dict):
        raise ValidationError("bath object must be a JSON object")
    if "omega" in obj and "R" in obj:
        try:
            return tabulated_bath(obj["omega"], np.asarray(obj["R"], dtype=float))
        except ValueError as exc:
            raise ValidationError(f"bad tabulated bath: {exc}") from exc
    kind = obj.get("type")
    if kind not in _BATH_FAMILIES:
        raise ValidationError(
            f"unknown bath type {kind!r}", {"known_types": sorted(_BATH_FAMILIES)}
        )
    try:
        return _BATH_FAMILIES[kind](obj, n_ops)
    except ValueError as exc:
        raise ValidationError(f"bad bath parameters: {exc}") from exc


def coupling_from_json(obj: Any) -> Coupling:
    """{"S": [<matrix>...], "bath": <bath>} -> Coupling."""
    if not isinstance(obj, dict) or "S" not in obj or "bath" not in obj:
        raise ValidationError("coupling object must have 'S' and 'bath'")
    ops = [matrix_from_json(m) for m in obj["S"]]
    bath = bath_from_json(obj["bath"], n_ops=len(ops))
    try:
        return Coupling(system_ops=tuple(ops), bath=bath)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# File helpers


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def dump_json(obj: Any, path: str | None = None) -> str:
    """One line of compact JSON with sorted keys; compact separators keep the C encoder."""
    text = json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":")) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
