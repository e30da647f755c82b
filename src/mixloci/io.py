"""State-file ingestion and report serialization.

State files are UTF-8 JSON with "m", "n" and exactly one of "ensemble" or
"matrix"; complex numbers are always [re, im] pairs, never strings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MixLociError, NotHermitian, ShapeMismatch, WeightSumInvalid, ZeroVector
from .numeric import ToleranceConfig
from .states import (BipartiteShape, DensityMatrix, Ensemble, PureState,
                     density_from_ensemble, density_matrix_from_array, eigen_ensemble,
                     make_ensemble, make_pure)

__all__ = ["StateFileError", "LoadedState", "load_state", "complex_to_pairs",
           "pairs_to_complex", "file_sha256"]


# largest magnitude of a number in a state file: its square, summed over
# every entry of a state, stays finite
_MAX_MAGNITUDE = 1e150


class StateFileError(MixLociError):
    pass


@dataclass(frozen=True)
class LoadedState:
    shape: BipartiteShape
    density: DensityMatrix
    ensemble: Ensemble


def pairs_to_complex(pairs, what: str) -> np.ndarray:
    try:
        arr = np.asarray(pairs)
    except ValueError:  # ragged nesting
        arr = np.empty(0)
    if arr.dtype.kind not in "iuf" or arr.ndim != 2 or arr.shape[1] != 2 \
            or not np.abs(arr).max() <= _MAX_MAGNITUDE:  # NaN fails too
        raise StateFileError(
            f"{what}: expected an array of [re, im] number pairs of magnitude at most "
            f"{_MAX_MAGNITUDE:g}")
    return arr[:, 0] + 1j * arr[:, 1]


def complex_to_pairs(values) -> list[list[float]]:
    arr = np.asarray(values, dtype=complex).ravel()
    return [[float(c.real), float(c.imag)] for c in arr]


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_state(path, tol: ToleranceConfig = ToleranceConfig()) -> LoadedState:
    """Parse and validate a state file, producing both matrix and ensemble views.

    Every malformed document raises StateFileError.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError("state file root must be a JSON object")
    m, n = doc.get("m"), doc.get("n")
    if type(m) is not int or type(n) is not int:  # bool is not int here
        raise StateFileError("state file needs integer members 'm' and 'n'")
    normalize = doc.get("normalize", True)
    if not isinstance(normalize, bool):
        raise StateFileError("'normalize' must be true or false")
    has_ensemble = "ensemble" in doc
    if has_ensemble == ("matrix" in doc):
        raise StateFileError("state file needs exactly one of 'ensemble' or 'matrix'")
    try:
        shape = BipartiteShape(m, n)
        if has_ensemble:
            if not isinstance(doc["ensemble"], list):
                raise StateFileError("'ensemble' must be a list")
            members = []
            for entry in doc["ensemble"]:
                p = entry.get("p") if isinstance(entry, dict) else None
                if not (type(p) in (int, float) and 0 < p <= _MAX_MAGNITUDE and "amps" in entry):
                    raise StateFileError("each ensemble entry needs a positive 'p' of at "
                                         f"most {_MAX_MAGNITUDE:g} and 'amps'")
                amps = pairs_to_complex(entry["amps"], "ensemble amps")
                if amps.size != shape.dim:
                    raise StateFileError(
                        f"ensemble member has {amps.size} amplitudes, expected {shape.dim}")
                if normalize:
                    psi = make_pure(amps, shape)
                else:
                    if abs(np.linalg.norm(amps) - 1.0) > 1e-12:
                        raise StateFileError("unnormalized amplitudes with normalize=false")
                    psi = PureState(shape, amps)
                members.append((float(p), psi))
            ensemble = make_ensemble(shape, members)
            if not normalize and ensemble.normalized:
                raise StateFileError("weights do not sum to 1 with normalize=false")
            return LoadedState(shape, density_from_ensemble(ensemble), ensemble)
        entries = pairs_to_complex(doc["matrix"], "matrix")
        if entries.size != shape.dim ** 2:
            raise StateFileError(
                f"matrix has {entries.size} entries, expected {shape.dim ** 2}")
        matrix = entries.reshape(shape.dim, shape.dim)
        if normalize:
            trace = np.trace(matrix).real
            if abs(trace) < 1e-14:
                raise StateFileError("matrix trace is zero")
            matrix = matrix / trace
        density = density_matrix_from_array(matrix, shape)
        return LoadedState(shape, density, eigen_ensemble(density, tol))
    except (ShapeMismatch, NotHermitian, ZeroVector, WeightSumInvalid) as exc:
        raise StateFileError(str(exc)) from exc
