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

from .errors import MixLociError, NotHermitian, ShapeMismatch
from .numeric import ToleranceConfig
from .states import (BipartiteShape, DensityMatrix, Ensemble, PureState,
                     density_from_ensemble, density_matrix_from_array, eigen_ensemble,
                     make_ensemble, make_pure)

__all__ = ["StateFileError", "LoadedState", "load_state", "complex_to_pairs",
           "pairs_to_complex", "file_sha256"]


class StateFileError(MixLociError):
    pass


@dataclass(frozen=True)
class LoadedState:
    shape: BipartiteShape
    density: DensityMatrix
    ensemble: Ensemble
    source: str  # "ensemble" | "matrix"


def pairs_to_complex(pairs, what: str) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise StateFileError(f"{what}: expected an array of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def complex_to_pairs(values) -> list[list[float]]:
    arr = np.asarray(values, dtype=complex).ravel()
    return [[float(c.real), float(c.imag)] for c in arr]


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_state(path, tol: ToleranceConfig = ToleranceConfig()) -> LoadedState:
    """Parse and validate a state file, producing both matrix and ensemble views."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError("state file root must be a JSON object")
    try:
        m, n = int(doc["m"]), int(doc["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StateFileError("state file needs integer members 'm' and 'n'") from exc
    shape = BipartiteShape(m, n)
    normalize = bool(doc.get("normalize", True))
    has_ensemble = "ensemble" in doc
    has_matrix = "matrix" in doc
    if has_ensemble == has_matrix:
        raise StateFileError("state file needs exactly one of 'ensemble' or 'matrix'")
    try:
        if has_ensemble:
            members = []
            for entry in doc["ensemble"]:
                p = float(entry["p"])
                if p <= 0:
                    raise StateFileError("ensemble weights must be positive")
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
                members.append((p, psi))
            ensemble = make_ensemble(shape, members)
            if not normalize and ensemble.normalized:
                raise StateFileError("weights do not sum to 1 with normalize=false")
            return LoadedState(shape, density_from_ensemble(ensemble), ensemble, "ensemble")
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
        return LoadedState(shape, density, eigen_ensemble(density, tol), "matrix")
    except (ShapeMismatch, NotHermitian) as exc:
        raise StateFileError(str(exc)) from exc
