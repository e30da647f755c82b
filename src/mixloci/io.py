"""State-file ingestion and report serialization.

State files are UTF-8 JSON with "m", "n" and exactly one of "ensemble" or
"matrix"; complex numbers are always [re, im] pairs, never strings.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MixLociError
from .numeric import _MAX_MAGNITUDE
from .states import (BipartiteShape, DensityMatrix, Ensemble, PureState,
                     density_from_ensemble, density_matrix_from_array, make_ensemble,
                     make_pure)

__all__ = ["StateFileError", "LoadedState", "load_state", "complex_to_pairs", "pairs_to_complex"]


class StateFileError(MixLociError):
    pass


@dataclass(frozen=True)
class LoadedState:
    """A state file's density matrix, the ensemble it lists (None for a
    matrix-form file) and the SHA-256 hex digest of the bytes parsed; a
    command's pencil is loci.spectral_pencil(density)."""

    density: DensityMatrix
    ensemble: Ensemble | None
    sha256: str


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
    """SHA-256 hex digest of a file; no command calls it, perfbench/tracing.py wraps it."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_state(path) -> LoadedState:
    """Parse and validate a state file, read once, applying no rank cut.

    Every malformed document raises StateFileError.  The collector pauses
    meanwhile: the parsed lists hold no cycles, and sweeps only age them."""
    if gc.isenabled():
        gc.disable()
        try:
            return _load_state(path)
        finally:
            gc.enable()
    return _load_state(path)


def _load_state(path) -> LoadedState:
    try:
        data = Path(path).read_bytes()
        # newlines translated as text mode does, so a JSON error names that text's line
        doc = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
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
            return LoadedState(density_from_ensemble(ensemble), ensemble, digest)
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
            if not np.abs(matrix).max() <= _MAX_MAGNITUDE:  # a tiny trace scales entries up
                raise StateFileError(
                    f"matrix entries exceed {_MAX_MAGNITUDE:g} once divided by the trace")
        return LoadedState(density_matrix_from_array(matrix, shape), None, digest)
    except StateFileError:
        raise
    except MixLociError as exc:  # a check of the states layer
        raise StateFileError(str(exc)) from exc
