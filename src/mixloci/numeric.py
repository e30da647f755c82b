"""Dense complex linear algebra with a single shared tolerance policy.

All rank decisions in the package go through :class:`ToleranceConfig` so that
locus membership, null spaces and rank caps stay mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, ParameterOutOfRange, ShapeMismatch

__all__ = ["ToleranceConfig", "EigResult", "as_matrix", "hermitian_eig", "numerical_rank",
           "null_space"]

_HERM_REL = 1e-10
# largest magnitude of a number in a state file or of a part of a pencil's
# entry: its square, summed over every entry of a state, stays finite
_MAX_MAGNITUDE = 1e150


@dataclass(frozen=True)
class ToleranceConfig:
    """Rank threshold policy: max(rank_rel_tol * sigma_max * max(rows, cols), abs_floor)."""

    rank_rel_tol: float = 1e-8
    abs_floor: float = 1e-12

    def __post_init__(self):
        for name in ("rank_rel_tol", "abs_floor"):
            value = getattr(self, name)
            if not 0.0 <= value < float("inf"):
                raise ParameterOutOfRange(f"{name} must be finite and nonnegative, got {value!r}")

    def threshold(self, matrix: np.ndarray) -> float:
        matrix = as_matrix(matrix)
        sigma_max = np.linalg.norm(matrix, 2) if matrix.size else 0.0
        return self.threshold_from_sigma(sigma_max, *matrix.shape)

    def threshold_from_sigma(self, sigma_max, rows: int, cols: int):
        """The threshold for a largest singular value, or elementwise for an array of them."""
        with np.errstate(over="ignore"):  # a cut that overflows is inf, which support refuses
            return np.maximum(self.rank_rel_tol * sigma_max * max(rows, cols), self.abs_floor)

    def rank(self, s: np.ndarray, rows: int, cols: int) -> int:
        """Number of the singular values s (nonincreasing) of a rows x cols
        matrix that lie strictly above the threshold."""
        return int(np.sum(s > self.threshold_from_sigma(s[0] if s.size else 0.0, rows, cols)))


@dataclass(frozen=True)
class EigResult:
    """Eigenvalues sorted nonincreasing; eigenvectors as unitary columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(entries) -> np.ndarray:
    """Coerce input to a finite 2-D complex array."""
    matrix = np.asarray(entries, dtype=complex)
    if matrix.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={matrix.ndim}")
    if not np.isfinite(matrix).all():  # a complex entry is finite iff both its parts are
        raise ParameterOutOfRange("matrix entries must be finite")
    return matrix


def hermitian_eig(H, what: str = "matrix") -> EigResult:
    """Eigendecomposition of the Hermitian part of H, eigenvalues nonincreasing.

    H must be Hermitian within 1e-10 (1 + ||H||_F); `what` names it in the error.
    """
    return _hermitian_eig(as_matrix(H), what)[1]


def _hermitian_eig(H: np.ndarray, what: str) -> tuple[np.ndarray, EigResult]:
    """hermitian_eig of a matrix as_matrix returned, and the Hermitian part
    (H + H^dagger) / 2 that it decomposed."""
    if H.shape[0] != H.shape[1]:
        raise ShapeMismatch(f"{what} is {H.shape[0]}x{H.shape[1]}")
    H_dagger = H.conj().T
    if np.linalg.norm(H - H_dagger) > _HERM_REL * (1.0 + np.linalg.norm(H)):
        raise NotHermitian(f"{what} is not Hermitian")
    part = (H + H_dagger) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(part)
    order = np.argsort(eigenvalues)[::-1]
    return part, EigResult(eigenvalues[order], eigenvectors[:, order])


def singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values of a 2-D array the package built or checked, nonincreasing."""
    return np.linalg.svd(M, compute_uv=False)


def numerical_rank(M, tol: ToleranceConfig = ToleranceConfig()) -> int:
    """Number of singular values strictly above the shared rank threshold."""
    M = as_matrix(M)
    return tol.rank(singular_values(M), *M.shape)


def null_space(M, tol: ToleranceConfig = ToleranceConfig()) -> np.ndarray:
    """Orthonormal basis of the right null space, as columns (possibly 0 columns).

    One SVD gives the rank and the basis.  The left vectors are not used, so a
    tall M gets the thin SVD, which still holds every right vector.
    """
    M = as_matrix(M)
    _, s, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    return Vh[tol.rank(s, *M.shape):].conj().T
