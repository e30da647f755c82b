"""Bipartite state model: pure states, ensembles, density matrices, mixing.

Basis order is fixed package-wide: |11>, ..., |1n>, ..., |m1>, ..., |mn>,
i.e. amplitude of |ij> lives at flat index (i-1)*n + (j-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .errors import RankOutOfRange, ShapeMismatch, WeightSumInvalid, ZeroVector
from .numeric import EigResult, ToleranceConfig, as_matrix, hermitian_eig, numerical_rank, svd

__all__ = ["BipartiteShape", "PureState", "Ensemble", "DensityMatrix",
           "SchmidtDecomposition", "make_pure", "make_ensemble", "schmidt", "schmidt_rank",
           "density_from_ensemble", "density_matrix_from_array", "eigen_ensemble", "rank_cut",
           "support", "mix", "partial_trace", "random_pure", "random_density"]

Side = Literal["A", "B"]

_TRACE_TOL = 1e-10
_PSD_TOL = 1e-10
_MAX_DIM = 1024  # largest m*n: a state is a dim x dim complex matrix


@dataclass(frozen=True)
class BipartiteShape:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ShapeMismatch(f"invalid shape ({self.m}, {self.n})")
        if self.m * self.n > _MAX_DIM:
            raise ShapeMismatch(f"shape ({self.m}, {self.n}) has m*n above {_MAX_DIM}")

    @property
    def dim(self) -> int:
        return self.m * self.n


@dataclass(frozen=True)
class PureState:
    shape: BipartiteShape
    amplitudes: np.ndarray

    def coefficient_matrix(self) -> np.ndarray:
        """The m x n matrix a_ij with |psi> = sum a_ij |ij>."""
        return self.amplitudes.reshape(self.shape.m, self.shape.n)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class Ensemble:
    shape: BipartiteShape
    members: tuple[tuple[float, PureState], ...]
    normalized: bool = False

    @property
    def weights(self) -> np.ndarray:
        return np.array([p for p, _ in self.members])

    def amplitude_tensor(self) -> np.ndarray:
        """a[i, j, l]: amplitudes of member l in the fixed basis order."""
        m, n = self.shape.m, self.shape.n
        out = np.empty((m, n, len(self.members)), dtype=complex)
        for l, (_, psi) in enumerate(self.members):
            out[:, :, l] = psi.coefficient_matrix()
        return out


@dataclass(frozen=True)
class DensityMatrix:
    """A validated state; build it with density_matrix_from_array, which also
    stores its spectrum (read-only)."""

    shape: BipartiteShape
    matrix: np.ndarray
    spectrum: EigResult = field(repr=False, compare=False)

    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues


@dataclass(frozen=True)
class SchmidtDecomposition:
    coefficients: np.ndarray
    rank: int
    left_basis: np.ndarray
    right_basis: np.ndarray


def make_pure(raw_amplitudes, shape: BipartiteShape) -> PureState:
    """Normalize a raw amplitude vector into a PureState."""
    amps = np.asarray(raw_amplitudes, dtype=complex).ravel()
    if amps.size != shape.dim:
        raise ShapeMismatch(f"expected {shape.dim} amplitudes, got {amps.size}")
    norm = np.linalg.norm(amps)
    if norm < 1e-14:
        raise ZeroVector("amplitude vector is (numerically) zero")
    return PureState(shape, amps / norm)


def _positive_weights(weights) -> np.ndarray:
    """weights as a nonempty float array of positive numbers with a finite sum,
    so each is finite."""
    weights = np.asarray(weights, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing sum is rejected, not warned about
        total = weights.sum()
    if weights.size == 0 or np.any(weights <= 0) or not np.isfinite(total):
        raise WeightSumInvalid("weights must be positive, with a finite sum")
    return weights


def make_ensemble(shape: BipartiteShape, members: Sequence[tuple[float, PureState]]) -> Ensemble:
    """Build an ensemble, rescaling weights to unit sum when needed."""
    weights = _positive_weights([p for p, _ in members])
    for _, psi in members:
        if psi.shape != shape:
            raise ShapeMismatch("ensemble member shape mismatch")
    total = weights.sum()
    rescaled = abs(total - 1.0) > _TRACE_TOL
    if rescaled:
        weights = weights / total
    return Ensemble(shape, tuple((float(p), psi) for p, (_, psi) in zip(weights, members)),
                    normalized=rescaled)


def schmidt(psi: PureState, tol: ToleranceConfig = ToleranceConfig()) -> SchmidtDecomposition:
    """Schmidt decomposition: singular values of the m x n coefficient matrix."""
    res = svd(psi.coefficient_matrix())
    d = tol.rank(res.singular_values, psi.shape.m, psi.shape.n)
    return SchmidtDecomposition(res.singular_values[:d], d,
                                res.left_vectors[:, :d], res.right_vectors[:, :d])


def schmidt_rank(psi: PureState, tol: ToleranceConfig = ToleranceConfig()) -> int:
    return numerical_rank(psi.coefficient_matrix(), tol)


def density_matrix_from_array(matrix, shape: BipartiteShape) -> DensityMatrix:
    """Validate Hermiticity, unit trace and PSD (up to -1e-10 drift); the
    stored matrix is the Hermitian part, with its spectrum."""
    matrix = as_matrix(matrix)
    if matrix.shape != (shape.dim, shape.dim):
        raise ShapeMismatch(f"expected {shape.dim}x{shape.dim} matrix, got {matrix.shape}")
    spectrum = hermitian_eig(matrix, "density matrix")
    matrix = (matrix + matrix.conj().T) / 2.0
    if abs(np.trace(matrix).real - 1.0) > _TRACE_TOL:
        raise ShapeMismatch("density matrix trace differs from 1")
    if spectrum.eigenvalues[-1] < -_PSD_TOL:
        raise ShapeMismatch(
            f"density matrix has negative eigenvalue {spectrum.eigenvalues[-1]:.3e}")
    for array in (matrix, spectrum.eigenvalues, spectrum.eigenvectors):
        array.flags.writeable = False
    return DensityMatrix(shape, matrix, spectrum)


def density_from_ensemble(e: Ensemble) -> DensityMatrix:
    """rho = sum_l p_l |v_l><v_l|."""
    matrix = np.zeros((e.shape.dim, e.shape.dim), dtype=complex)
    for p, psi in e.members:
        matrix += p * psi.projector()
    return density_matrix_from_array(matrix, e.shape)


def rank_cut(rho: DensityMatrix, tol: ToleranceConfig = ToleranceConfig()) -> float:
    """The rank threshold of rho's stored spectrum: eigenvalues above it are kept."""
    eigenvalues, dim = rho.eigenvalues(), rho.shape.dim
    norm = max(abs(eigenvalues[0]), abs(eigenvalues[-1]))  # spectral norm of rho
    return tol.threshold_from_sigma(norm, dim, dim)


def support(rho: DensityMatrix, tol: ToleranceConfig = ToleranceConfig()) -> EigResult:
    """rho's stored eigenpairs above the rank threshold: eigen_ensemble's
    members, and a basis of rho's range."""
    eig = rho.spectrum
    kept = eig.eigenvalues > rank_cut(rho, tol)
    return EigResult(eig.eigenvalues[kept], eig.eigenvectors[:, kept])


def eigen_ensemble(rho: DensityMatrix, tol: ToleranceConfig = ToleranceConfig()) -> Ensemble:
    """Canonical spectral ensemble: eigenvectors weighted by eigenvalues above threshold."""
    kept = support(rho, tol)
    return make_ensemble(rho.shape, [(float(lam), PureState(rho.shape, vec.copy()))
                                     for lam, vec in zip(kept.eigenvalues, kept.eigenvectors.T)])


def mix(weights: Sequence[float], states: Sequence[DensityMatrix]) -> DensityMatrix:
    """Convex combination sum_i w_i rho_i."""
    weights = _positive_weights(weights)
    if len(weights) != len(states):
        raise WeightSumInvalid("weights must match the state count")
    if abs(weights.sum() - 1.0) > _TRACE_TOL:
        raise WeightSumInvalid(f"weights sum to {float(weights.sum())!r}, expected 1")
    shape = states[0].shape
    for s in states:
        if s.shape != shape:
            raise ShapeMismatch("mixed states must share one bipartite shape")
    matrix = sum(w * s.matrix for w, s in zip(weights, states))
    return density_matrix_from_array(matrix, shape)


def partial_trace(rho: DensityMatrix, side: Side) -> np.ndarray:
    """Trace out one side: side='A' gives tr_A(rho) (n x n), side='B' gives m x m."""
    m, n = rho.shape.m, rho.shape.n
    tensor = rho.matrix.reshape(m, n, m, n)
    if side == "A":
        return np.einsum("ijil->jl", tensor)
    if side == "B":
        return np.einsum("ijkj->ik", tensor)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def random_pure(shape: BipartiteShape, seed) -> PureState:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(shape.dim) + 1j * rng.standard_normal(shape.dim)
    return make_pure(amps, shape)


def random_density(shape: BipartiteShape, rank: int, seed) -> DensityMatrix:
    """Random rank-r state: orthonormalized Gaussian vectors, flat simplex weights."""
    if not 1 <= rank <= shape.dim:
        raise RankOutOfRange(f"rank {rank} outside [1, {shape.dim}]")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        G = rng.standard_normal((shape.dim, rank)) + 1j * rng.standard_normal((shape.dim, rank))
        if np.linalg.matrix_rank(G) < rank:
            continue
        Q, _ = np.linalg.qr(G)
        weights = rng.dirichlet(np.ones(rank))
        if weights.min() < 1e-6:
            continue
        members = [(float(w), PureState(shape, Q[:, l].copy())) for l, w in enumerate(weights)]
        return density_from_ensemble(make_ensemble(shape, members))
    raise RuntimeError("failed to draw a nondegenerate rank-r state")
