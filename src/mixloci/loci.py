"""Rank-degeneracy loci of bipartite states via matrix pencils.

A pencil is the linear family r -> sum_i r_i A_i built from the blocks of an
ensemble's amplitude matrix.  The locus with rank bound k is handled exactly
for k = 0 (a linear condition) and for k >= 1 by a multistart Gauss-Newton
search for points where the (k+1)-th singular value vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import DimensionMismatch, InvalidK, NotOnLocus, ParameterOutOfRange
from .numeric import ToleranceConfig, null_space, numerical_rank
from .states import DensityMatrix, Ensemble, Side

__all__ = ["Pencil", "ProjectivePoint", "LinearLocus", "LocusSample", "SearchConfig",
           "LocusVerdict", "pencil_from_ensemble", "hermitian_form", "rank_at", "in_locus",
           "locus_zero", "sample_locus", "local_dimension", "is_locus_empty"]

_POINT_TOL = 1e-9

# The search's stopping rule, per start (see _descend), and its output cap.
_MAX_ITER = 500  # kernel rounds
_POLISH = 1e-3  # sigma_{k+1} at or below this times the rank threshold ends the start
_RCOND = 1e-12  # relative cut on the singular values of the projected normal map
_STALL_RTOL = 1e-5  # a step predicted to remove less than this share of ||tail||^2 is a stall
_MAX_CLUSTERS = 64  # distinct points a search reports
_MAX_STARTS = 4096  # largest SearchConfig.starts: the starts are drawn at once
_REASONS = ("hit", "stalled", "max_iter")  # why a start stopped


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of CP^{d-1} in canonical form.

    Canonical form: unit Euclidean norm with the largest-modulus coordinate
    rotated to the positive real axis (ties broken by lowest index).
    """

    coords: np.ndarray

    @staticmethod
    def of(raw) -> "ProjectivePoint":
        v = np.asarray(raw, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if norm < 1e-300:
            raise ValueError("projective point cannot be the zero vector")
        v = v / norm
        moduli = np.abs(v)
        pivot = int(np.argmax(moduli > moduli.max() - 1e-14))
        phase = v[pivot] / abs(v[pivot])
        return ProjectivePoint(v * phase.conjugate())

    def same_point(self, other: "ProjectivePoint", tol: float = _POINT_TOL) -> bool:
        return 1.0 - abs(np.vdot(self.coords, other.coords)) <= tol

    def sort_key(self) -> tuple:
        # report order: coordinate moduli first, so points with vanishing
        # leading coordinates come before generic ones; then re/im tie-break
        rounded = np.round(self.coords, 6)
        return (tuple(np.round(np.abs(self.coords), 6)),
                tuple(x for c in rounded for x in (c.real, c.imag)))


@dataclass(frozen=True)
class Pencil:
    """The family r -> sum_i r_i blocks[i]; blocks stacked as (ambient, rows, cols)."""

    blocks: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.blocks.shape[1], self.blocks.shape[2]

    def evaluate(self, coords: np.ndarray) -> np.ndarray:
        """sum_i coords[..., i] blocks[i]: (d,) -> (rows, cols), (S, d) -> (S, rows, cols).

        Summed strictly in coordinate order, not by BLAS, so a row's value does
        not depend on how many rows share the call.
        """
        terms = np.asarray(coords)[..., :, None, None] * self.blocks
        return np.add.accumulate(terms, axis=-3)[..., -1, :, :]

    def max_rank_bound(self) -> int:
        return min(self.block_shape)

    def stacked(self) -> np.ndarray:
        """(rows*cols) x ambient matrix whose column i is vec(blocks[i])."""
        return self.blocks.reshape(self.ambient_dim, -1).T


@dataclass(frozen=True)
class LinearLocus:
    """Exact rank-0 locus {r : sum r_i A_i = 0}, a projective linear subspace."""

    basis: np.ndarray

    @property
    def projective_dimension(self) -> int:
        return self.basis.shape[1] - 1

    def points(self) -> list[ProjectivePoint]:
        return [ProjectivePoint.of(self.basis[:, j]) for j in range(self.basis.shape[1])]

    @property
    def is_empty(self) -> bool:
        return self.projective_dimension < 0


@dataclass(frozen=True)
class SearchConfig:
    starts: int = 64
    seed: int = 0
    stop_at_first: bool = False

    def __post_init__(self):
        if not 1 <= self.starts <= _MAX_STARTS:
            raise ParameterOutOfRange(f"starts must be in [1, {_MAX_STARTS}], got {self.starts}")
        if self.seed < 0:
            raise ParameterOutOfRange(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class LocusSample:
    points: tuple[ProjectivePoint, ...]
    residuals: tuple[float, ...]
    search_stats: dict = field(default_factory=dict)
    trivial: bool = False
    min_residual_seen: float = float("inf")


@dataclass(frozen=True)
class LocusVerdict:
    status: Literal["EMPTY_EXACT", "NONEMPTY_WITNESS", "EMPTY_HEURISTIC"]
    witness: ProjectivePoint | None = None
    min_residual: float | None = None


def pencil_from_ensemble(e: Ensemble, side: Side) -> Pencil:
    """Blocks of the mn x t amplitude matrix A, per side."""
    a = e.amplitude_tensor()
    if side == "A":
        blocks = a  # blocks[w] = a[w, :, :], n x t
    elif side == "B":
        blocks = np.transpose(a, (1, 0, 2))  # blocks[j] = a[:, j, :], m x t
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return Pencil(np.ascontiguousarray(blocks))


def hermitian_form(rho: DensityMatrix, point: ProjectivePoint, side: Side) -> np.ndarray:
    """The form sum_{i,j} r_i r_j^* rho_ij measured against one side."""
    m, n = rho.shape.m, rho.shape.n
    r = point.coords
    tensor = rho.matrix.reshape(m, n, m, n)
    if side == "A":
        if r.size != m:
            raise DimensionMismatch(f"point has {r.size} coordinates, side A needs {m}")
        return np.einsum("i,j,iajb->ab", r, r.conj(), tensor)
    if side == "B":
        if r.size != n:
            raise DimensionMismatch(f"point has {r.size} coordinates, side B needs {n}")
        return np.einsum("j,l,ajbl->ab", r, r.conj(), tensor)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def rank_at(p: Pencil, point: ProjectivePoint, tol: ToleranceConfig = ToleranceConfig()) -> int:
    if point.coords.size != p.ambient_dim:
        raise DimensionMismatch(
            f"point has {point.coords.size} coordinates, pencil ambient is {p.ambient_dim}")
    return numerical_rank(p.evaluate(point.coords), tol)


def in_locus(p: Pencil, k: int, point: ProjectivePoint,
             tol: ToleranceConfig = ToleranceConfig()) -> bool:
    if k < 0:
        raise InvalidK("rank bound k must be nonnegative")
    return rank_at(p, point, tol) <= k


def locus_zero(p: Pencil, tol: ToleranceConfig = ToleranceConfig()) -> LinearLocus:
    """Exact rank-0 locus: null space of the stacked block matrix."""
    return LinearLocus(null_space(p.stacked(), tol))


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly left to right.  An accumulate has no
    pairwise or blocked reduction, so a row's sum does not depend on how many
    rows there are."""
    return np.add.accumulate(x, axis=-1)[..., -1]


def _row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a C-contiguous complex array."""
    parts = x.view(np.float64)
    return np.sqrt(_row_sum(parts * parts))


def _normal_map(p: Pencil, R: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row r of R: the singular values s of M(r) = U S V^dagger and the
    normal map J, column i vec(U0^dagger A_i V0) with U0 = U[:, k:] and
    V0 = V[:, k:]; M is linear, so U0^dagger M(r + dr) V0 = diag(s[k:]) + J dr.
    The SVD is full: a thin V lacks the directions M kills when cols > rows."""
    U, s, Vh = np.linalg.svd(p.evaluate(R), full_matrices=True)
    U0h = U[..., k:].conj().swapaxes(-1, -2)  # (S, rows-k, rows)
    V0t = Vh[..., k:, :].conj()  # (S, cols-k, cols): V0 transposed
    left = _row_sum(U0h[:, None, :, None, :] * p.blocks.swapaxes(-1, -2)[None, :, None])
    J = _row_sum(left[:, :, :, None, :] * V0t[:, None, None])  # (S, d, rows-k, cols-k)
    return s, J.reshape(J.shape[0], J.shape[1], -1).swapaxes(-1, -2)


def _gauss_newton_step(J: np.ndarray, b: np.ndarray,
                       r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, dr = -pinv(J (I - r r^dagger)) b by one stacked SVD: the least
    ||b + J dr|| of least norm, orthogonal to r (the projected J kills r), and
    whether the start stalled: the step's model removes ||c||^2 from ||b||^2,
    c = W^dagger b being the part of b the map reaches, and a stall is ||c||^2 <
    _STALL_RTOL ||b||^2 (a product, not a ratio: b = 0 at exact locus points)."""
    Jr = _row_sum(J * r[:, None, :])
    W, sigma, Vh = np.linalg.svd(J - Jr[:, :, None] * r.conj()[:, None, :], full_matrices=False)
    kept = sigma > _RCOND * sigma[:, :1]
    c = np.where(kept, _row_sum(W.conj().swapaxes(-1, -2) * b[:, None, :]), 0.0)
    stalled = _row_norm(c) ** 2 < _STALL_RTOL * _row_norm(b) ** 2
    dr = -_row_sum(Vh.conj().swapaxes(-1, -2) * (c / np.where(kept, sigma, 1.0))[:, None, :])
    return dr, stalled


def _descend(p: Pencil, k: int, R0: np.ndarray, config: SearchConfig,
             tol: ToleranceConfig):
    """Riemannian Gauss-Newton on the rank-k locus, all starts (rows of R0)
    in lockstep.  A round moves each live start by the step dr of its normal
    map, b = vec(diag(s[k:])), to (r + dr) / |r + dr|.  A start stops when
    sigma_{k+1} <= _POLISH times the rank threshold, after _MAX_ITER rounds,
    or when its step stalls (see _gauss_newton_step).  Sums are row sums and
    SVDs stacked (one LAPACK call per matrix), so no path depends on the batch.

    Returns arrays (r, f, reason, rounds) over the starts: each start's point
    of least f, that f, why it stopped ("hit" exactly when f is within the
    rank threshold, else "stalled" or "max_iter") and its rounds.
    With config.stop_at_first they end at the lowest-index start that hits
    (else at the last start); the starts after it are dropped once every
    start before it has stopped.
    """
    rows, cols = p.block_shape
    diag = np.arange(min(rows, cols) - k)
    R0 = np.ascontiguousarray(R0, dtype=complex)
    S = end = len(R0)
    r = R0 / _row_norm(R0)[:, None]
    r_best = np.empty_like(r)
    f_best, smax_best = [np.inf] * S, [0.0] * S
    reason, rounds = [""] * S, [0] * S  # set when the start stops; "" while it runs
    ids = list(range(S))  # live starts; row j of r belongs to start ids[j]
    n = 0  # rounds run
    while ids:
        n += 1
        s, J = _normal_map(p, r, k)
        b = np.zeros((len(ids), rows - k, cols - k), dtype=complex)
        b[:, diag, diag] = s[:, k:]
        dr, stalled = _gauss_newton_step(J, b.reshape(len(ids), -1), r)
        f, smax, stalled = s[:, k].tolist(), s[:, 0].tolist(), stalled.tolist()
        stop = [None] * len(ids)  # None: the start goes on; else why it stops
        for j, i in enumerate(ids):
            if f[j] < f_best[i]:
                f_best[i], smax_best[i] = f[j], smax[j]
                r_best[i] = r[j]
            if f[j] <= _POLISH * tol.threshold_from_sigma(smax[j], rows, cols):
                stop[j] = "hit"
            elif n >= _MAX_ITER:
                stop[j] = "max_iter"
            elif stalled[j]:
                stop[j] = "stalled"
        if any(stop):
            for j, i in enumerate(ids):
                if stop[j]:
                    hit = f_best[i] <= tol.threshold_from_sigma(smax_best[i], rows, cols)
                    reason[i], rounds[i] = "hit" if hit else stop[j], n
            if config.stop_at_first:
                first = next((i for i in range(S) if reason[i] in ("hit", "")), S)
                if first < S and reason[first] == "hit":
                    end = first + 1
                    break
            kept = [j for j, x in enumerate(stop) if x is None]
            ids = [ids[j] for j in kept]
            r, dr = r[kept], dr[kept]
        r = r + dr
        r /= _row_norm(r)[:, None]
    return r_best[:end], np.array(f_best[:end]), np.array(reason[:end]), np.array(rounds[:end])


def sample_locus(p: Pencil, k: int, config: SearchConfig = SearchConfig(),
                 tol: ToleranceConfig = ToleranceConfig()) -> LocusSample:
    """Multistart search for points with sigma_{k+1} below the rank threshold.

    An empty point list is a failure to find, not a proof of emptiness.
    """
    if k < 0:
        raise InvalidK("rank bound k must be nonnegative")
    if k >= p.max_rank_bound() or np.linalg.norm(p.blocks) < tol.abs_floor:
        # every point is on the locus: k reaches the block size, or the pencil is zero
        stats = {"starts": 0, "converged": 0, "rounds": 0, **dict.fromkeys(_REASONS, 0)}
        return LocusSample((), (), stats, trivial=True, min_residual_seen=0.0)
    # per start: d real parts, then d imaginary parts, drawn start after start
    draws = np.random.default_rng(config.seed).standard_normal((config.starts, 2, p.ambient_dim))
    R0 = draws[:, 0] + 1j * draws[:, 1]
    r, f, reason, rounds = _descend(p, k, R0, config, tol)
    hit = reason == "hit"
    found: list[tuple[ProjectivePoint, float]] = []
    for coords, residual in zip(r[hit], f[hit]):
        candidate = ProjectivePoint.of(coords)
        if not any(candidate.same_point(q) for q, _ in found):
            found.append((candidate, residual))
    found.sort(key=lambda item: item[0].sort_key())
    found = found[:_MAX_CLUSTERS]
    points = tuple(q for q, _ in found)
    residuals = tuple(f for _, f in found)
    # the batch runs as long as its longest-running start
    stats = {"starts": config.starts, "converged": int((reason != "max_iter").sum()),
             "rounds": int(rounds.max())}
    ended = reason.tolist()
    stats.update((x, ended.count(x)) for x in _REASONS)
    return LocusSample(points, residuals, stats, trivial=False,
                       min_residual_seen=f.min() if f.size else float("inf"))


def local_dimension(p: Pencil, k: int, point: ProjectivePoint,
                    tol: ToleranceConfig = ToleranceConfig()) -> int:
    """Estimated projective dimension of the rank-k locus at a member point:
    ambient - 1 - rank(J), J the normal map, whose null space (holding r) is
    the tangent space where M has rank k.  Below rank k every (k+1)-minor
    vanishes to second order, so the estimate is the bound ambient - 1."""
    if not in_locus(p, k, point, tol):
        raise NotOnLocus("point is not on the requested locus")
    s, J = _normal_map(p, point.coords[None], k)
    if tol.rank(s[0], *p.block_shape) < k:
        return p.ambient_dim - 1
    return p.ambient_dim - 1 - numerical_rank(J[0], tol)


def is_locus_empty(p: Pencil, k: int, config: SearchConfig = SearchConfig(),
                   tol: ToleranceConfig = ToleranceConfig()) -> LocusVerdict:
    """Exact emptiness for k = 0; sampled one-sided evidence for k >= 1."""
    if k < 0:
        raise InvalidK("rank bound k must be nonnegative")
    if k == 0:
        locus = locus_zero(p, tol)
        if locus.is_empty:
            return LocusVerdict("EMPTY_EXACT")
        return LocusVerdict("NONEMPTY_WITNESS", witness=locus.points()[0])
    sample = sample_locus(p, k, config, tol)
    if sample.trivial:
        witness = ProjectivePoint.of(np.eye(p.ambient_dim)[0])
        return LocusVerdict("NONEMPTY_WITNESS", witness=witness, min_residual=0.0)
    if sample.points:
        return LocusVerdict("NONEMPTY_WITNESS", witness=sample.points[0],
                            min_residual=sample.residuals[0])
    return LocusVerdict("EMPTY_HEURISTIC", min_residual=sample.min_residual_seen)
