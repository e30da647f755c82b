"""Rank-degeneracy loci of bipartite states via matrix pencils.

A pencil is the linear family r -> sum_i r_i A_i built from the blocks of an
ensemble's amplitude matrix.  The locus with rank bound k is handled exactly
for k = 0 (a linear condition) and by multistart minimization of the
(k+1)-th singular value for k >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Literal

import numpy as np

from .errors import DimensionMismatch, InvalidK, NotOnLocus, ParameterOutOfRange
from .numeric import ToleranceConfig, null_space, numerical_rank
from .states import DensityMatrix, Ensemble, Side

__all__ = ["Pencil", "ProjectivePoint", "LinearLocus", "LocusSample", "SearchConfig",
           "LocusVerdict", "pencil_from_ensemble", "hermitian_form", "rank_at", "in_locus",
           "locus_zero", "sample_locus", "local_dimension", "is_locus_empty"]

_POINT_TOL = 1e-9

# The descent's stopping rule, per start (see _descend), and the search's output cap.
_MAX_ITER = 500  # accepted steps
_MAX_HALVINGS = 60  # step halvings per accepted step
_STEP_TOL = 1e-12  # smallest move of a trial point
_ARMIJO = 1e-4  # sufficient-decrease constant
_F_TOL = 1e-14  # sigma_{k+1} below this ends the descent
_GNORM_TOL = 1e-16  # a projected gradient norm below this ends the descent
_STALL_WINDOW = 10  # accepted steps over which a stall is judged
_STALL_RTOL = 1e-6  # f falling by less than this times f over the window is a stall
_MAX_CLUSTERS = 64  # distinct points a search reports
_REASONS = ("hit", "stalled", "max_iter", "step_tol")  # why a start stopped


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
        if self.starts < 1:
            raise ParameterOutOfRange(f"starts must be >= 1, got {self.starts}")
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


def _sigma_and_grad(p: Pencil, R: np.ndarray, k: int, blocks_conj: np.ndarray):
    """For each row r of R: sigma_{k+1}(M(r)), sigma_max(M(r)) and the complex
    gradient of sigma_{k+1} over the coordinates.  blocks_conj is p.blocks.conj()."""
    U, s, Vh = np.linalg.svd(p.evaluate(R), full_matrices=False)
    # d sigma = Re(u^dag (sum dr_i A_i) v) with u = U[:, k] and v = Vh[k]^dag; the
    # steepest direction is conj(u^dag A_i v) = sum_ab u_a conj(A_i)_ab Vh[k]_b
    inner = _row_sum(blocks_conj * Vh[:, k, None, None, :])
    return s[:, k], s[:, 0], _row_sum(inner * U[:, None, :, k])


def _descend(p: Pencil, k: int, R0: np.ndarray, config: SearchConfig,
             tol: ToleranceConfig):
    """Projected gradient descent with backtracking on the unit sphere, all
    starts (rows of R0) in lockstep.

    Per start the rule is that of a plain loop, with the constants above: at
    most _MAX_ITER accepted steps; stop when f < _F_TOL, the projected
    gradient norm < _GNORM_TOL, or f has fallen by less than _STALL_RTOL f
    over the last _STALL_WINDOW accepted steps; from step alpha, halve up to
    _MAX_HALVINGS times until the Armijo condition (_ARMIJO) holds, and stop
    if none does or the trial moves less than _STEP_TOL; after an accepted
    step, alpha = min(2 step, 1).  Each round proposes one trial per live
    start and makes one batched pencil evaluation, SVD and gradient for them.
    A start leaves the batch when it stops.  Vectors are batched numpy rows
    whose arithmetic never mixes rows; the per-start scalars are Python
    floats, which cost far less than numpy calls at width 1.  So a start's
    trajectory does not depend on the batch it shares.

    Returns arrays (r, f, hit, converged, reason) over the starts.  reason is
    "hit" where a start ends on the locus, else what stopped it: "stalled" (a
    stall, or f or the gradient below its floor), "step_tol" (no acceptable
    step) or "max_iter"; all but the last count as converged.  With
    config.stop_at_first they end at the lowest-index start that hits (if
    none does, at the last start), and the starts after it are dropped once
    every start before it has stopped.
    """
    rows, cols = p.block_shape
    blocks_conj = p.blocks.conj()
    R0 = np.ascontiguousarray(R0, dtype=complex)
    S = end = len(R0)
    r = R0 / _row_norm(R0)[:, None]
    f, smax, g = _sigma_and_grad(p, r, k, blocks_conj)
    f, smax = f.tolist(), smax.tolist()
    history = [[x] for x in f]  # per start: f at the start and after each accepted step
    r_out = np.empty_like(r)
    gt = np.zeros_like(r)
    gnorm, step, alpha = [0.0] * S, [0.0] * S, [1.0] * S
    outer, halvings = [0] * S, [0] * S
    hit, converged = [False] * S, [False] * S
    reason = [""] * S  # empty while the start runs
    ids = list(range(S))  # live starts; row j of r, g, gt belongs to start ids[j]
    fresh = [True] * S  # per live row: a step was just accepted (or none yet)
    while ids:
        # None: the start goes on; else why it stops
        stop = [None] * len(ids)
        if any(fresh):
            began = g - _row_sum(r.conj() * g)[:, None] * r
            gt = began if all(fresh) else np.where(np.array(fresh)[:, None], began, gt)
            norms = _row_norm(gt).tolist()
            for j, i in enumerate(ids):
                if fresh[j]:
                    gnorm[i], step[i], halvings[i] = norms[j], alpha[i], 0
                    if outer[i] >= _MAX_ITER:
                        stop[j] = "max_iter"
                    elif (f[i] < _F_TOL or gnorm[i] < _GNORM_TOL or (
                            outer[i] >= _STALL_WINDOW
                            and history[i][-_STALL_WINDOW - 1] - f[i] < _STALL_RTOL * f[i])):
                        stop[j] = "stalled"
        trial = r - np.array([step[i] for i in ids])[:, None] * gt
        trial /= _row_norm(trial)[:, None]
        moved = _row_norm(trial - r).tolist()
        for j, i in enumerate(ids):
            if stop[j] is None and (halvings[i] >= _MAX_HALVINGS or moved[j] < _STEP_TOL):
                stop[j] = "step_tol"
        if any(x is not None for x in stop):
            for j, i in enumerate(ids):
                if stop[j] is not None:
                    r_out[i] = r[j]
                    converged[i] = stop[j] != "max_iter"
                    hit[i] = f[i] <= tol.threshold_from_sigma(smax[i], rows, cols)
                    reason[i] = "hit" if hit[i] else stop[j]
            if config.stop_at_first:
                first = next((i for i in range(S) if hit[i] or not reason[i]), S)
                if first < S and hit[first]:
                    end = first + 1
                    break
            keep = [j for j, x in enumerate(stop) if x is None]
            ids = [ids[j] for j in keep]
            r, g, gt, trial = r[keep], g[keep], gt[keep], trial[keep]
            if not ids:
                break
        ft, smax_t, g_t = _sigma_and_grad(p, trial, k, blocks_conj)
        ft, smax_t = ft.tolist(), smax_t.tolist()
        fresh = []
        for j, i in enumerate(ids):
            accept = ft[j] < f[i] - _ARMIJO * step[i] * gnorm[i] * gnorm[i]
            if accept:
                f[i], smax[i] = ft[j], smax_t[j]
                history[i].append(ft[j])
                alpha[i] = min(step[i] * 2.0, 1.0)
                outer[i] += 1
            else:
                step[i] /= 2.0
                halvings[i] += 1
            fresh.append(accept)
        if all(fresh):
            r, g = trial, g_t
        elif any(fresh):
            taken = np.array(fresh)[:, None]
            r, g = np.where(taken, trial, r), np.where(taken, g_t, g)
    return (r_out[:end], np.array(f[:end]), np.array(hit[:end], dtype=bool),
            np.array(converged[:end], dtype=bool), np.array(reason[:end]))


def sample_locus(p: Pencil, k: int, config: SearchConfig = SearchConfig(),
                 tol: ToleranceConfig = ToleranceConfig()) -> LocusSample:
    """Multistart search for points with sigma_{k+1} below the rank threshold.

    An empty point list is a failure to find, not a proof of emptiness.
    """
    if k < 0:
        raise InvalidK("rank bound k must be nonnegative")
    if k >= p.max_rank_bound() or np.linalg.norm(p.blocks) < tol.abs_floor:
        # every point is on the locus: k reaches the block size, or the pencil is zero
        stats = {"starts": 0, "converged": 0, **dict.fromkeys(_REASONS, 0)}
        return LocusSample((), (), stats, trivial=True, min_residual_seen=0.0)
    # per start: d real parts, then d imaginary parts, drawn start after start
    draws = np.random.default_rng(config.seed).standard_normal((config.starts, 2, p.ambient_dim))
    R0 = draws[:, 0] + 1j * draws[:, 1]
    if config.stop_at_first:
        # start 0 alone first: where the locus has points it usually hits, and
        # the other starts never run
        run = _descend(p, k, R0[:1], config, tol)
        if not run[2].any():
            rest = _descend(p, k, R0[1:], config, tol)
            run = tuple(np.concatenate(pair) for pair in zip(run, rest))
    else:
        run = _descend(p, k, R0, config, tol)
    r, f, hit, converged, reason = run
    found: list[tuple[ProjectivePoint, float]] = []
    for coords, residual in zip(r[hit], f[hit]):
        candidate = ProjectivePoint.of(coords)
        if not any(candidate.same_point(q) for q, _ in found):
            found.append((candidate, residual))
    found.sort(key=lambda item: item[0].sort_key())
    found = found[:_MAX_CLUSTERS]
    points = tuple(q for q, _ in found)
    residuals = tuple(f for _, f in found)
    stats = {"starts": config.starts, "converged": int(converged.sum())}
    ended = reason.tolist()
    stats.update((x, ended.count(x)) for x in _REASONS)
    return LocusSample(points, residuals, stats, trivial=False,
                       min_residual_seen=f.min() if f.size else float("inf"))


def _minor_jacobian(p: Pencil, r: np.ndarray, k: int) -> np.ndarray:
    """Complex Jacobian of all (k+1)x(k+1) minors of the pencil at r."""
    rows, cols = p.block_shape
    M = p.evaluate(r)
    size = k + 1
    row_sets = list(combinations(range(rows), size))
    col_sets = list(combinations(range(cols), size))
    jac = np.zeros((len(row_sets) * len(col_sets), p.ambient_dim), dtype=complex)
    idx = 0
    for R in row_sets:
        for C in col_sets:
            S = M[np.ix_(R, C)]
            cof = np.zeros((size, size), dtype=complex)
            for a in range(size):
                for b in range(size):
                    sub = np.delete(np.delete(S, a, axis=0), b, axis=1)
                    det = np.linalg.det(sub) if size > 1 else 1.0
                    cof[a, b] = (-1) ** (a + b) * det
            # Jacobi's formula: d det(S)/dr_i = sum_ab cofactor_ab * dS_ab/dr_i
            sub_blocks = p.blocks[:, R, :][:, :, C]
            jac[idx] = np.einsum("ab,iab->i", cof, sub_blocks)
            idx += 1
    return jac


def local_dimension(p: Pencil, k: int, point: ProjectivePoint,
                    tol: ToleranceConfig = ToleranceConfig()) -> int:
    """Estimated projective dimension of the rank-k locus at a member point.

    The minors are holomorphic in the coordinates, so the real-parameterized
    Jacobian rank is twice the complex one; quotienting the scaling direction
    leaves ambient-1 minus the complex Jacobian rank.
    """
    if not in_locus(p, k, point, tol):
        raise NotOnLocus("point is not on the requested locus")
    jac = _minor_jacobian(p, point.coords, k)
    return p.ambient_dim - 1 - numerical_rank(jac, tol)


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
