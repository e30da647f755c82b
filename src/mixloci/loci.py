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

from .errors import InvalidK, ParameterOutOfRange, ShapeMismatch, ZeroVector
from .numeric import ToleranceConfig, null_space, numerical_rank
from .states import DensityMatrix, Ensemble, Side, _check_side, support

__all__ = ["Pencil", "ProjectivePoint", "LinearLocus", "LocusSample", "SearchConfig",
           "LocusVerdict", "pencil_from_ensemble", "spectral_pencil", "hermitian_form", "rank_at",
           "in_locus", "locus_zero", "sample_locus", "is_locus_empty"]

_POINT_TOL = 1e-9

# The search's stopping rule, per start (see _descend), and its output cap.
_MAX_ITER = 500  # kernel rounds
_POLISH = 1e-3  # sigma_{k+1} at or below this times the rank threshold ends the start
_RCOND = 1e-12  # relative cut on the singular values of the projected normal map
_STALL_RTOL = 1e-5  # a step predicted to remove less than this share of ||tail||^2 is a stall
_MAX_CLUSTERS = 64  # distinct points a search reports
_MAX_STARTS = 4096  # largest SearchConfig.starts: the starts are drawn at once
_BATCH_BYTES = 16 * 2**20  # kernel memory a batch of several searches may take (see _row_bytes)
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
        return ProjectivePoint(_canonical(np.asarray(raw, dtype=complex).reshape(1, -1))[0])

    def same_point(self, other: "ProjectivePoint", tol: float = _POINT_TOL) -> bool:
        return 1.0 - abs(np.vdot(self.coords, other.coords)) <= tol


def _canonical(V: np.ndarray) -> np.ndarray:
    """The canonical form of each row of the complex (points, d) array V.  The
    norm is two BLAS dot products (real parts, imaginary parts) and the phase
    divides by a hypot, as np.linalg.norm and scalar abs take them, so every
    row's form is bit-equal to its own, whatever the rows beside it."""
    re, im = V.real, V.imag
    norm = np.sqrt((re[:, None] @ re[..., None] + im[:, None] @ im[..., None])[:, 0, 0])
    if (norm < 1e-300).any():
        raise ZeroVector("projective point cannot be the zero vector")
    V = V / norm[:, None]
    moduli = np.abs(V)
    pivot = np.argmax(moduli > moduli.max(axis=1, keepdims=True) - 1e-14, axis=1)
    q = V[np.arange(len(V)), pivot]
    return V * (q / np.hypot(q.real, q.imag)).conj()[:, None]


def _running_sum(terms) -> np.ndarray:
    """t_0 + t_1 + ... added left to right into t_0, a fresh array: no pairwise
    or blocked reduction reorders the additions, and no more than one term and
    the sum are held at once."""
    terms = iter(terms)
    total = next(terms)
    for t in terms:
        total += t
        del t  # free each term before the next one is made
    return total


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
        """sum_i coords[..., i] blocks[i]: (d,) -> (rows, cols), (S, d) -> (S, rows, cols),
        blocks[i] being one block or one per row, (S, rows, cols).  A running sum
        in coordinate order, not BLAS, so no row depends on the others."""
        return _running_sum(np.asarray(coords)[..., i, None, None] * self.blocks[i]
                            for i in range(self.ambient_dim))

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
        return [ProjectivePoint(c) for c in _canonical(np.ascontiguousarray(self.basis.T))]

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


def _side_pencil(a: np.ndarray, side: Side) -> Pencil:
    """The pencil of the m x n x t amplitude tensor a on one side: blocks[w] =
    a[w, :, :], n x t, on side A and blocks[j] = a[:, j, :], m x t, on side B."""
    _check_side(side)
    return Pencil(np.ascontiguousarray(a if side == "A" else np.transpose(a, (1, 0, 2))))


def pencil_from_ensemble(e: Ensemble, side: Side) -> Pencil:
    """Blocks of the mn x t amplitude matrix A, per side."""
    return _side_pencil(e.amplitude_tensor(), side)


def spectral_pencil(rho: DensityMatrix, side: Side,
                    tol: ToleranceConfig = ToleranceConfig()) -> Pencil:
    """rho's pencil: that of its spectral ensemble, one column per eigenvector
    above the rank cut.  It depends on rho alone, whatever ensemble listed it."""
    return _side_pencil(support(rho, tol).eigenvectors.reshape(rho.shape.m, rho.shape.n, -1), side)


def hermitian_form(rho: DensityMatrix, point: ProjectivePoint, side: Side) -> np.ndarray:
    """The form sum_{i,j} r_i r_j^* rho_ij measured against one side."""
    _check_side(side)
    m, n = rho.shape.m, rho.shape.n
    r, need = point.coords, (m if side == "A" else n)
    if r.size != need:
        raise ShapeMismatch(f"point has {r.size} coordinates, side {side} needs {need}")
    return np.einsum("i,j,iajb->ab" if side == "A" else "j,l,ajbl->ab",
                     r, r.conj(), rho.matrix.reshape(m, n, m, n))


def _check_blocks(p: Pencil) -> None:
    """Blocks a locus computation can read: (ambient, rows, cols), each at
    least 1, with finite entries.  Once per search: the kernel's per-row
    pencils are built from checked blocks."""
    if p.blocks.ndim != 3 or 0 in p.blocks.shape:
        raise ShapeMismatch(f"pencil blocks must have shape (ambient, rows, cols), each at "
                            f"least 1, got {p.blocks.shape}")
    if not np.isfinite(p.blocks).all():
        raise ParameterOutOfRange("pencil blocks must be finite")


def rank_at(p: Pencil, point: ProjectivePoint, tol: ToleranceConfig = ToleranceConfig()) -> int:
    _check_blocks(p)
    if point.coords.size != p.ambient_dim:
        raise ShapeMismatch(
            f"point has {point.coords.size} coordinates, pencil ambient is {p.ambient_dim}")
    return numerical_rank(p.evaluate(point.coords), tol)


def in_locus(p: Pencil, k: int, point: ProjectivePoint,
             tol: ToleranceConfig = ToleranceConfig()) -> bool:
    if k < 0:
        raise InvalidK("rank bound k must be nonnegative")
    return rank_at(p, point, tol) <= k


def locus_zero(p: Pencil, tol: ToleranceConfig = ToleranceConfig()) -> LinearLocus:
    """Exact rank-0 locus: null space of the stacked block matrix."""
    _check_blocks(p)
    return LinearLocus(null_space(p.stacked(), tol))


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly left to right, a running sum into a copy
    of x[..., 0], so a row's sum does not depend on how many rows there are."""
    return _running_sum(x[..., i] if i else x[..., 0].copy() for i in range(x.shape[-1]))


def _row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real or a C-contiguous complex array."""
    parts = x.view(np.float64)
    return np.sqrt(_row_sum(parts * parts))


def _pencil_svd(stack: np.ndarray, search: np.ndarray, R: np.ndarray):
    """Full SVD M = U S V^dagger per row j of R, M of blocks stack[search[j]] read
    for this call: a thin V lacks the directions M kills when cols > rows."""
    return np.linalg.svd(Pencil(stack[search].swapaxes(0, 1)).evaluate(R), full_matrices=True)


def _normal_map(stack: np.ndarray, search: np.ndarray, U: np.ndarray, Vh: np.ndarray, k: int):
    """Per row of _pencil_svd's U and Vh: the normal map J, column i vec(U0^dagger
    A_i V0), A_i = stack[search[row], i], U0 = U[:, k:], V0 = V[:, k:]; M is linear,
    so U0^dagger M(r + dr) V0 = diag(s[k:]) + J dr.  Both products are running
    sums over the contracted index, reading the blocks one index at a time."""
    rows, cols = stack.shape[-2:]
    U0h = U[..., k:].conj().swapaxes(-1, -2)  # (S, rows-k, rows)
    V0t = Vh[..., k:, :].conj()  # (S, cols-k, cols): V0 transposed
    left = _running_sum(U0h[:, None, :, None, j] * np.take(stack[:, :, None, j], search, axis=0)
                        for j in range(rows))  # (S, d, rows-k, cols)
    J = _running_sum(left[..., None, l] * V0t[:, None, None, :, l]
                     for l in range(cols))  # (S, d, rows-k, cols-k)
    return J.reshape(J.shape[0], J.shape[1], -1).swapaxes(-1, -2)


def _row_bytes(block_shape: tuple, k: int) -> int:
    """A bound on the bytes _descend holds per row at its peak, in 16-byte
    entries, for blocks (d, rows, cols), m = rows - k, n = cols - k and
    q = min(m n, d): what a row keeps (its share of the stack, at most its
    blocks; U, Vh, five d-vectors, its singular values, 8 entries of
    bookkeeping) and the most one stage adds: the evaluation or its SVD, the
    normal map or the step (README).  numpy's fixed per-call buffers, up to
    128 KiB whatever the rows, come on top."""
    d, rows, cols = block_shape
    m, n, q = rows - k, cols - k, min((rows - k) * (cols - k), d)
    held = d * rows * cols + rows**2 + cols**2 + 5 * d + min(rows, cols) + 8
    evaluation = max(d * rows * cols + 2 * rows * cols, rows * cols + rows**2 + cols**2)
    normal_map = m * rows + n * cols + d * m * cols + max(d * m * cols + d * cols, 2 * d * m * n)
    step = 2 * d * m * n + m * n + max(d * m * n + d, m * n * q + 3 * q * d + q)
    return 16 * (held + max(evaluation, normal_map, step))


def _searches_per_batch(block_shape: tuple, k: int, starts: int) -> int:
    """How many searches of `starts` starts on pencils of block_shape one
    _descend batch takes within _BATCH_BYTES; at least one."""
    return max(1, _BATCH_BYTES // (_row_bytes(block_shape, k) * starts))


def _gauss_newton_step(J: np.ndarray, tail: np.ndarray, j: np.ndarray,
                       r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, dr = -pinv(J (I - r r^dagger)) b by one stacked SVD, b zero but
    for the tail singular values at its flat positions j: the least ||b + J dr||
    of least norm, orthogonal to r (the projected J kills r), and whether the
    start stalled.  It has stalled when
    - the step's model removes too little: it removes ||c||^2 from ||b||^2,
      c = W^dagger b being the part of b the map reaches, and a stall is
      ||c||^2 < _STALL_RTOL ||b||^2 (a product, not a ratio: b = 0 at exact
      locus points); or
    - no step moves sigma_{k+1}: row 0 of the projected map, the tail entry
      (0, 0), is u_{k+1}^dagger A_i v_{k+1}, whose real part against dr is
      sigma_{k+1}'s first-order change, and its norm is at most _RCOND times
      the map's largest singular value.  Where sigma_{k+1} = sigma_{k+2}
      (sigma_{k+1} < sigma_k), sigma_{k+1}'s first-order shift is the top
      eigenvalue of a Hermitian matrix with that (0, 0) entry, at least 0,
      so no step lowers it there either: a stationary point.
    c and ||b|| read W's rows j and the tail alone: the zero entries of b
    add exact zeros to their running sums."""
    Jr = _row_sum(J * r[:, None, :])
    JP = J - Jr[:, :, None] * r.conj()[:, None, :]
    W, sigma, Vh = np.linalg.svd(JP, full_matrices=False)
    kept = sigma > _RCOND * sigma[:, :1]
    c = np.where(kept, _running_sum(W[:, x].conj() * tail[:, i, None]
                                    for i, x in enumerate(j)), 0.0)
    stalled = ((_row_norm(c) ** 2 < _STALL_RTOL * _row_norm(tail) ** 2)
               | (_row_norm(np.ascontiguousarray(JP[:, 0])) <= _RCOND * sigma[:, 0]))
    dr = -_row_sum(Vh.conj().swapaxes(-1, -2) * (c / np.where(kept, sigma, 1.0))[:, None, :])
    return dr, stalled


def _descend(stack: np.ndarray, search: np.ndarray, k: int, R0: np.ndarray,
             config: SearchConfig, tol: ToleranceConfig):
    """Riemannian Gauss-Newton on the rank-k locus, all starts (rows of R0)
    in lockstep.  A round moves each live start by the step dr of its normal
    map, b = vec(diag(s[k:])), to (r + dr) / |r + dr|.  A start stops when
    sigma_{k+1} <= _POLISH times the rank threshold, after _MAX_ITER rounds,
    or when its step stalls: the step's model removes too little of the
    tail, or the start sits where no step moves sigma_{k+1} to first order,
    even inside a cluster of equal singular values (see _gauss_newton_step);
    the step is built only for the starts the first two rules let go on.
    Sums run in index order and SVDs are stacked (one LAPACK call per
    matrix), so no path depends on the batch.

    stack holds each search's blocks once, (searches, ambient, rows, cols); row
    j's pencil is stack[search[j]], read each round; a search's rows are contiguous.

    Returns arrays (r, f, reason, rounds) over the rows: each start's point
    of least f, that f, why it stopped ("hit" exactly when f is within the
    rank threshold, else "stalled" or "max_iter") and its rounds.
    With config.stop_at_first, in a round where a start hits, every later
    start of its search is dropped, with reason "" and 0 rounds; its earlier
    starts run on to their own stop.  No row depends on the others, so the
    rows end as they would if every start ran to its stop and the starts
    after the search's lowest-index hit were dropped then.
    """
    rows, cols = stack.shape[-2:]
    diag = np.arange(min(rows, cols) - k) * (cols - k + 1)  # flat (i, i) of the tail block
    R0 = np.ascontiguousarray(R0, dtype=complex)
    S = len(R0)
    r = R0 / _row_norm(R0)[:, None]
    r_best = np.empty_like(r)
    f_best, smax_best = np.full(S, np.inf), np.zeros(S)
    reason = np.full(S, "", dtype="U8")  # set when the start stops; "" while it runs
    rounds = np.zeros(S, dtype=int)
    ids = np.arange(S)  # live starts; row j of r belongs to start ids[j]
    n = 0  # rounds run
    while ids.size:
        n += 1
        U, s, Vh = _pencil_svd(stack, search[ids], r)
        f, smax = s[:, k], s[:, 0]
        better = f < f_best[ids]
        i = ids[better]
        f_best[i], smax_best[i], r_best[i] = f[better], smax[better], r[better]
        polished = f <= _POLISH * tol.threshold_from_sigma(smax, rows, cols)
        going = ~polished if n < _MAX_ITER else np.zeros(ids.size, dtype=bool)
        stepping = np.count_nonzero(going)
        if stepping:
            # a step only for the starts that may go on, subset when some stop
            at = slice(None) if stepping == ids.size else np.flatnonzero(going)
            U, Vh = U[at], Vh[at]
            dr, stalled = _gauss_newton_step(
                _normal_map(stack, search[ids[at]], U, Vh, k), s[at, k:], diag, r[at])
            going[at] = ~stalled
        if not going.all():
            i = ids[~going]
            hit = polished[~going] | (f_best[i] <= tol.threshold_from_sigma(smax_best[i], rows, cols))
            reason[i] = np.where(hit, "hit", "stalled" if n < _MAX_ITER else "max_iter")
            rounds[i] = n
            if config.stop_at_first and hit.any():
                # a hit drops every later start of its search
                first = np.full(len(stack), S)
                np.minimum.at(first, search[i[hit]], i[hit])
                dropped = np.arange(S) > first[search]
                reason[dropped], rounds[dropped] = "", 0
                going &= ~dropped[ids]
            if not stepping:
                break
            keep = going[at]  # of the rows that stepped
            ids, r, dr = ids[going], r[going], dr[keep]
        r = r + dr
        r /= _row_norm(r)[:, None]
    return r_best, f_best, reason, rounds


def _draw_starts(seed: int, starts: int, ambient: int) -> np.ndarray:
    # per start: d real parts, then d imaginary parts, drawn start after start
    draws = np.random.default_rng(seed).standard_normal((starts, 2, ambient))
    return draws[:, 0] + 1j * draws[:, 1]


def _close(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """same_point between every unit row of P and every unit row of Q."""
    return 1.0 - np.abs(P.conj() @ Q.T) <= _POINT_TOL


def _first_of_each_point(H: np.ndarray) -> np.ndarray:
    """Indices of the unit rows of H kept in order: a row is dropped when it
    is the same point as a row kept before it.  Blocks of 256 rows bound the
    Gram matrices by 256 x len(H)."""
    kept = np.empty(0, dtype=int)
    for lo in range(0, len(H), 256):
        idx = np.arange(lo, min(lo + 256, len(H)))
        if kept.size:
            idx = idx[~_close(H[idx], H[kept]).any(axis=1)]
        close = np.triu(_close(H[idx], H[idx]), 1)
        # keep[j] = no i < j with close[i, j] and keep[i]: each sweep fixes at
        # least one more row in order, and the first fixed point is the answer
        keep = np.ones(idx.size, dtype=bool)
        while not np.array_equal(new := ~(close & keep[:, None]).any(axis=0), keep):
            keep = new
        kept = np.concatenate([kept, idx[keep]])
    return kept


def _distinct_points(r: np.ndarray, f: np.ndarray) -> tuple[tuple, tuple]:
    """The hits r (rows, in start order) with residuals f, as points: the first
    hit of each point is kept, the points are sorted by the moduli of their
    coordinates, then by their real and imaginary parts, all rounded to 6
    decimals (so points with vanishing leading coordinates come first), and
    the first _MAX_CLUSTERS are reported."""
    if len(r) > 1:
        kept = _first_of_each_point(r / np.linalg.norm(r, axis=1)[:, None])
        r, f = r[kept], f[kept]
    C = _canonical(r)
    if len(C) > 1:
        parts = np.round(C, 6).view(np.float64)  # re, im of each coordinate in turn
        order = np.lexsort(np.hstack([np.round(np.abs(C), 6), parts]).T[::-1])[:_MAX_CLUSTERS]
        C, f = C[order], f[order]
    return tuple(ProjectivePoint(c) for c in C), tuple(f)


def _sample(r, f, reason, rounds, starts: int) -> LocusSample:
    """One search's sample from its rows of _descend."""
    points, residuals = _distinct_points(r[reason == "hit"], f[reason == "hit"])
    counts = {x: int(np.count_nonzero(reason == x)) for x in _REASONS}
    # the search runs as long as its longest-running start
    stats = {"starts": starts, "converged": counts["hit"] + counts["stalled"],
             "rounds": int(rounds.max()), **counts}
    return LocusSample(points, residuals, stats, trivial=False,
                       min_residual_seen=f[reason != ""].min())


def _sample_loci(pencils, k: int, config: SearchConfig,
                 tol: ToleranceConfig) -> list[LocusSample]:
    """sample_locus(p, k, config at seed config.seed + i, tol) for the i-th pencil
    p of the iterable pencils, read once.  A block shape's searches run in
    _descend batches of _searches_per_batch, each as soon as it is full, so at
    most one batch of pencils per shape is held; no row depends on the batch,
    so each sample is the one its search gives alone."""
    if k < 0:
        raise InvalidK("rank bound k must be nonnegative")
    starts = config.starts
    samples = []
    pending: dict[tuple, list[tuple[int, Pencil]]] = {}  # per block shape, the next batch

    def run(shape, batch):
        R0 = np.concatenate([_draw_starts(config.seed + i, starts, shape[0]) for i, _ in batch])
        stack = np.stack([p.blocks for _, p in batch])
        search = np.repeat(np.arange(len(batch)), starts)
        r, f, reason, rounds = _descend(stack, search, k, R0, config, tol)
        for j, (i, _) in enumerate(batch):
            rows = slice(j * starts, (j + 1) * starts)
            samples[i] = _sample(r[rows], f[rows], reason[rows], rounds[rows], starts)

    for i, p in enumerate(pencils):
        _check_blocks(p)
        if k >= p.max_rank_bound() or np.linalg.norm(p.blocks) < tol.abs_floor:
            # every point is on the locus: k reaches the block size, or the pencil is zero
            stats = {"starts": 0, "converged": 0, "rounds": 0, **dict.fromkeys(_REASONS, 0)}
            samples.append(LocusSample((), (), stats, trivial=True, min_residual_seen=0.0))
            continue
        samples.append(None)  # set when its batch runs
        shape = p.blocks.shape
        pending.setdefault(shape, []).append((i, p))
        if len(pending[shape]) == _searches_per_batch(shape, k, starts):
            run(shape, pending.pop(shape))
    for shape, batch in pending.items():
        run(shape, batch)
    return samples


def sample_locus(p: Pencil, k: int, config: SearchConfig = SearchConfig(),
                 tol: ToleranceConfig = ToleranceConfig()) -> LocusSample:
    """Multistart search for points with sigma_{k+1} below the rank threshold.

    An empty point list is a failure to find, not a proof of emptiness.
    """
    return _sample_loci([p], k, config, tol)[0]


def is_locus_empty(p: Pencil, k: int, config: SearchConfig = SearchConfig(),
                   tol: ToleranceConfig = ToleranceConfig()) -> LocusVerdict:
    """Exact emptiness for k = 0; sampled one-sided evidence for k >= 1."""
    return _loci_empty([p], k, config, tol)[0]


def _loci_empty(pencils, k: int, config: SearchConfig,
                tol: ToleranceConfig) -> list[LocusVerdict]:
    """is_locus_empty(p, k, config at seed config.seed + i, tol) for the i-th
    pencil p of pencils, read once as _sample_loci reads them."""
    if k == 0:
        loci = (locus_zero(p, tol) for p in pencils)
        return [LocusVerdict("EMPTY_EXACT") if locus.is_empty
                else LocusVerdict("NONEMPTY_WITNESS", witness=locus.points()[0]) for locus in loci]
    ambient = []  # a trivial locus's witness e_0 needs its pencil's ambient dimension
    samples = _sample_loci((ambient.append(p.ambient_dim) or p for p in pencils), k, config, tol)
    return [_sampled_verdict(d, sample) for d, sample in zip(ambient, samples)]


def _sampled_verdict(ambient: int, sample: LocusSample) -> LocusVerdict:
    if sample.trivial:
        witness = ProjectivePoint.of(np.eye(ambient)[0])
        return LocusVerdict("NONEMPTY_WITNESS", witness=witness, min_residual=0.0)
    if sample.points:
        return LocusVerdict("NONEMPTY_WITNESS", witness=sample.points[0],
                            min_residual=sample.residuals[0])
    return LocusVerdict("EMPTY_HEURISTIC", min_residual=sample.min_residual_seen)
