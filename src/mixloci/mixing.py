"""Executable necessary conditions for mixing bipartite states.

Covers eigenvalue majorization (uni-partite and reduced), locus-containment
infeasibility certificates, Schmidt-rank caps from the exact rank-0 locus,
and the genericity (measure-zero) predicate with its Monte-Carlo verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .errors import InvalidK, ParameterOutOfRange, ShapeMismatch
from .loci import (Pencil, ProjectivePoint, SearchConfig, _generic_points, _loci_empty,
                   locus_zero, normal_rank, sample_locus, spectral_pencil)
from .numeric import EigResult, ToleranceConfig, hermitian_eig, singular_values
from .states import (BipartiteShape, DensityMatrix, Side, _check_mixture, _check_side,
                     _check_weights, partial_trace, random_density, rank_cut, support)

__all__ = ["MixCertificate", "MixVerdict", "RangeContainment", "GenericityQuery",
           "GenericityReport", "majorizes", "check_pure_mix_eigen", "check_mixed_mix_eigen",
           "check_reduced_constraints", "range_containment", "check_component_necessary",
           "ZeroLoci", "schmidt_rank_cap", "forces_separable", "excludes_max_schmidt_rank",
           "generic_empty_predicate", "monte_carlo_genericity"]

_SUM_TOL = 1e-9
_GUARD = 10.0
_MAX_TRIALS = 4096  # largest GenericityQuery.trials: it bounds one request's run time


@dataclass(frozen=True)
class MixCertificate:
    """Witness in V^k(target) but outside V^k(component): mixing is impossible."""

    witness: ProjectivePoint
    side: Side
    k: int
    rank_in_target: int
    rank_in_component: int
    residual_target: float
    residual_component: float


@dataclass(frozen=True)
class RangeContainment:
    """leak = ||(I - P_target) V_component||_2 over kept eigenvectors.  When
    contained, p_max = 1 / lambda_max(rho^{+1/2} rho_c rho^{+1/2}) is the
    component's largest weight in a mixture equal to rho (Hughston-Jozsa-Wootters)."""

    contained: bool
    leak: float
    p_max: float | None = None


@dataclass(frozen=True)
class MixVerdict:
    """Every verdict carries the range test, which runs first, and `reason`,
    one line saying why the status holds.  `stats` holds one entry per k
    scanned."""

    status: Literal["INFEASIBLE", "NO_OBSTRUCTION_FOUND"]
    range_test: RangeContainment
    reason: str
    certificate: MixCertificate | None = None
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GenericityQuery:
    m: int
    n: int
    r: int
    t: int
    trials: int
    seed: int = 0

    def __post_init__(self):
        if not (self.m >= 1 and self.n >= 1):
            raise ParameterOutOfRange("m and n must be >= 1")
        if not 1 <= self.r <= self.m * self.n:
            raise ParameterOutOfRange(f"rank r={self.r} outside [1, {self.m * self.n}]")
        if not 0 <= self.trials <= _MAX_TRIALS:
            raise ParameterOutOfRange(f"trials must be in [0, {_MAX_TRIALS}], got {self.trials}")
        if self.seed < 0:
            raise ParameterOutOfRange(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.t < min(self.n, self.r):
            raise ParameterOutOfRange(f"t={self.t} outside [0, min(n, r))")

    @property
    def codimension(self) -> int:
        """The codimension of the n x r matrices of rank at most t: side A's
        pencil M(x) is n x r at each x in CP^{m-1}."""
        return (self.n - self.t) * (self.r - self.t)


@dataclass(frozen=True)
class GenericityReport:
    predicate_holds: bool
    codimension: int
    nonempty_fraction: float | None
    min_residuals: tuple[float, ...]
    residual_summary: dict
    witnesses: tuple[ProjectivePoint | None, ...] = ()


def majorizes(r: Sequence[float], s: Sequence[float], tol: float = _SUM_TOL) -> bool:
    """True iff r is majorized by s: partial sums of the decreasing
    rearrangements are dominated and the totals agree."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    size = max(r.size, s.size)
    r = np.sort(np.concatenate((r, np.zeros(size - r.size))))[::-1]
    s = np.sort(np.concatenate((s, np.zeros(size - s.size))))[::-1]
    rc, sc = np.cumsum(r), np.cumsum(s)
    if abs(rc[-1] - sc[-1]) > tol:
        return False
    return bool(np.all(rc[:-1] <= sc[:-1] + tol))


def check_pure_mix_eigen(rho: DensityMatrix, probs: Sequence[float]) -> bool:
    """A pure-state decomposition with weights (p_i) exists iff (p_i) is
    majorized by the spectrum of rho."""
    probs = _check_weights(probs, _SUM_TOL)
    return majorizes(probs, rho.eigenvalues())


def check_mixed_mix_eigen(rho: DensityMatrix, weights: Sequence[float],
                          components: Sequence[DensityMatrix]) -> bool:
    """Necessary for rho = sum p_j rho_j: lambda(rho) majorized by the
    weighted average of the component spectra."""
    weights = _check_mixture(weights, components, rho.shape, _SUM_TOL)
    averaged = sum(w * c.eigenvalues() for w, c in zip(weights, components))
    return majorizes(rho.eigenvalues(), averaged)


def _reduced_spectrum(rho: DensityMatrix, side: Side) -> np.ndarray:
    return hermitian_eig(partial_trace(rho, side)).eigenvalues


def check_reduced_constraints(rho: DensityMatrix, weights: Sequence[float],
                              components: Sequence[DensityMatrix]) -> bool:
    """Apply the mixed-state eigenvalue constraint to both partial traces."""
    weights = _check_mixture(weights, components, rho.shape, _SUM_TOL)
    for side in ("A", "B"):
        averaged = sum(w * _reduced_spectrum(c, side) for w, c in zip(weights, components))
        if not majorizes(_reduced_spectrum(rho, side), averaged):
            return False
    return True


def _certificate_at(point: ProjectivePoint, target_pencil: Pencil, component_pencil: Pencil,
                    side: Side, k: int, tol: ToleranceConfig) -> MixCertificate | None:
    """Apply guard bands: refuse rank calls close to the threshold."""
    Mt = target_pencil.evaluate(point.coords)
    Mc = component_pencil.evaluate(point.coords)
    st = singular_values(Mt)
    sc = singular_values(Mc)
    cut_t = tol.threshold_from_sigma(st[0], *Mt.shape)
    cut_c = tol.threshold_from_sigma(sc[0], *Mc.shape)
    res_t, res_c = st[k], sc[k]  # k is below both pencils' block bounds
    if res_t > cut_t / _GUARD:
        return None
    if res_c < _GUARD * cut_c:
        return None
    return MixCertificate(point, side, k,
                          rank_in_target=tol.rank(st, *Mt.shape),
                          rank_in_component=tol.rank(sc, *Mc.shape),
                          residual_target=float(res_t),
                          residual_component=float(res_c))


def _locus_candidates(pencil: Pencil, k: int, config: SearchConfig,
                      tol: ToleranceConfig) -> tuple[list[ProjectivePoint], dict]:
    if k == 0:
        # the basis points alone: M_c is linear, so a unit combination x = sum_j c_j b_j
        # has sigma_1(M_c(x)) <= sqrt(dim + 1) max_j sigma_1(M_c(b_j)), and it clears
        # the component's guard band alone only where every b_j misses it by less
        locus = locus_zero(pencil, tol)
        return locus.points(), {"mode": "exact", "dimension": locus.projective_dimension}
    sample = sample_locus(pencil, k, config, tol)
    points = list(sample.points)
    if sample.trivial:  # V^k is the whole space, searched by no start: take generic points
        points = [ProjectivePoint(c) for c in _generic_points(pencil.ambient_dim)]
    mode = "whole_space" if sample.trivial else "sampled"
    return points, {**sample.search_stats, "mode": mode, "found": len(points),
                    "min_residual": sample.min_residual_seen}


def _check_pair(target: DensityMatrix, component: DensityMatrix) -> None:
    if target.shape != component.shape:
        raise ShapeMismatch("target and component shapes differ")


def range_containment(target: DensityMatrix, component: DensityMatrix,
                      tol: ToleranceConfig = ToleranceConfig()) -> RangeContainment:
    """Range test on the stored spectra cut as spectral_pencil cuts them.  Within
    a unit matrix's rank threshold over the guard band (0 at full rank), a
    leak counts as none."""
    _check_pair(target, component)
    return _range_containment(support(target, tol), support(component, tol), tol)


def _range_containment(t: EigResult, c: EigResult, tol: ToleranceConfig) -> RangeContainment:
    """range_containment on the supports of a target and a component of one shape."""
    dim = t.eigenvectors.shape[0]
    overlap = t.eigenvectors.conj().T @ c.eigenvectors
    leak = 0.0
    if t.eigenvalues.size < dim:
        leak = float(singular_values(c.eigenvectors - t.eigenvectors @ overlap)[0])
    if leak > tol.threshold_from_sigma(1.0, dim, dim) / _GUARD:
        return RangeContainment(False, leak)
    # rho^{+1/2} rho_c rho^{+1/2} = W W^dagger in the target's eigenbasis
    W = overlap * np.sqrt(c.eigenvalues) / np.sqrt(t.eigenvalues)[:, None]
    return RangeContainment(True, leak, float(1.0 / singular_values(W)[0] ** 2))


def check_component_necessary(target: DensityMatrix, component: DensityMatrix,
                              side: Side = "A", k: int | None = None,
                              config: SearchConfig = SearchConfig(),
                              tol: ToleranceConfig = ToleranceConfig()) -> MixVerdict:
    """Search V^k(target) for a point outside V^k(component).

    Such a point certifies that no positive weights and no further components
    can make `component` appear in any mixture equal to `target`.  k stops
    below the target pencil's block bound (InvalidK beyond).  No certificate
    exists at k at or above the component pencil's normal rank, where every
    point lies in V^k(component): k=None scans every k below both, cheapest
    (exact k=0) first, and an explicit such k runs no scan.  Where V^k(target)
    is the whole space, normal_rank's generic points are the candidates.  A
    NO_OBSTRUCTION_FOUND verdict is a semidecision, not a feasibility proof.
    When range(component) lies in range(target), V^k(target) lies in every
    V^k(component), so no scan can certify and none runs.  Nor does one run
    when a target eigenvalue lies within the guard band of the rank cut: a
    component there may be cut out of the target's pencil, and a certificate
    against it would be false.  The verdict's reason names the path taken.
    """
    _check_pair(target, component)
    target_support = support(target, tol)
    _check_side(side)
    # the target pencil's block bound: its blocks are n x t on side A, m x t on side B
    max_k = min(target.shape.n if side == "A" else target.shape.m,
                target_support.eigenvalues.size)
    if k is not None and not 0 <= k < max_k:
        raise InvalidK(f"k={k} outside [0, {max_k})")
    range_test = _range_containment(target_support, support(component, tol), tol)
    if range_test.contained:
        return MixVerdict("NO_OBSTRUCTION_FOUND", range_test,
                          f"range containment proven (leak {range_test.leak:.1e}), so no "
                          f"locus scan; the component can appear with weight up to "
                          f"p_max={range_test.p_max:.6g}")
    cut = rank_cut(target, tol)
    near = [lam for lam in target.eigenvalues() if cut / _GUARD <= lam <= _GUARD * cut]
    if near:
        return MixVerdict("NO_OBSTRUCTION_FOUND", range_test,
                          f"no locus scan, target eigenvalue {near[0]:.3e} within {_GUARD:g}x "
                          f"of the rank cut {cut:.3e} (not a feasibility proof)")
    component_pencil = spectral_pencil(component, side, tol)
    rank = normal_rank(component_pencil, tol)
    if k is not None and k >= rank:
        return MixVerdict("NO_OBSTRUCTION_FOUND", range_test,
                          f"no locus scan, k={k} reaches the component pencil's normal rank "
                          f"{rank}, so every point lies in its V^k (not a feasibility proof)")
    target_pencil = spectral_pencil(target, side, tol)
    all_stats = {}
    for kk in (range(min(max_k, rank)) if k is None else [k]):
        points, stats = _locus_candidates(target_pencil, kk, config, tol)
        all_stats[kk] = stats
        for point in points:
            cert = _certificate_at(point, target_pencil, component_pencil, side, kk, tol)
            if cert is not None:
                return MixVerdict("INFEASIBLE", range_test,
                                  f"witness {np.round(point.coords, 6).tolist()} (k={kk}) has "
                                  f"rank {cert.rank_in_target} in target but "
                                  f"{cert.rank_in_component} in component", cert, all_stats)
    return MixVerdict("NO_OBSTRUCTION_FOUND", range_test,
                      "no certificate found in the scanned loci (not a feasibility proof)",
                      stats=all_stats)


@dataclass(frozen=True)
class ZeroLoci:
    """Projective dimensions of rho's rank-0 loci V_A^0 and V_B^0 (-1 when
    empty) and the bounds they set on every ensemble member of rho."""

    shape: BipartiteShape
    dim_a: int
    dim_b: int

    @staticmethod
    def of(rho: DensityMatrix, tol: ToleranceConfig = ToleranceConfig()) -> "ZeroLoci":
        """Both loci from rho's spectral pencils: they depend on rho alone."""
        dim_a, dim_b = (locus_zero(spectral_pencil(rho, side, tol), tol).projective_dimension
                        for side in ("A", "B"))
        return ZeroLoci(rho.shape, dim_a, dim_b)

    @property
    def cap_a(self) -> int:
        return self.shape.m - 1 - self.dim_a

    @property
    def cap_b(self) -> int:
        return self.shape.n - 1 - self.dim_b

    @property
    def schmidt_rank_cap(self) -> int:
        """Upper bound on the Schmidt rank of any pure state in any ensemble of rho."""
        return min(self.cap_a, self.cap_b, self.shape.m, self.shape.n)

    @property
    def forces_separable(self) -> bool:
        """True iff the rank-0 locus dimension forces every ensemble member separable."""
        return self.dim_a == self.shape.m - 2 or self.dim_b == self.shape.n - 2

    @property
    def excludes_max_schmidt_rank(self) -> bool:
        """True iff a nonempty rank-0 locus rules out Schmidt rank min(m, n) members."""
        return self.dim_a >= 0 or self.dim_b >= 0


def schmidt_rank_cap(rho: DensityMatrix, tol: ToleranceConfig = ToleranceConfig()) -> int:
    return ZeroLoci.of(rho, tol).schmidt_rank_cap


def forces_separable(rho: DensityMatrix, tol: ToleranceConfig = ToleranceConfig()) -> bool:
    return ZeroLoci.of(rho, tol).forces_separable


def excludes_max_schmidt_rank(rho: DensityMatrix,
                              tol: ToleranceConfig = ToleranceConfig()) -> bool:
    return ZeroLoci.of(rho, tol).excludes_max_schmidt_rank


def generic_empty_predicate(q: GenericityQuery) -> bool:
    """The codimension exceeds dim CP^{m-1} = m - 1, so generic rank-r states
    have an empty rank-t locus on side A."""
    return q.codimension >= q.m


def monte_carlo_genericity(q: GenericityQuery, config: SearchConfig = SearchConfig(),
                           tol: ToleranceConfig = ToleranceConfig()) -> GenericityReport:
    """Sample random rank-r states and probe their rank-t loci empirically.

    Per-trial seeds derive from (master seed, trial index), so results do not
    depend on execution order.
    """
    shape = BipartiteShape(q.m, q.n)
    pencils = (spectral_pencil(random_density(shape, q.r, seed=[q.seed, trial]), "A", tol)
               for trial in range(q.trials))
    verdicts = _loci_empty(pencils, q.t, config, tol)  # trial i searches from seed config.seed + i
    nonempty = sum(v.status == "NONEMPTY_WITNESS" for v in verdicts)
    residuals = [v.min_residual for v in verdicts if v.min_residual is not None]
    witnesses = [v.witness for v in verdicts]
    fraction = nonempty / q.trials if q.trials > 0 else None
    summary = {}
    if residuals:
        arr = np.asarray(residuals)
        summary = {"min": float(arr.min()), "median": float(np.median(arr)),
                   "max": float(arr.max())}
    return GenericityReport(generic_empty_predicate(q), q.codimension, fraction,
                            tuple(residuals), summary, tuple(witnesses))
