"""Executable necessary conditions for mixing bipartite states.

Covers eigenvalue majorization (uni-partite and reduced), locus-containment
infeasibility certificates, Schmidt-rank caps from the exact rank-0 locus,
and the genericity (measure-zero) predicate with its Monte-Carlo verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .errors import InvalidK, ParameterOutOfRange, ShapeMismatch, WeightSumInvalid
from .loci import (Pencil, ProjectivePoint, SearchConfig, _canonical, _loci_empty, locus_zero,
                   pencil_from_ensemble, sample_locus)
from .numeric import ToleranceConfig, hermitian_eig, singular_values
from .states import (BipartiteShape, DensityMatrix, Ensemble, Side, _positive_weights,
                     eigen_ensemble, partial_trace, random_density, rank_cut, schmidt_rank,
                     support)

__all__ = ["MixCertificate", "MixVerdict", "RangeContainment", "GenericityQuery",
           "GenericityReport", "majorizes", "check_pure_mix_eigen", "check_mixed_mix_eigen",
           "check_reduced_constraints", "range_containment", "check_component_necessary",
           "ZeroLoci", "schmidt_rank_cap", "forces_separable", "excludes_max_schmidt_rank",
           "check_ensemble_schmidt", "generic_empty_predicate", "monte_carlo_genericity"]

_SUM_TOL = 1e-9
_GUARD = 10.0


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
    """`refused` says why no scan ran although the range test did not prove
    containment; it is None whenever the scan ran or containment was proven."""

    status: Literal["INFEASIBLE", "NO_OBSTRUCTION_FOUND"]
    certificate: MixCertificate | None = None
    stats: dict = field(default_factory=dict)
    range_test: RangeContainment | None = None
    refused: str | None = None


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
        if self.trials < 0:
            raise ParameterOutOfRange("trials must be nonnegative")
        if self.seed < 0:
            raise ParameterOutOfRange(f"seed must be >= 0, got {self.seed}")


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
    r = np.sort(np.pad(r, (0, size - r.size)))[::-1]
    s = np.sort(np.pad(s, (0, size - s.size)))[::-1]
    rc, sc = np.cumsum(r), np.cumsum(s)
    if abs(rc[-1] - sc[-1]) > tol:
        return False
    return bool(np.all(rc[:-1] <= sc[:-1] + tol))


def _check_weights(weights) -> np.ndarray:
    weights = _positive_weights(weights)
    if abs(weights.sum() - 1.0) > _SUM_TOL:
        raise WeightSumInvalid(f"weights sum to {float(weights.sum())!r}, expected 1")
    return weights


def _check_mixture(rho: DensityMatrix, weights: Sequence[float],
                   components: Sequence[DensityMatrix]) -> np.ndarray:
    """Valid weights, one per component, and components of rho's shape."""
    weights = _check_weights(weights)
    if len(weights) != len(components):
        raise WeightSumInvalid("weights and components differ in length")
    for c in components:
        if c.shape != rho.shape:
            raise ShapeMismatch("component shape mismatch")
    return weights


def check_pure_mix_eigen(rho: DensityMatrix, probs: Sequence[float]) -> bool:
    """A pure-state decomposition with weights (p_i) exists iff (p_i) is
    majorized by the spectrum of rho."""
    probs = _check_weights(probs)
    return majorizes(probs, rho.eigenvalues())


def check_mixed_mix_eigen(rho: DensityMatrix, weights: Sequence[float],
                          components: Sequence[DensityMatrix]) -> bool:
    """Necessary for rho = sum p_j rho_j: lambda(rho) majorized by the
    weighted average of the component spectra."""
    weights = _check_mixture(rho, weights, components)
    averaged = sum(w * c.eigenvalues() for w, c in zip(weights, components))
    return majorizes(rho.eigenvalues(), averaged)


def _reduced_spectrum(rho: DensityMatrix, side: Side) -> np.ndarray:
    return hermitian_eig(partial_trace(rho, side)).eigenvalues


def check_reduced_constraints(rho: DensityMatrix, weights: Sequence[float],
                              components: Sequence[DensityMatrix]) -> bool:
    """Apply the mixed-state eigenvalue constraint to both partial traces."""
    weights = _check_mixture(rho, weights, components)
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
    res_t = st[k] if k < st.size else 0.0
    res_c = sc[k] if k < sc.size else 0.0
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
        locus = locus_zero(pencil, tol)
        points = locus.points()
        if locus.projective_dimension >= 1:
            # positive-dimensional subspace: add random combinations as extra probes,
            # per probe its real parts, then its imaginary parts; one product per
            # probe, as a stacked product rounds differently
            draws = np.random.default_rng(config.seed).standard_normal(
                (8, 2, locus.basis.shape[1]))
            probes = np.array([locus.basis @ c for c in draws[:, 0] + 1j * draws[:, 1]])
            points += [ProjectivePoint(c) for c in _canonical(probes)]
        return points, {"mode": "exact", "dimension": locus.projective_dimension}
    sample = sample_locus(pencil, k, config, tol)
    stats = dict(sample.search_stats)
    stats.update(mode="sampled", found=len(sample.points),
                 min_residual=sample.min_residual_seen, trivial=sample.trivial)
    return list(sample.points), stats


def range_containment(target: DensityMatrix, component: DensityMatrix,
                      tol: ToleranceConfig = ToleranceConfig()) -> RangeContainment:
    """Range test on the stored spectra cut as eigen_ensemble cuts them.  Within
    a unit matrix's rank threshold over the guard band (0 at full rank), a
    leak counts as none."""
    t, c = support(target, tol), support(component, tol)
    dim = target.shape.dim
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
    can make `component` appear in any mixture equal to `target`.  With k=None
    every admissible rank bound is scanned, cheapest (exact k=0) first.
    A NO_OBSTRUCTION_FOUND verdict is a semidecision, not a feasibility proof.
    When range(component) lies in range(target), V^k(target) lies in every
    V^k(component), so no scan can certify and none runs.  Nor does one run
    when a target eigenvalue lies within the guard band of the rank cut: a
    component there may be cut out of the target's pencil, and a certificate
    against it would be false.
    """
    if target.shape != component.shape:
        raise ShapeMismatch("target and component shapes differ")
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    # the target pencil's blocks are n (side A) or m (side B) by its support's size
    max_k = min(target.shape.n if side == "A" else target.shape.m,
                support(target, tol).eigenvalues.size)
    if k is None:
        ks = range(0, max_k)
    else:
        if not 0 <= k < max_k:
            raise InvalidK(f"k={k} outside [0, {max_k})")
        ks = [k]
    range_test = range_containment(target, component, tol)
    if range_test.contained:
        return MixVerdict("NO_OBSTRUCTION_FOUND", range_test=range_test)
    cut = rank_cut(target, tol)
    near = [lam for lam in target.eigenvalues() if cut / _GUARD <= lam <= _GUARD * cut]
    if near:
        return MixVerdict("NO_OBSTRUCTION_FOUND", range_test=range_test,
                          refused=f"target eigenvalue {near[0]:.3e} within {_GUARD:g}x of "
                                  f"the rank cut {cut:.3e}")
    target_pencil = pencil_from_ensemble(eigen_ensemble(target, tol), side)
    component_pencil = pencil_from_ensemble(eigen_ensemble(component, tol), side)
    all_stats = {}
    for kk in ks:
        points, stats = _locus_candidates(target_pencil, kk, config, tol)
        all_stats[kk] = stats
        for point in points:
            cert = _certificate_at(point, target_pencil, component_pencil, side, kk, tol)
            if cert is not None:
                return MixVerdict("INFEASIBLE", cert, all_stats, range_test)
    return MixVerdict("NO_OBSTRUCTION_FOUND", stats=all_stats, range_test=range_test)


@dataclass(frozen=True)
class ZeroLoci:
    """Projective dimensions of rho's rank-0 loci V_A^0 and V_B^0 (-1 when
    empty) and the bounds they set on every ensemble member of rho."""

    shape: BipartiteShape
    dim_a: int
    dim_b: int

    @staticmethod
    def of(rho: DensityMatrix, tol: ToleranceConfig = ToleranceConfig()) -> "ZeroLoci":
        """Both loci from one spectral ensemble: they depend on rho alone."""
        ensemble = eigen_ensemble(rho, tol)
        dim_a, dim_b = (locus_zero(pencil_from_ensemble(ensemble, side), tol).projective_dimension
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


def check_ensemble_schmidt(schmidt_number_lower_bound: int, e: Ensemble,
                           tol: ToleranceConfig = ToleranceConfig()) -> bool:
    """Necessary check: some member must reach the supplied Schmidt-number bound."""
    if schmidt_number_lower_bound < 1:
        raise ParameterOutOfRange("Schmidt-number lower bound must be >= 1")
    return max(schmidt_rank(psi, tol) for _, psi in e.members) >= schmidt_number_lower_bound


def generic_empty_predicate(q: GenericityQuery) -> bool:
    """(m - t)(r - t) >= m: generic rank-r states have an empty rank-t locus."""
    if not 0 <= q.t < min(q.m, q.r):
        raise ParameterOutOfRange(f"t={q.t} outside [0, min(m, r))")
    return (q.m - q.t) * (q.r - q.t) >= q.m


def monte_carlo_genericity(q: GenericityQuery, config: SearchConfig = SearchConfig(),
                           tol: ToleranceConfig = ToleranceConfig()) -> GenericityReport:
    """Sample random rank-r states and probe their rank-t loci empirically.

    Per-trial seeds derive from (master seed, trial index), so results do not
    depend on execution order.
    """
    predicate = generic_empty_predicate(q)
    codim = (q.m - q.t) * (q.r - q.t)
    shape = BipartiteShape(q.m, q.n)
    pencils = [pencil_from_ensemble(eigen_ensemble(
        random_density(shape, q.r, seed=[q.seed, trial]), tol), "A") for trial in range(q.trials)]
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
    return GenericityReport(predicate, codim, fraction, tuple(residuals), summary,
                            tuple(witnesses))
