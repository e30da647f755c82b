from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixloci import (BipartiteShape, GenericityQuery, ShapeMismatch, ToleranceConfig,
                     WeightSumInvalid, check_component_necessary, check_ensemble_schmidt,
                     check_mixed_mix_eigen, check_pure_mix_eigen, check_reduced_constraints,
                     density_from_ensemble, eigen_ensemble, excludes_max_schmidt_rank,
                     forces_separable, generic_empty_predicate, hermitian_form, majorizes,
                     make_ensemble, make_pure, mix, monte_carlo_genericity,
                     pencil_from_ensemble, random_density, random_pure, schmidt_rank_cap)
from mixloci import is_locus_empty, loci
from mixloci.errors import InvalidK, ParameterOutOfRange
from mixloci.loci import Pencil, ProjectivePoint, SearchConfig, locus_zero, rank_at
from mixloci.mixing import _locus_candidates
from mixloci.numeric import numerical_rank

from conftest import load_fixture

TOL = ToleranceConfig()
CONFIG = SearchConfig(starts=16, seed=0)
S22 = BipartiteShape(2, 2)
S33 = BipartiteShape(3, 3)


def oracle_majorizes(r, s, tol=1e-9):
    """Independent partial-sum check, written directly from the definition."""
    size = max(len(r), len(s))
    rd = sorted(list(r) + [0.0] * (size - len(r)), reverse=True)
    sd = sorted(list(s) + [0.0] * (size - len(s)), reverse=True)
    acc_r = acc_s = 0.0
    for i in range(size - 1):
        acc_r += rd[i]
        acc_s += sd[i]
        if acc_r > acc_s + tol:
            return False
    return abs(sum(rd) - sum(sd)) <= tol


def test_majorizes_basic():
    assert majorizes([0.5, 0.5], [1.0, 0.0])
    assert majorizes([0.3, 0.7], [0.3, 0.7])
    assert not majorizes([0.6, 0.4], [0.5, 0.5])
    assert majorizes([0.25] * 4, [0.5, 0.5])  # zero padding


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=6),
       st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=6))
def test_majorizes_matches_oracle(r, s):
    assert majorizes(r, s) == oracle_majorizes(r, s)


def test_check_pure_mix_eigen():
    mm = load_fixture("maximally_mixed_2x2.json").density
    assert check_pure_mix_eigen(mm, [0.25] * 4)
    rho = mix([0.6, 0.4],
              [density_from_ensemble(make_ensemble(S22, [(1.0, make_pure([1, 0, 0, 0], S22))])),
               density_from_ensemble(make_ensemble(S22, [(1.0, make_pure([0, 1, 0, 0], S22))]))])
    assert not check_pure_mix_eigen(rho, [0.8, 0.2])   # 0.8 > 0.6
    assert check_pure_mix_eigen(rho, [0.5, 0.5])
    with pytest.raises(WeightSumInvalid):
        check_pure_mix_eigen(rho, [0.5, 0.4])
    with pytest.raises(WeightSumInvalid):
        check_pure_mix_eigen(rho, [float("nan"), 1.0])


def test_check_pure_mix_eigen_constructed(tol):
    rng = np.random.default_rng(40)
    for trial in range(100):
        count = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(count))
        members = [(float(p), random_pure(S22, rng)) for p in probs]
        rho = density_from_ensemble(make_ensemble(S22, members))
        assert check_pure_mix_eigen(rho, probs)


def test_check_mixed_mix_eigen():
    rho = load_fixture("bell.json").density
    assert check_mixed_mix_eigen(rho, [1.0], [rho])
    mm = load_fixture("maximally_mixed_2x2.json").density
    assert not check_mixed_mix_eigen(rho, [1.0], [mm])   # (1,0,..) vs uniform
    other = load_fixture("example3.json").density
    with pytest.raises(ShapeMismatch):
        check_mixed_mix_eigen(rho, [1.0], [other])


def test_check_mixed_mix_eigen_constructed():
    rng = np.random.default_rng(41)
    for trial in range(100):
        count = int(rng.integers(2, 4))
        comps = [random_density(S22, int(rng.integers(1, 5)), seed=[41, trial, j])
                 for j in range(count)]
        w = rng.dirichlet(np.ones(count))
        rho = mix(w, comps)
        assert check_mixed_mix_eigen(rho, w, comps)


def test_check_reduced_constraints():
    rng = np.random.default_rng(42)
    comps = [random_density(S33, 2, seed=[42, j]) for j in range(2)]
    w = np.array([0.3, 0.7])
    rho = mix(w, comps)
    assert check_reduced_constraints(rho, w, comps)
    # product pure target vs Bell component: reduced (1,0) not majorized by (1/2,1/2)
    product = density_from_ensemble(
        make_ensemble(S22, [(1.0, make_pure([1, 0, 0, 0], S22))]))
    bell = load_fixture("bell.json").density
    assert not check_reduced_constraints(product, [1.0], [bell])
    assert check_reduced_constraints(product, [1.0], [product])
    with pytest.raises(WeightSumInvalid):
        check_reduced_constraints(load_fixture("example2_target.json").density, [0.5, 0.5],
                                  [load_fixture("example2_component.json").density])
    with pytest.raises(ShapeMismatch):
        check_reduced_constraints(bell, [1.0], [load_fixture("example3.json").density])


def test_check_component_necessary_example2():
    target = load_fixture("example2_target.json").density
    component = load_fixture("example2_component.json").density
    verdict = check_component_necessary(target, component, "A", 2, CONFIG, TOL)
    assert verdict.status == "INFEASIBLE"
    cert = verdict.certificate
    assert abs(cert.witness.coords[0]) <= 1e-8
    assert cert.rank_in_target <= 2
    assert cert.rank_in_component == 3
    assert cert.residual_component >= 10 * cert.residual_target
    assert not verdict.range_test.contained and verdict.range_test.leak > 0.1


def test_check_component_necessary_reflexive():
    target = load_fixture("example2_target.json").density
    verdict = check_component_necessary(target, target, "A", None, CONFIG, TOL)
    assert verdict.status == "NO_OBSTRUCTION_FOUND"


def test_check_component_necessary_true_components():
    rng = np.random.default_rng(43)
    for trial in range(10):
        comps = [random_density(S33, int(rng.integers(1, 5)), seed=[43, trial, j])
                 for j in range(2)]
        w = rng.dirichlet(np.ones(2))
        rho = mix(w, comps)
        for comp in comps:
            verdict = check_component_necessary(rho, comp, "A", None,
                                                SearchConfig(starts=8, seed=trial), TOL)
            assert verdict.status == "NO_OBSTRUCTION_FOUND"


def criterion_6_mixtures():
    """The (mixture, component, weight) triples acceptance criterion 6 checks."""
    rng = np.random.default_rng(46)
    for shape in (S22, S33):
        for trial in range(50):
            comps = [random_density(shape, int(rng.integers(1, shape.dim + 1)),
                                    seed=[46, shape.m, trial, j]) for j in range(2)]
            w = rng.dirichlet(np.ones(2))
            rho = mix(w, comps)
            yield from ((rho, comp, weight) for comp, weight in zip(comps, w))
            for _ in range(200):  # the test points criterion 6 draws
                rng.standard_normal(shape.m), rng.standard_normal(shape.m)


def test_range_gate_skips_the_scan_for_genuine_mixtures():
    cases = list(criterion_6_mixtures())
    for ranks in ((5, 3), (5, 4)):  # 3x3 mixtures of rank 8 and 9
        comps = [random_density(S33, r, seed=[48, r, j]) for j, r in enumerate(ranks)]
        cases += [(mix([0.4, 0.6], comps), comp, w) for comp, w in zip(comps, (0.4, 0.6))]
    assert [c[0].eigenvalues().size - np.sum(c[0].eigenvalues() > 1e-9)
            for c in cases[-4:]] == [1, 1, 0, 0]
    for rho, comp, weight in cases:
        verdict = check_component_necessary(rho, comp, "A", None, CONFIG, TOL)
        assert verdict.status == "NO_OBSTRUCTION_FOUND" and verdict.stats == {}
        gate = verdict.range_test
        assert gate.contained and gate.leak <= 1e-9
        # p_max is the largest p with rho - p comp >= 0, so at least comp's weight
        assert gate.p_max >= weight * (1 - 1e-9)
        assert np.linalg.eigvalsh(rho.matrix - gate.p_max * comp.matrix).min() >= -1e-9
        assert np.linalg.eigvalsh(rho.matrix - 1.01 * gate.p_max * comp.matrix).min() < 0


def test_range_gate_scans_a_component_leaking_out_of_range():
    rho = random_density(S33, 8, seed=[48, 8])
    kernel = rho.spectrum.eigenvectors[:, -1]
    inside = rho.spectrum.eigenvectors[:, 0]
    leaky = density_from_ensemble(make_ensemble(S33, [(1.0, make_pure(
        inside + 1e-3 * kernel, S33))]))
    verdict = check_component_necessary(rho, leaky, "A", None, CONFIG, TOL)
    assert not verdict.range_test.contained and verdict.range_test.p_max is None
    assert verdict.range_test.leak == pytest.approx(1e-3, rel=1e-3)
    assert verdict.stats  # the locus scan ran


@pytest.mark.parametrize("eps", [1e-7, 3e-8])
def test_no_certificate_at_the_eigenvalue_cut(eps):
    # B is in rho with weight eps, but its eigenvalues in rho lie within the
    # guard band of the rank cut, where the target's pencil may lose them
    for t in range(10):
        a, b = (random_density(S33, 2, seed=[s, t]) for s in (1, 2))
        verdict = check_component_necessary(mix([1 - eps, eps], [a, b]), b, "A", None,
                                            SearchConfig(starts=16, seed=t), TOL)
        assert verdict.status == "NO_OBSTRUCTION_FOUND"
        assert verdict.range_test.contained or verdict.refused


def test_check_component_necessary_errors():
    target = load_fixture("example2_target.json").density
    bell = load_fixture("bell.json").density
    with pytest.raises(ShapeMismatch):
        check_component_necessary(target, bell)
    with pytest.raises(InvalidK):
        check_component_necessary(target, target, "A", 99, CONFIG, TOL)
    with pytest.raises(ShapeMismatch):
        check_component_necessary(target, bell, "C", 99, CONFIG, TOL)  # shape first
    with pytest.raises(ValueError):
        check_component_necessary(target, target, "C", 99, CONFIG, TOL)  # then side, then k
    # k stops below the block size of the target's pencil: 3 on side A, 2 on side B
    rho = random_density(BipartiteShape(2, 3), 6, seed=1)
    for side, max_k in (("A", 3), ("B", 2)):
        assert pencil_from_ensemble(eigen_ensemble(rho, TOL), side).max_rank_bound() == max_k
        assert check_component_necessary(rho, rho, side, max_k - 1, CONFIG, TOL).range_test.contained
        with pytest.raises(InvalidK):
            check_component_necessary(rho, rho, side, max_k, CONFIG, TOL)
    rho = random_density(BipartiteShape(3, 3), 2, seed=1)  # rank 2: blocks 3 x 2
    with pytest.raises(InvalidK):
        check_component_necessary(rho, rho, "A", 2, CONFIG, TOL)


def test_certificate_reverifies_from_scratch():
    target = load_fixture("example2_target.json").density
    component = load_fixture("example2_component.json").density
    cert = check_component_necessary(target, component, "A", 2, CONFIG, TOL).certificate
    fresh_target = pencil_from_ensemble(eigen_ensemble(target, TOL), "A")
    fresh_component = pencil_from_ensemble(eigen_ensemble(component, TOL), "A")
    assert rank_at(fresh_target, cert.witness, TOL) <= cert.k
    assert rank_at(fresh_component, cert.witness, TOL) > cert.k
    assert numerical_rank(hermitian_form(target, cert.witness, "A"), TOL) <= cert.k
    assert numerical_rank(hermitian_form(component, cert.witness, "A"), TOL) > cert.k


def per_probe_candidates(pencil, config):
    """The k = 0 candidates as they were built one probe at a time: the
    reference the stacked canonical form must equal bit for bit."""
    locus = locus_zero(pencil, TOL)
    points = locus.points()
    rng = np.random.default_rng(config.seed)
    for _ in range(8):
        coeff = rng.standard_normal(locus.basis.shape[1]) \
            + 1j * rng.standard_normal(locus.basis.shape[1])
        points.append(ProjectivePoint.of(locus.basis @ coeff))
    return points


def test_rank_zero_probes_equal_the_per_probe_ones():
    rng = np.random.default_rng(5)
    for ambient, kernel, scale in ((3, 2, 1.0), (5, 3, 1e-3), (6, 6, 1.0), (8, 4, 1e4)):
        # ambient combinations of ambient - kernel blocks: a locus of dimension kernel - 1
        base = rng.standard_normal((ambient - kernel, 3, 2)) \
            + 1j * rng.standard_normal((ambient - kernel, 3, 2))
        blocks = np.einsum("ij,jrc->irc", scale * rng.standard_normal((ambient, ambient - kernel)),
                           base)
        pencil = Pencil(np.ascontiguousarray(blocks))
        config = SearchConfig(seed=int(rng.integers(1000)))
        points, stats = _locus_candidates(pencil, 0, config, TOL)
        assert stats == {"mode": "exact", "dimension": kernel - 1}
        expected = per_probe_candidates(pencil, config)
        assert len(points) == len(expected) == kernel + 8
        for q, want in zip(points, expected):
            assert np.array_equal(q.coords.view(np.int64), want.coords.view(np.int64))


def test_schmidt_rank_cap_examples():
    assert schmidt_rank_cap(load_fixture("example1.json").density, TOL) == 1
    assert schmidt_rank_cap(load_fixture("example3.json").density, TOL) == 2
    assert schmidt_rank_cap(load_fixture("bell.json").density, TOL) == 2


def test_schmidt_rank_cap_bounds_eigen_ensemble_members():
    from mixloci import schmidt_rank
    for name in ("example1.json", "example2_target.json", "example3.json"):
        rho = load_fixture(name).density
        cap = schmidt_rank_cap(rho, TOL)
        members = eigen_ensemble(rho, TOL).members
        assert max(schmidt_rank(psi, TOL) for _, psi in members) <= cap


def test_forces_separable():
    assert forces_separable(load_fixture("example1.json").density, TOL)
    assert not forces_separable(load_fixture("maximally_mixed_2x2.json").density, TOL)
    assert not forces_separable(load_fixture("example3.json").density, TOL)


def test_forces_separable_implies_cap_one():
    for name in ("example1.json", "example3.json", "bell.json",
                 "maximally_mixed_2x2.json"):
        rho = load_fixture(name).density
        if forces_separable(rho, TOL):
            assert schmidt_rank_cap(rho, TOL) == 1


def test_excludes_max_schmidt_rank():
    assert excludes_max_schmidt_rank(load_fixture("example3.json").density, TOL)
    assert excludes_max_schmidt_rank(load_fixture("example1.json").density, TOL)
    assert not excludes_max_schmidt_rank(load_fixture("bell.json").density, TOL)


def test_check_ensemble_schmidt():
    e1 = load_fixture("example1.json").ensemble
    assert check_ensemble_schmidt(1, e1, TOL)
    assert not check_ensemble_schmidt(2, e1, TOL)   # both members are product states
    e2 = load_fixture("example2_component.json").ensemble
    assert check_ensemble_schmidt(2, e2, TOL)       # rank-3 members
    with pytest.raises(ParameterOutOfRange):
        check_ensemble_schmidt(0, e1, TOL)


def test_generic_empty_predicate():
    assert generic_empty_predicate(GenericityQuery(4, 4, 4, 2, 0))
    assert not generic_empty_predicate(GenericityQuery(3, 3, 3, 2, 0))
    assert generic_empty_predicate(GenericityQuery(5, 5, 3, 0, 0))
    with pytest.raises(ParameterOutOfRange):
        generic_empty_predicate(GenericityQuery(3, 3, 2, 2, 0))
    with pytest.raises(ParameterOutOfRange):
        GenericityQuery(3, 3, 3, 2, 1, seed=-1)


def test_generic_empty_predicate_quadratic_identity():
    for m in range(1, 13):
        for r in range(1, 13):
            for t in range(0, min(m, r)):
                expected = t * t - (m + r) * t + m * r - m >= 0
                assert generic_empty_predicate(GenericityQuery(m, max(m, r), r, t, 0)) \
                    == expected


def test_monte_carlo_genericity_small():
    report = monte_carlo_genericity(GenericityQuery(3, 3, 3, 2, 10, seed=3),
                                    SearchConfig(starts=12, seed=3, stop_at_first=True), TOL)
    assert not report.predicate_holds
    assert report.nonempty_fraction == 1.0
    report = monte_carlo_genericity(GenericityQuery(4, 4, 4, 2, 5, seed=3),
                                    SearchConfig(starts=12, seed=3, stop_at_first=True), TOL)
    assert report.predicate_holds
    assert report.nonempty_fraction == 0.0


def test_monte_carlo_genericity_zero_trials():
    report = monte_carlo_genericity(GenericityQuery(3, 3, 3, 2, 0), CONFIG, TOL)
    assert report.nonempty_fraction is None
    assert report.residual_summary == {}


@pytest.mark.parametrize("m, n, r, t, trials, starts, batches", [
    (4, 4, 4, 2, 10, 16, [160]), (3, 3, 3, 2, 10, 16, [160]), (3, 3, 4, 1, 10, 16, [160]),
    (3, 3, 3, 2, 8, 1366, [8196, 2732]),  # 6 trials of 1366 rows of 1872 bytes fit 16 MiB
    (4, 4, 4, 2, 5, 900, [3600, 900])])  # at 3776 bytes a row, 4 trials of 900 do
def test_genericity_batches_equal_one_search_per_trial(m, n, r, t, trials, starts, batches,
                                                       monkeypatch):
    config = SearchConfig(starts=starts, seed=5, stop_at_first=True)
    alone = []
    for trial in range(trials):
        rho = random_density(BipartiteShape(m, n), r, seed=[2, trial])
        alone.append(is_locus_empty(pencil_from_ensemble(eigen_ensemble(rho, TOL), "A"), t,
                                    replace(config, seed=5 + trial), TOL))
    rows = []
    descend = loci._descend
    monkeypatch.setattr(loci, "_descend", lambda *args: rows.append(len(args[1])) or descend(*args))
    report = monte_carlo_genericity(GenericityQuery(m, n, r, t, trials, seed=2), config, TOL)
    assert rows == batches
    assert report.nonempty_fraction == sum(v.status == "NONEMPTY_WITNESS" for v in alone) / trials
    assert report.min_residuals == tuple(v.min_residual for v in alone)
    for w, v in zip(report.witnesses, alone):
        assert (w is None and v.witness is None) or np.array_equal(w.coords, v.witness.coords)


@pytest.mark.parametrize("m, n, r, t, trials, tol, shapes", [
    (6, 6, 12, 3, 30, TOL, {(6, 6, 12)}), (4, 4, 4, 2, 200, TOL, {(4, 4, 4)}),
    # a coarser rank cut leaves some trials' pencils with blocks of rank 3
    (4, 4, 4, 2, 200, ToleranceConfig(rank_rel_tol=1e-3), {(4, 4, 4), (4, 4, 3)})],
    ids=["6-6-12-3-30", "4-4-4-2-200", "4-4-4-2-200-coarse-cut"])
def test_genericity_batches_keep_within_the_byte_budget(m, n, r, t, trials, tol, shapes,
                                                        monkeypatch):
    config = replace(CONFIG, starts=24)  # enough rows for more than one batch
    batches = []
    descend = loci._descend
    monkeypatch.setattr(loci, "_descend", lambda *args: batches.append(
        (len(args[1]), args[0].shape[-3:])) or descend(*args))
    monte_carlo_genericity(GenericityQuery(m, n, r, t, trials, seed=1), config, tol)
    assert len(batches) > 1 and sum(rows for rows, _ in batches) == trials * config.starts
    assert {shape for _, shape in batches} == shapes
    for rows, shape in batches:  # one block shape a batch, within the budget for it
        assert rows * loci._row_bytes(shape, t) <= loci._BATCH_BYTES
