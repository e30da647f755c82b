from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixloci import (BipartiteShape, GenericityQuery, ShapeMismatch, ToleranceConfig,
                     WeightSumInvalid, check_component_necessary, check_mixed_mix_eigen,
                     check_pure_mix_eigen, check_reduced_constraints, density_from_ensemble,
                     eigen_ensemble, excludes_max_schmidt_rank, forces_separable,
                     generic_empty_predicate, hermitian_form, majorizes, make_ensemble,
                     make_pure, mix, monte_carlo_genericity, pencil_from_ensemble,
                     random_density, schmidt_rank_cap)
from mixloci import is_locus_empty, loci, mixing
from mixloci.errors import InvalidK, ParameterOutOfRange
from mixloci.loci import SearchConfig, locus_zero, normal_rank, rank_at, spectral_pencil
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
        members = [(float(p), make_pure(rng.standard_normal(4) + 1j * rng.standard_normal(4),
                                        S22)) for p in probs]
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
        assert verdict.reason.startswith("no locus scan, target eigenvalue")


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


def reference_scan(target, component, side):
    """check_component_necessary's k=None scan over every k below the target
    pencil's block bound.  At k at or above the component pencil's normal rank
    it checks that every candidate lies in V^k(component), where no
    certificate exists."""
    target_pencil, component_pencil = (spectral_pencil(s, side, TOL) for s in (target, component))
    bound = normal_rank(component_pencil, TOL)
    for k in range(target_pencil.max_rank_bound()):
        for point in mixing._locus_candidates(target_pencil, k, CONFIG, TOL)[0]:
            if k >= bound:
                assert rank_at(component_pencil, point, TOL) <= k
                continue
            cert = mixing._certificate_at(point, target_pencil, component_pencil, side, k, TOL)
            if cert is not None:
                return "INFEASIBLE", cert
    return "NO_OBSTRUCTION_FOUND", None


def test_scan_stops_below_the_component_pencils_block_bound(monkeypatch):
    searched = []  # the k of every sample_locus call
    sample_locus = mixing.sample_locus
    monkeypatch.setattr(mixing, "sample_locus",
                        lambda p, k, *args: searched.append(k) or sample_locus(p, k, *args))
    statuses = set()
    for shape in (S33, BipartiteShape(4, 4)):
        # target pencils of block bound 2, 3 and m: below, at and above the components'
        for target_rank in (2, 3, shape.m + 2):
            target = random_density(shape, target_rank, seed=[20, shape.m, target_rank])
            for rank in (1, 2, 3):
                component = random_density(shape, rank, seed=[21, shape.m, target_rank, rank])
                for side in ("A", "B"):
                    max_k = spectral_pencil(target, side, TOL).max_rank_bound()
                    bound = normal_rank(spectral_pencil(component, side, TOL), TOL)
                    searched.clear()
                    verdict = check_component_necessary(target, component, side, None,
                                                        CONFIG, TOL)
                    assert not verdict.range_test.contained
                    assert not verdict.reason.startswith("no locus scan")
                    assert searched == [k for k in verdict.stats if k > 0]
                    assert all(k < min(max_k, bound) for k in searched)
                    status, cert = reference_scan(target, component, side)
                    assert verdict.status == status
                    statuses.add(status)
                    if cert is not None:
                        mine = verdict.certificate
                        assert mine.witness.coords.tobytes() == cert.witness.coords.tobytes()
                        assert replace(mine, witness=None) == replace(cert, witness=None)
                    for k in range(bound, max_k):  # an explicit k the component reaches
                        searched.clear()
                        verdict = check_component_necessary(target, component, side, k,
                                                            CONFIG, TOL)
                        assert verdict.status == "NO_OBSTRUCTION_FOUND" and verdict.stats == {}
                        assert searched == [] and verdict.reason.startswith(
                            f"no locus scan, k={k} reaches the component pencil's normal "
                            f"rank {bound}")
    assert statuses == {"INFEASIBLE", "NO_OBSTRUCTION_FOUND"}


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


def annihilated_state(rng, shape, P, count, eps=0.0):
    """Equal mixture of `count` pure states whose m x n coefficient matrices
    are P G + eps H, G and H Gaussian: for eps = 0 every r with r^T P = 0
    annihilates each one from the left."""
    def gaussian():
        size = (shape.m, shape.n)
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)
    members = [(1.0 / count, make_pure(P @ gaussian() + eps * gaussian(), shape))
               for _ in range(count)]
    return density_from_ensemble(make_ensemble(shape, members))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(4, 3, 2), (5, 3, 2), (5, 4, 3)]),
       st.sampled_from(["random", "partly", "nearly"]))
def test_rank_zero_candidates_are_the_basis_points(seed, dims, kind):
    # targets whose members share `a` left annihilators, so V_A^0 has dimension
    # a - 1 >= 1, against components off it, on one point of it or close to it
    m, n, a = dims
    shape = BipartiteShape(m, n)
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((m, a)) + 1j * rng.standard_normal((m, a))
    Q = np.linalg.qr(R.conj())[0]  # R^T (I - Q Q^dagger) = 0
    target = annihilated_state(rng, shape, np.eye(m) - Q @ Q.conj().T, 3)
    if kind == "random":
        component = annihilated_state(rng, shape, np.eye(m), 2)
    elif kind == "partly":  # annihilated by R's first column alone
        q = Q[:, :1]
        component = annihilated_state(rng, shape, np.eye(m) - q @ q.conj().T, 2)
    else:
        component = annihilated_state(rng, shape, np.eye(m) - Q @ Q.conj().T, 2,
                                      eps=10.0 ** -rng.uniform(8, 13))
    # k = 0 draws nothing: the verdict is the same under any seed
    first, second = (check_component_necessary(target, component, "A", 0,
                                               SearchConfig(seed=s), TOL)
                     for s in (0, 1 + seed % 10**6))
    assert first.stats == second.stats == {0: {"mode": "exact", "dimension": a - 1}}
    assert first.status == second.status
    if first.status == "INFEASIBLE":
        witness = first.certificate.witness.coords
        assert np.array_equal(witness, second.certificate.witness.coords)
        basis = locus_zero(pencil_from_ensemble(eigen_ensemble(target, TOL), "A"), TOL).points()
        assert any(np.array_equal(witness, q.coords) for q in basis)


def test_schmidt_rank_cap_examples():
    assert schmidt_rank_cap(load_fixture("example1.json").density, TOL) == 1
    assert schmidt_rank_cap(load_fixture("example3.json").density, TOL) == 2
    assert schmidt_rank_cap(load_fixture("bell.json").density, TOL) == 2


def test_schmidt_rank_cap_bounds_eigen_ensemble_members():
    for name in ("example1.json", "example2_target.json", "example3.json"):
        rho = load_fixture(name).density
        cap = schmidt_rank_cap(rho, TOL)
        members = eigen_ensemble(rho, TOL).members
        assert max(numerical_rank(psi.coefficient_matrix(), TOL) for _, psi in members) <= cap


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


def test_generic_empty_predicate():
    assert generic_empty_predicate(GenericityQuery(4, 4, 4, 2, 0))
    assert not generic_empty_predicate(GenericityQuery(3, 3, 3, 2, 0))
    assert generic_empty_predicate(GenericityQuery(5, 5, 3, 0, 0))
    with pytest.raises(ParameterOutOfRange):
        generic_empty_predicate(GenericityQuery(3, 3, 2, 2, 0))
    with pytest.raises(ParameterOutOfRange):
        GenericityQuery(3, 3, 3, 2, 1, seed=-1)
    # side A's pencil is n x r: t runs below min(n, r), whatever m
    assert GenericityQuery(2, 4, 4, 2, 0).codimension == 4
    with pytest.raises(ParameterOutOfRange):
        GenericityQuery(4, 2, 4, 2, 0)


def test_genericity_query_caps_trials():
    # the cap bounds one request's run time; the memory does not grow with trials
    assert GenericityQuery(6, 6, 12, 3, 4096).trials == 4096
    for trials in (4097, -1):
        with pytest.raises(ParameterOutOfRange):
            GenericityQuery(6, 6, 12, 3, trials)


def genericity_peak(q, config):
    """Bytes monte_carlo_genericity(q, config) holds at its peak, as
    tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        monte_carlo_genericity(q, config, TOL)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("t", [0, 7])
def test_genericity_memory_is_flat_in_trials(t, monkeypatch):
    # the pencils are read as a stream, a batch holding two searches: 32
    # trials hold no more of them at once than 4 do (the first call's peak,
    # which counts one-time allocations, is not compared)
    m, r = 8, 64
    monkeypatch.setattr(loci, "_BATCH_BYTES", 2 * loci._row_bytes((m, m, r), t))
    config = SearchConfig(starts=1, seed=0, stop_at_first=True)
    peaks = [genericity_peak(GenericityQuery(m, m, r, t, trials), config) for trials in (4, 4, 32)]
    assert peaks[2] - peaks[1] <= 16 * m * m * r  # one pencil's bytes


def test_generic_empty_predicate_quadratic_identity():
    for m in range(1, 13):
        for r in range(1, 13):
            n = max(m, r)
            for t in range(0, min(n, r)):
                expected = t * t - (n + r) * t + n * r - m >= 0
                assert generic_empty_predicate(GenericityQuery(m, n, r, t, 0)) == expected


@pytest.mark.parametrize("m, n, r, t", [(3, 2, 3, 1), (4, 3, 4, 2), (5, 3, 3, 1), (3, 4, 4, 2),
                                        (2, 3, 3, 1)])
def test_generic_empty_predicate_agrees_with_the_trials_on_non_square_shapes(m, n, r, t):
    # the trials find the locus on every state or on none, as the predicate says
    report = monte_carlo_genericity(GenericityQuery(m, n, r, t, 20, seed=0),
                                    SearchConfig(starts=16, seed=0, stop_at_first=True), TOL)
    assert report.nonempty_fraction == (0.0 if report.predicate_holds else 1.0)


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
    (3, 3, 3, 2, 8, 1366, [8196, 2732]),  # 6 trials of 1366 rows of 1856 bytes fit 16 MiB
    # at 3712 bytes a row, 5 trials of 900 rows fit, and a sixth takes a second batch
    (4, 4, 4, 2, 5, 900, [4500]), (4, 4, 4, 2, 6, 900, [4500, 900])])
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
    (6, 6, 12, 3, 40, TOL, {(6, 6, 12)}), (4, 4, 4, 2, 200, TOL, {(4, 4, 4)}),
    # a coarser rank cut leaves some trials' pencils with blocks of rank 3
    (4, 4, 4, 2, 200, ToleranceConfig(rank_rel_tol=1e-3), {(4, 4, 4), (4, 4, 3)})],
    ids=["6-6-12-3-40", "4-4-4-2-200", "4-4-4-2-200-coarse-cut"])
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
