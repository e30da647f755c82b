"""Acceptance suite: one pass/fail line per criterion (run with -s to see them)."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from mixloci import (BipartiteShape, GenericityQuery, ToleranceConfig,
                     check_component_necessary, check_mixed_mix_eigen,
                     check_pure_mix_eigen, density_from_ensemble, eigen_ensemble,
                     excludes_max_schmidt_rank, forces_separable, hermitian_form,
                     in_locus, locus_zero, majorizes, make_ensemble, make_pure, mix,
                     monte_carlo_genericity, numerical_rank, pencil_from_ensemble,
                     random_density, rank_at, sample_locus, schmidt_rank_cap)
from mixloci.loci import ProjectivePoint, SearchConfig
from mixloci.states import density_matrix_from_array

from conftest import (assert_pencil_matches_paper, load_fixture,
                      paper_pencil_example2_target, paper_pencil_example3,
                      paper_pencil_example4, random_unitary)
from test_mixing import oracle_majorizes

TOL = ToleranceConfig()
S22 = BipartiteShape(2, 2)
S33 = BipartiteShape(3, 3)


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE {num:2d}] FAIL — {label}")
        raise
    print(f"[ACCEPTANCE {num:2d}] PASS — {label}")


def test_criterion_01_example1_golden():
    with criterion(1, "separable rank-2 state: rank-0 locus is the point (1:-1)"):
        state = load_fixture("example1.json")
        locus = locus_zero(pencil_from_ensemble(state.ensemble, "A"), TOL)
        assert locus.projective_dimension == 0
        expected = ProjectivePoint.of([1, -1])
        assert locus.points()[0].same_point(expected, tol=1e-9)
        assert schmidt_rank_cap(state.density, TOL) == 1
        assert forces_separable(state.density, TOL)


def test_criterion_02_example2_infeasibility():
    with criterion(2, "rank-4 target vs rank-3 component: certificate on the r1=0 line"):
        target = load_fixture("example2_target.json").density
        component = load_fixture("example2_component.json").density
        verdict = check_component_necessary(target, component, "A", 2,
                                            SearchConfig(starts=24, seed=0), TOL)
        assert verdict.status == "INFEASIBLE"
        cert = verdict.certificate
        assert abs(cert.witness.coords[0]) <= 1e-8
        assert cert.rank_in_component == 3
        comp_pencil = pencil_from_ensemble(eigen_ensemble(component, TOL), "A")
        comp_eval = comp_pencil.evaluate(cert.witness.coords)
        assert cert.residual_component >= 10 * TOL.threshold(comp_eval)


def test_criterion_03_example3_golden():
    with criterion(3, "rank-4 state: rank-0 locus is the point (0:1:-1), cap 2"):
        state = load_fixture("example3.json")
        locus = locus_zero(pencil_from_ensemble(state.ensemble, "A"), TOL)
        assert locus.projective_dimension == 0
        assert locus.points()[0].same_point(ProjectivePoint.of([0, 1, -1]), tol=1e-9)
        assert excludes_max_schmidt_rank(state.density, TOL)
        assert schmidt_rank_cap(state.density, TOL) == 2


def test_criterion_04_example4_line_in_locus():
    with criterion(4, "4x4 rank-5 state: the line r1=r2=0 lies in the rank-2 locus"):
        pencil = pencil_from_ensemble(load_fixture("example4.json").ensemble, "A")
        rng = np.random.default_rng(44)
        for _ in range(100):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pt = ProjectivePoint.of(np.array([0, 0, z[0], z[1]]))
            evaluated = pencil.evaluate(pt.coords)
            sigma3 = np.linalg.svd(evaluated, compute_uv=False)[2]
            assert sigma3 <= TOL.threshold(evaluated)
            assert in_locus(pencil, 2, pt, TOL)
        sample = sample_locus(pencil, 2, SearchConfig(starts=24, seed=0), TOL)
        assert any(abs(pt.coords[0]) <= 1e-6 and abs(pt.coords[1]) <= 1e-6
                   for pt in sample.points)


def test_criterion_05_pencil_fidelity():
    with criterion(5, "pencil evaluations match the printed matrices per column"):
        assert_pencil_matches_paper(
            pencil_from_ensemble(load_fixture("example2_target.json").ensemble, "A"),
            paper_pencil_example2_target, 3, npoints=20, atol=1e-10)
        assert_pencil_matches_paper(
            pencil_from_ensemble(load_fixture("example3.json").ensemble, "A"),
            paper_pencil_example3, 3, npoints=20, atol=1e-10)
        assert_pencil_matches_paper(
            pencil_from_ensemble(load_fixture("example4.json").ensemble, "A"),
            paper_pencil_example4, 4, npoints=20, atol=1e-10)


def test_criterion_06_true_components_never_rejected():
    with criterion(6, "locus containment holds for genuine mixtures; form/pencil ranks agree"):
        rng = np.random.default_rng(46)
        config = SearchConfig(starts=8, seed=46)
        for shape in (S22, S33):
            for trial in range(50):
                comps = [random_density(shape, int(rng.integers(1, shape.dim + 1)),
                                        seed=[46, shape.m, trial, j]) for j in range(2)]
                w = rng.dirichlet(np.ones(2))
                rho = mix(w, comps)
                for comp in comps:
                    verdict = check_component_necessary(rho, comp, "A", None, config, TOL)
                    assert verdict.status == "NO_OBSTRUCTION_FOUND"
                pencil = pencil_from_ensemble(eigen_ensemble(rho, TOL), "A")
                for _ in range(200):
                    z = rng.standard_normal(shape.m) + 1j * rng.standard_normal(shape.m)
                    pt = ProjectivePoint.of(z)
                    assert numerical_rank(hermitian_form(rho, pt, "A"), TOL) \
                        == rank_at(pencil, pt, TOL)


def test_criterion_07_majorization_suite():
    with criterion(7, "majorization agrees with the brute-force oracle; eigen checks behave"):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            r = rng.random(int(rng.integers(1, 7)))
            s = rng.random(int(rng.integers(1, 7)))
            assert majorizes(r, s) == oracle_majorizes(r, s)
        for trial in range(100):
            count = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(count))
            members = [(float(p), make_pure(rng.standard_normal(4)
                                            + 1j * rng.standard_normal(4), S22))
                       for p in probs]
            rho = density_from_ensemble(make_ensemble(S22, members))
            assert check_pure_mix_eigen(rho, probs)
        for trial in range(100):
            count = int(rng.integers(2, 4))
            comps = [random_density(S33, int(rng.integers(1, 6)), seed=[47, trial, j])
                     for j in range(count)]
            w = rng.dirichlet(np.ones(count))
            assert check_mixed_mix_eigen(mix(w, comps), w, comps)
        # hand-built counterexamples
        basis0 = density_from_ensemble(make_ensemble(S22, [(1.0, make_pure([1, 0, 0, 0], S22))]))
        basis1 = density_from_ensemble(make_ensemble(S22, [(1.0, make_pure([0, 1, 0, 0], S22))]))
        skew = mix([0.6, 0.4], [basis0, basis1])
        assert not check_pure_mix_eigen(skew, [0.8, 0.2])
        mm = load_fixture("maximally_mixed_2x2.json").density
        assert not check_mixed_mix_eigen(basis0, [1.0], [mm])


def test_criterion_08_genericity_monte_carlo():
    with criterion(8, "generic rank-4 states on 4x4 have empty rank-2 loci; 3x3 never do"):
        report = monte_carlo_genericity(
            GenericityQuery(4, 4, 4, 2, 200, seed=8),
            SearchConfig(starts=12, seed=8, stop_at_first=True), TOL)
        assert report.predicate_holds
        assert report.nonempty_fraction == 0.0
        # conservative bound: sigma_max of a unit-point evaluation is at most
        # sqrt(t) = 2, so every rank threshold is below 8e-8
        assert len(report.min_residuals) == 200
        assert min(report.min_residuals) > 10 * (1e-8 * 2 * 4)

        report = monte_carlo_genericity(
            GenericityQuery(3, 3, 3, 2, 200, seed=9),
            SearchConfig(starts=12, seed=9, stop_at_first=True), TOL)
        assert not report.predicate_holds
        assert report.nonempty_fraction == 1.0
        for trial, witness in enumerate(report.witnesses):
            assert witness is not None
            rho = random_density(S33, 3, seed=[9, trial])
            pencil = pencil_from_ensemble(eigen_ensemble(rho, TOL), "A")
            assert in_locus(pencil, 2, witness, TOL)


def test_criterion_09_local_unitary_covariance():
    with criterion(9, "measurement-form ranks transform covariantly under local unitaries"):
        rng = np.random.default_rng(49)
        for trial in range(50):
            rho = random_density(S33, int(rng.integers(1, 10)), seed=[49, trial])
            U = random_unitary(3, rng)
            V = random_unitary(3, rng)
            W = np.kron(U.conj(), V)
            rotated = density_matrix_from_array(W @ rho.matrix @ W.conj().T, S33)
            for _ in range(20):
                z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                phi = ProjectivePoint.of(z)
                back = ProjectivePoint.of(U.conj().T @ phi.coords)
                assert (numerical_rank(hermitian_form(rotated, phi, "A"), TOL)
                        == numerical_rank(hermitian_form(rho, back, "A"), TOL))


def _state_with_common_null(shape, rng):
    """Ensemble whose member coefficient matrices share a left annihilator."""
    direction = rng.standard_normal(shape.m) + 1j * rng.standard_normal(shape.m)
    count = int(rng.integers(1, 4))
    members = []
    for _ in range(count):
        G = rng.standard_normal((shape.m, shape.n)) + 1j * rng.standard_normal((shape.m, shape.n))
        G = G - np.outer(direction.conj(), direction @ G) / np.linalg.norm(direction) ** 2
        members.append((1.0, make_pure(G.ravel(), shape)))
    return density_from_ensemble(make_ensemble(shape, members)), direction


def test_criterion_10_exactness_cross_check():
    with criterion(10, "sampler agrees with the exact linear rank-0 locus"):
        rng = np.random.default_rng(50)
        config = SearchConfig(starts=12, seed=50)
        for trial in range(100):
            shape = S22 if trial % 2 == 0 else S33
            if trial < 50:
                rho = random_density(shape, int(rng.integers(1, shape.dim + 1)),
                                     seed=[50, trial])
            else:
                rho, _ = _state_with_common_null(shape, rng)
            pencil = pencil_from_ensemble(eigen_ensemble(rho, TOL), "A")
            locus = locus_zero(pencil, TOL)
            sample = sample_locus(pencil, 0, config, TOL)
            if locus.is_empty:
                assert not sample.points
            else:
                assert sample.points or sample.trivial
                for pt in locus.points():
                    assert in_locus(pencil, 0, pt, TOL)
                for pt in sample.points:
                    assert in_locus(pencil, 0, pt, TOL)
