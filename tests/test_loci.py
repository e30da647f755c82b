from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixloci import (BipartiteShape, GenericityQuery, ParameterOutOfRange, ShapeMismatch,
                     ToleranceConfig, check_component_necessary, density_from_ensemble,
                     eigen_ensemble, hermitian_form, in_locus, is_locus_empty, locus_zero,
                     make_ensemble, make_pure, mix, monte_carlo_genericity, numerical_rank,
                     pencil_from_ensemble, random_density, rank_at, sample_locus,
                     spectral_pencil)
from mixloci import loci
from mixloci.loci import InvalidK, LinearLocus, Pencil, ProjectivePoint, SearchConfig, _descend

from conftest import (FIXTURES, assert_pencil_matches_paper, load_fixture,
                      paper_pencil_example2_component, paper_pencil_example2_target,
                      paper_pencil_example3, paper_pencil_example4, random_unitary)

TOL = ToleranceConfig()
CONFIG = SearchConfig(starts=24, seed=0)


def pencil_of(name, side="A"):
    return pencil_from_ensemble(load_fixture(name).ensemble, side)


def point(*coords):
    return ProjectivePoint.of(np.asarray(coords, dtype=complex))


def test_projective_point_canonical_form():
    p = ProjectivePoint.of([1j, -2j])
    assert np.linalg.norm(p.coords) == pytest.approx(1.0)
    pivot = np.argmax(np.abs(p.coords))
    assert p.coords[pivot].imag == pytest.approx(0.0, abs=1e-15)
    assert p.coords[pivot].real > 0
    assert p.same_point(ProjectivePoint.of([-3j, 6j]))
    assert not p.same_point(point(1, 0))
    for raw in ([0, 0], [0j], np.zeros((1, 3))):
        with pytest.raises(ValueError):
            ProjectivePoint.of(raw)
    with pytest.raises(ValueError):  # one zero row among others
        LinearLocus(np.array([[1, 0], [2j, 0]])).points()


def scalar_canonical(raw):
    """The canonical form one point at a time, as ProjectivePoint.of computed
    it before the batched form: the reference the batched form must match."""
    v = np.asarray(raw, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm < 1e-300:
        raise ValueError("projective point cannot be the zero vector")
    v = v / norm
    moduli = np.abs(v)
    pivot = int(np.argmax(moduli > moduli.max() - 1e-14))
    phase = v[pivot] / abs(v[pivot])
    return v * phase.conjugate()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.sampled_from([1, 2, 65, 130]), st.sampled_from([1e-3, 1.0, 1e5]),
       st.integers(0, 2 ** 32 - 1))
def test_batched_canonical_form_equals_the_scalar_one(d, count, scale, seed):
    rng = np.random.default_rng(seed)
    V = scale * (rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d)))
    V[rng.uniform(size=V.shape) < 0.25] = 0  # zero coordinates
    for row in V[rng.uniform(size=count) < 0.5]:
        # modulus ties: coordinates turned by exact quarter turns and reflections
        i, j = rng.integers(d, size=2)
        row[j] = row[i] * rng.choice([1, -1, 1j, -1j])
        if rng.uniform() < 0.5:
            row[rng.integers(d)] = np.conj(row[i])
    V[np.abs(V).max(axis=1) == 0, rng.integers(d)] = scale  # no zero rows
    expected = np.array([scalar_canonical(v) for v in V])
    # bit for bit, signed zeros included
    same = lambda A: np.array_equal(np.asarray(A).view(np.int64), expected.view(np.int64))
    assert same(loci._canonical(V))
    assert same([ProjectivePoint.of(v).coords for v in V])
    assert same([q.coords for q in LinearLocus(np.ascontiguousarray(V.T)).points()])


def test_pencil_single_member():
    e = make_ensemble(BipartiteShape(2, 2), [(1.0, make_pure([1, 0, 0, 0], BipartiteShape(2, 2)))])
    p = pencil_from_ensemble(e, "A")
    np.testing.assert_allclose(p.blocks[0], [[1], [0]])
    np.testing.assert_allclose(p.blocks[1], [[0], [0]])


def test_pencil_matches_paper_matrices():
    assert_pencil_matches_paper(pencil_of("example2_target.json"),
                                paper_pencil_example2_target, 3)
    assert_pencil_matches_paper(pencil_of("example3.json"), paper_pencil_example3, 3)
    assert_pencil_matches_paper(pencil_of("example4.json"), paper_pencil_example4, 4)


def test_component_pencil_matches_cyclic_matrix_up_to_column_order():
    # the component state's three members give the cyclic matrix's columns,
    # in a permuted order; compare rank behaviour instead of raw layout
    p = pencil_of("example2_component.json")
    rng = np.random.default_rng(1)
    for _ in range(10):
        r = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ours = p.evaluate(r)
        ref = paper_pencil_example2_component(r)
        assert numerical_rank(ours, TOL) == numerical_rank(ref, TOL)


def test_hermitian_form_projector():
    e = make_ensemble(BipartiteShape(2, 2), [(1.0, make_pure([1, 0, 0, 0], BipartiteShape(2, 2)))])
    rho = density_from_ensemble(e)
    F = hermitian_form(rho, point(1, 0), "A")
    np.testing.assert_allclose(F, [[1, 0], [0, 0]], atol=1e-14)


def test_hermitian_form_example1_vanishes():
    rho = load_fixture("example1.json").density
    F = hermitian_form(rho, point(1, -1), "A")
    assert np.linalg.norm(F) < 1e-12


def test_hermitian_form_is_psd():
    rng = np.random.default_rng(6)
    rho = random_density(BipartiteShape(3, 3), 5, seed=8)
    for side, dim in (("A", 3), ("B", 3)):
        r = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        F = hermitian_form(rho, ProjectivePoint.of(r), side)
        assert np.linalg.norm(F - F.conj().T) < 1e-12
        assert np.linalg.eigvalsh(F).min() > -1e-12


def test_hermitian_form_dimension_mismatch():
    rho = load_fixture("example3.json").density
    with pytest.raises(ShapeMismatch):
        hermitian_form(rho, point(1, 0), "A")


def test_rank_at_examples():
    target = pencil_of("example2_target.json")
    component = pencil_of("example2_component.json")
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert rank_at(target, ProjectivePoint.of([0, z[0], z[1]]), TOL) <= 2
    assert rank_at(component, point(0, 1, 1), TOL) == 3
    e1 = np.eye(target.ambient_dim)[0]
    assert rank_at(target, ProjectivePoint.of(e1), TOL) == numerical_rank(target.blocks[0], TOL)


def test_in_locus_example3():
    p = pencil_of("example3.json")
    assert in_locus(p, 0, point(0, 1, -1), TOL)
    assert not in_locus(p, 0, point(1, 0, 0), TOL)
    assert in_locus(p, p.max_rank_bound(), point(1, 0, 0), TOL)
    with pytest.raises(InvalidK):
        in_locus(p, -1, point(1, 0, 0), TOL)


def test_locus_zero_example1():
    locus = locus_zero(pencil_of("example1.json"), TOL)
    assert locus.projective_dimension == 0
    assert locus.points()[0].same_point(point(1, -1))


def test_locus_zero_example3():
    locus = locus_zero(pencil_of("example3.json"), TOL)
    assert locus.projective_dimension == 0
    assert locus.points()[0].same_point(point(0, 1, -1))


def test_locus_zero_bell_empty():
    locus = locus_zero(pencil_of("bell.json"), TOL)
    assert locus.is_empty
    assert locus.projective_dimension == -1


def shared_annihilator_pencil(seed=6):
    """Side-A pencil of a generic rank-3 3x3 state whose three members all have
    r0 as left annihilator, so V_A^0 = {r0}; r0 is returned too.  Unlike the
    fixtures' entries, these do not sum exactly in any order."""
    rng = np.random.default_rng(seed)
    r0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    P = np.eye(3) - np.outer(r0.conj(), r0) / np.vdot(r0, r0)  # r0^T P = 0
    shape = BipartiteShape(3, 3)
    members = [(w, make_pure(P @ (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))),
                             shape)) for w in (0.5, 0.3, 0.2)]
    rho = density_from_ensemble(make_ensemble(shape, members))
    return pencil_from_ensemble(eigen_ensemble(rho, TOL), "A"), ProjectivePoint.of(r0)


def test_locus_zero_generic_shared_annihilator():
    p, r0 = shared_annihilator_pencil()
    locus = locus_zero(p, TOL)
    assert locus.projective_dimension == 0
    assert locus.points()[0].same_point(r0)
    assert locus.basis.shape[1] == p.ambient_dim - numerical_rank(p.stacked(), TOL)


def test_rank_at_generic_shared_annihilator():
    p, r0 = shared_annihilator_pencil()
    assert rank_at(p, r0, TOL) == 0 and in_locus(p, 0, r0, TOL)
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = ProjectivePoint.of(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert rank_at(p, z, TOL) == 3 == numerical_rank(p.evaluate(z.coords), TOL)


def test_search_config_rejects_no_starts():
    for starts in (0, -1, 4097):  # above 4096 the draws alone would be large
        with pytest.raises(ParameterOutOfRange):
            SearchConfig(starts=starts)
    assert SearchConfig(starts=4096).starts == 4096


def test_search_config_rejects_negative_seed():
    with pytest.raises(ParameterOutOfRange):
        SearchConfig(seed=-1)


def test_sample_locus_example4_line():
    p = pencil_of("example4.json")
    sample = sample_locus(p, 2, CONFIG, TOL)
    assert sample.points
    for pt, res in zip(sample.points, sample.residuals):
        assert in_locus(p, 2, pt, TOL)
        assert res <= TOL.threshold(p.evaluate(pt.coords))
    on_line = [pt for pt in sample.points
               if abs(pt.coords[0]) <= 1e-6 and abs(pt.coords[1]) <= 1e-6]
    assert on_line


def test_sample_locus_example2_line():
    p = pencil_of("example2_target.json")
    sample = sample_locus(p, 2, CONFIG, TOL)
    assert any(abs(pt.coords[0]) <= 1e-6 for pt in sample.points)


def generic_pencil():
    # the fixture pencils hold few nonzero, simple entries, whose sums are exact
    # in any order; this one shows a summation order that depends on the batch
    rho = random_density(BipartiteShape(3, 3), 4, seed=[1, 4])
    return pencil_from_ensemble(eigen_ensemble(rho, TOL), "A")


def empty_locus_pencil():
    # a generic rank-4 4x4 state has an empty rank-2 locus (acceptance criterion
    # 8), so every start runs until its stopping rule gives up
    rho = random_density(BipartiteShape(4, 4), 4, seed=[8, 0])
    return pencil_from_ensemble(eigen_ensemble(rho, TOL), "A")


def tall_pencil():
    # side A of a rank-3 4x4 state: 4x3 blocks, more rows than columns
    rho = random_density(BipartiteShape(4, 4), 3, seed=[2, 7])
    return pencil_from_ensemble(eigen_ensemble(rho, TOL), "A")


def drawn_starts(p, config):
    """The starts sample_locus draws for config."""
    draws = np.random.default_rng(config.seed).standard_normal((config.starts, 2, p.ambient_dim))
    return draws[:, 0] + 1j * draws[:, 1]


def descend(p, k, R0, config):
    """The search kernel on one search of pencil p, each row of R0 a start."""
    return _descend(p.blocks[None], np.zeros(len(R0), dtype=int), k, R0, config, TOL)


@pytest.mark.parametrize("name", ["example2_target.json", "example4.json", "generic", "empty",
                                  "tall"])
def test_search_kernel_has_no_width_dependence(name, monkeypatch):
    p = {"generic": generic_pencil, "empty": empty_locus_pencil,
         "tall": tall_pencil}.get(name, lambda: pencil_of(name))()
    config = SearchConfig(starts=24, seed=3)
    R0 = drawn_starts(p, config)
    r, f, reason, rounds = descend(p, 2, R0, config)
    hit = reason == "hit"
    if name == "empty":
        assert not hit.any() and "stalled" in reason
    else:
        assert hit.any()
    for i in range(24):
        r_i, f_i, reason_i, rounds_i = descend(p, 2, R0[i:i + 1], config)
        assert np.array_equal(r_i[0], r[i]) and f_i[0] == f[i]
        assert (reason_i[0], rounds_i[0]) == (reason[i], rounds[i])

    # with stop_at_first the run ends at the first hit, or at the last start;
    # the starts after it are dropped
    first = int(np.argmax(hit)) if hit.any() else 23
    config = replace(config, stop_at_first=True)
    r_s, f_s, reason_s, rounds_s = descend(p, 2, R0, config)
    ran = reason_s != ""
    assert np.array_equal(ran, np.arange(24) <= first) and not rounds_s[~ran].any()
    assert np.array_equal(r_s[ran], r[:first + 1]) and np.array_equal(f_s[ran], f[:first + 1])
    assert np.array_equal(reason_s[ran], reason[:first + 1])

    calls = []
    monkeypatch.setattr(loci, "_descend", lambda *args: calls.append(1) or _descend(*args))
    sample = sample_locus(p, 2, config, TOL)
    assert len(calls) == 1  # one batch over all starts, hit or miss
    if hit.any():
        assert len(sample.points) == 1
        assert np.array_equal(sample.points[0].coords, ProjectivePoint.of(r[first]).coords)
        assert sample.residuals == (f[first],)
    else:
        assert sample.points == () and sample.min_residual_seen == f.min()
    ran = reason[:first + 1].tolist()
    counts = {x: ran.count(x) for x in ("hit", "stalled", "max_iter")}
    assert sum(counts.values()) == first + 1
    # the batch lasts as long as its longest-running start up to the first hit
    assert sample.search_stats == {"starts": 24, "converged": first + 1 - counts["max_iter"],
                                   "rounds": rounds[:first + 1].max(), **counts}


@pytest.mark.parametrize("name, max_iter", [("example4.json", None), ("example2_target.json", None),
                                            ("empty", None), ("empty", 6)])
def test_no_start_takes_a_step_in_the_round_it_stops(name, max_iter, monkeypatch):
    p = empty_locus_pencil() if name == "empty" else pencil_of(name)
    if max_iter:
        monkeypatch.setattr(loci, "_MAX_ITER", max_iter)
    stepped, stalls = [], []
    step = loci._gauss_newton_step

    def counted(J, tail, j, r):
        dr, stalled = step(J, tail, j, r)
        stepped.append(len(r))
        stalls.append(int(stalled.sum()))
        return dr, stalled

    monkeypatch.setattr(loci, "_gauss_newton_step", counted)
    config = SearchConfig(starts=24, seed=3)
    _, _, reason, rounds = descend(p, 2, drawn_starts(p, config), config)
    # a start steps in every round it runs but its last, and in its last only
    # when the step itself stalls: a start stopped by polishing or by
    # _MAX_ITER takes no step in that round
    quiet = 24 - sum(stalls)  # polished and _MAX_ITER stops
    assert sum(stepped) == rounds.sum() - quiet
    if name == "empty":
        assert quiet == np.count_nonzero(reason == "max_iter")
        assert (quiet > 0) == bool(max_iter)
    else:
        assert np.count_nonzero(reason == "hit") >= quiet > 0


def pairwise_points(r, f):
    """The hit reduction written as one same_point test per pair: each hit
    against the points kept before it, then sorted by the report key and cut
    at 64 points."""
    def sort_key(q):
        rounded = np.round(q.coords, 6)
        return (tuple(np.round(np.abs(q.coords), 6)),
                tuple(x for c in rounded for x in (c.real, c.imag)))
    found = []
    for coords, residual in zip(r, f):
        candidate = ProjectivePoint(scalar_canonical(coords))
        if not any(candidate.same_point(q) for q, _ in found):
            found.append((candidate, residual))
    found.sort(key=lambda item: sort_key(item[0]))
    return found[:64]


def near(v, w, gap):
    """The unit vector on the great circle from v towards w with 1 - |<v, .>| = gap."""
    w = w - np.vdot(v, w) * v
    angle = np.arccos(1.0 - gap)
    return np.cos(angle) * v + np.sin(angle) * w / np.linalg.norm(w)


def reduce_hits(monkeypatch, hits, f, reason):
    """sample_locus's points and residuals when its one _descend batch ends at hits."""
    calls = []
    rounds = np.ones(len(hits), dtype=int)
    monkeypatch.setattr(loci, "_descend", lambda *args: calls.append(1) or (hits, f, reason, rounds))
    sample = sample_locus(empty_locus_pencil(), 1, SearchConfig(starts=len(hits), seed=0), TOL)
    assert len(calls) == 1
    return sample


def test_hit_reduction_matches_the_pairwise_rule(monkeypatch):
    rng = np.random.default_rng(7)
    unit = lambda x: x / np.linalg.norm(x)
    bases = [unit(rng.standard_normal(4) + 1j * rng.standard_normal(4)) for _ in range(90)]
    bases[:4] = [unit(np.array(c, dtype=complex)) for c in ([0, 1, 0, 0], [0, 0, 1j, 0],
                                                            [0, 1, 1, 0], [1, 1e-7, 0, 0])]
    hits = list(bases)
    for i, v in enumerate(bases[:40]):
        w = bases[i + 40]
        hits += [v.copy(), np.exp(0.7j * i) * v, 3.0 * v,  # exact and rotated duplicates
                 near(v, w, 0.5e-9), near(v, w, 0.999e-9),  # inside _POINT_TOL
                 near(v, w, 1.001e-9), np.exp(-1j) * near(v, w, 2e-9)]  # outside it
    hits = np.array(hits)
    hits = hits[rng.permutation(len(hits))]  # > 256 hits: more than one block of the reduction
    f = rng.uniform(0, 1e-10, len(hits))
    hit = rng.uniform(size=len(hits)) < 0.9
    for count in (0, 1, 2, 30, hit.sum()):
        rows = np.flatnonzero(hit)[:count]
        sample = reduce_hits(monkeypatch, hits, f, np.where(np.isin(np.arange(len(hits)), rows),
                                                            "hit", "stalled"))
        expected = pairwise_points(hits[rows], f[rows])
        assert len(sample.points) == len(expected)
        for pt, res, (q, res_q) in zip(sample.points, sample.residuals, expected):
            assert np.array_equal(pt.coords, q.coords) and res == res_q
    assert len(expected) == 64  # of the more than 64 points of all hits

    # just inside and just outside _POINT_TOL of the first hit, and a chain
    # whose middle is the same point as both ends while the ends differ
    v, w = bases[4], bases[5]
    for gaps, kept in [((0.0, 0.999e-9, 1.001e-9), [0, 2]), ((0.0, 0.8e-9, 3.2e-9), [0, 2]),
                       ((0.8e-9, 0.0, 3.2e-9), [0])]:
        hits = np.array([near(v, w, gap) for gap in gaps])
        f = np.array([1e-12, 2e-12, 3e-12])
        sample = reduce_hits(monkeypatch, hits, f, np.array(["hit"] * 3))
        assert sorted(sample.residuals) == f[kept].tolist()
        assert [q.coords.tolist() for q in sample.points] == \
            [q.coords.tolist() for q, _ in pairwise_points(hits, f)]


def assert_same_sample(sample, reference):
    """Bit-equal samples: points, residuals, search_stats and min_residual_seen."""
    assert [q.coords.tolist() for q in sample.points] == \
        [q.coords.tolist() for q in reference.points]
    assert sample.residuals == reference.residuals and sample.trivial == reference.trivial
    assert sample.search_stats == reference.search_stats
    assert sample.min_residual_seen == reference.min_residual_seen


def test_searches_batched_together_equal_searches_alone(monkeypatch):
    # pencils of three block shapes, two trivial ones (rank 2 < k + 1, and
    # zero), with and without stop_at_first
    S33 = BipartiteShape(3, 3)
    pencils = [pencil_from_ensemble(eigen_ensemble(random_density(S33, r, seed=[4, i]), TOL), "A")
               for i, r in enumerate((3, 4, 3, 2, 4, 3))]
    pencils += [pencil_of("example4.json"), Pencil(np.zeros((3, 3, 3), dtype=complex))]
    rows = []
    monkeypatch.setattr(loci, "_descend", lambda *args: rows.append(len(args[1])) or _descend(*args))
    for stop_at_first in (False, True):
        config = SearchConfig(starts=16, seed=0, stop_at_first=stop_at_first)
        rows.clear()
        batched = loci._sample_loci(pencils, 2, config, TOL)
        assert rows == [48, 32, 16]  # one batch per block shape: rank 3, rank 4, example4
        for i, (p, sample) in enumerate(zip(pencils, batched)):
            assert_same_sample(sample, sample_locus(p, 2, replace(config, seed=i), TOL))
        assert batched[3].trivial and batched[7].trivial
        assert any(len(s.points) > 1 for s in batched) != stop_at_first


def cut_at_first_hit(p, k, config):
    """The stop_at_first reference: every start of config run to its own stop,
    then the starts after the lowest-index hit dropped, with reason "" and 0
    rounds.  Also whether some start still ran when a later start hit."""
    R0 = drawn_starts(p, config)
    r, f, reason, rounds = descend(p, k, R0, replace(config, stop_at_first=False))
    hits = np.flatnonzero(reason == "hit")
    interleaved = any(rounds[:h].max(initial=0) > rounds[h] for h in hits)
    if hits.size:
        reason[hits[0] + 1:], rounds[hits[0] + 1:] = "", 0
    return loci._sample(r, f, reason, rounds, config.starts), interleaved


def test_stop_at_first_drops_the_starts_after_the_lowest_hit():
    # batched stop_at_first searches equal the rule applied after every start
    # ran to its stop, on pencils with and without hits
    cases = [(genericity_pencil(m, r, trial), k)
             for m, r, k in ((3, 3, 2), (3, 4, 1), (4, 4, 2), (4, 5, 2)) for trial in (0, 1)]
    cases += [(pencil_of("example4.json"), k) for k in (1, 2)]
    interleaved = 0
    for starts in (1, 5, 16):
        for seed in (0, 7):
            config = SearchConfig(starts=starts, seed=seed, stop_at_first=True)
            for k in (1, 2):
                pencils = [p for p, kk in cases if kk == k]
                samples = loci._sample_loci(pencils, k, config, TOL)
                for i, (p, sample) in enumerate(zip(pencils, samples)):
                    reference, late = cut_at_first_hit(p, k, replace(config, seed=seed + i))
                    assert_same_sample(sample, reference)
                    interleaved += late
    assert interleaved  # some start ran on after a later start hit


def test_a_stream_of_pencils_is_read_once(monkeypatch):
    # a one-shot generator of pencils of two block shapes, a trivial one
    # (rank 2 <= k) and a zero one, with two rank-3 searches a batch: the
    # samples and verdicts the same pencils give as a list
    S33 = BipartiteShape(3, 3)
    pencils = [pencil_from_ensemble(eigen_ensemble(random_density(S33, r, seed=[6, i]), TOL), "A")
               for i, r in enumerate((3, 4, 2, 3, 3))]
    pencils.append(Pencil(np.zeros((3, 3, 3), dtype=complex)))
    config = SearchConfig(starts=8, seed=1, stop_at_first=True)
    monkeypatch.setattr(loci, "_BATCH_BYTES", 2 * 8 * loci._row_bytes((3, 3, 3), 2))
    listed = loci._sample_loci(pencils, 2, config, TOL)
    rows = []
    monkeypatch.setattr(loci, "_descend", lambda *args: rows.append(len(args[1])) or _descend(*args))
    streamed = loci._sample_loci((p for p in pencils), 2, config, TOL)
    assert rows == [8, 16, 8]  # the rank-4 search alone, the first two rank-3 ones, the last
    assert len(streamed) == len(pencils) and streamed[2].trivial and streamed[5].trivial
    for sample, reference in zip(streamed, listed):
        assert_same_sample(sample, reference)
    for k in (0, 2):
        streamed = loci._loci_empty((p for p in pencils), k, config, TOL)
        listed = loci._loci_empty(pencils, k, config, TOL)
        assert len(streamed) == len(pencils)
        for verdict, reference in zip(streamed, listed):
            assert verdict.status == reference.status
            assert verdict.min_residual == reference.min_residual
            assert (verdict.witness is None and reference.witness is None) or \
                np.array_equal(verdict.witness.coords, reference.witness.coords)
    assert listed[2].witness.coords.tolist() == [1, 0, 0]  # e_0 on the trivial loci
    for m, r in ((3, 3), (4, 4)):  # some hits and none
        report = monte_carlo_genericity(GenericityQuery(m, m, r, 2, 4, seed=3), config, TOL)
        assert len(report.min_residuals) == len(report.witnesses) == 4
        assert set(report.residual_summary) == {"min", "median", "max"}


def kernel_peak(pencils, k, config):
    """Bytes _sample_loci(pencils, k, config) holds at its peak, as tracemalloc
    counts numpy's arrays."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loci._sample_loci(pencils, k, config, TOL)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m, r, t", [(6, 12, 3), (4, 4, 2), (3, 3, 2), (5, 9, 2), (3, 2, 1)])
def test_a_batch_of_searches_takes_the_memory_of_one_search(m, r, t):
    # 32 genericity searches of 16 starts in one batch, each search's blocks
    # held once: within the byte model, and about the peak of one search of
    # as many starts on one pencil
    row_bytes = loci._row_bytes((m, m, r), t)
    pencils = [genericity_pencil(m, r, trial) for trial in range(32)]
    batch = kernel_peak(pencils, t, SearchConfig(starts=16))
    if (m, r, t) == (3, 2, 1):
        # rows so small that numpy's fixed buffers outweigh 512 of them: the
        # model bounds the cost of each row added, from 512 to 2048 rows
        pencils += [genericity_pencil(m, r, trial) for trial in range(32, 128)]
        assert kernel_peak(pencils, t, SearchConfig(starts=16)) - batch <= 1536 * row_bytes
    else:
        assert batch <= 512 * row_bytes
    if (m, r, t) == (6, 12, 3):
        assert batch <= 1.1 * kernel_peak(pencils[:1], t, SearchConfig(starts=512))


def test_row_sum_adds_left_to_right_as_an_accumulate_does():
    # the accumulate's last entry is the reference: the same additions in the
    # same order, bit for bit, and x is left as it was
    rng = np.random.default_rng(7)
    for length in range(1, 61):
        scale = 10.0 ** rng.integers(-8, 9, size=(3, 5, length))
        real = rng.standard_normal((3, 5, length)) * scale
        for x in (real, real + 1j * rng.standard_normal((3, 5, length)) * scale):
            before = x.copy()
            total = loci._row_sum(x)
            assert total.dtype == x.dtype
            assert np.array_equal(total, np.add.accumulate(x, axis=-1)[..., -1])
            assert np.array_equal(x, before)


def test_stalled_starts_end_near_where_unstopped_ones_do(monkeypatch):
    # without the stall test every start of the empty locus runs _MAX_ITER rounds
    p = empty_locus_pencil()
    config = SearchConfig(starts=24, seed=3)
    R0 = drawn_starts(p, config)
    _, f, reason, _ = descend(p, 2, R0, config)
    monkeypatch.setattr(loci, "_STALL_RTOL", 0.0)
    _, f_ref, reason_ref, _ = descend(p, 2, R0, config)
    assert set(reason) == {"stalled"} and set(reason_ref) == {"max_iter"}
    assert np.all(f <= 1.01 * f_ref)
    assert f.min() == pytest.approx(f_ref.min(), rel=1e-4)


def test_no_start_of_an_empty_search_runs_out_of_rounds():
    # a pencil where judging the fall of the best f over a window of rounds
    # let 9 of these 32 starts run all _MAX_ITER rounds
    rho = random_density(BipartiteShape(3, 3), 4, seed=[99, 3, 3, 4, 1])
    p = pencil_from_ensemble(eigen_ensemble(rho, TOL), "A")
    stats = sample_locus(p, 1, SearchConfig(starts=32, seed=1), TOL).search_stats
    assert stats["hit"] == 0 and stats["max_iter"] == 0


def test_stall_rule_keeps_every_hit():
    # the hit counts of the rule without a stall test, at the CLI's defaults
    config = SearchConfig(starts=64, seed=0)
    assert len(sample_locus(pencil_of("example4.json"), 2, config, TOL).points) >= 46
    assert len(sample_locus(pencil_of("example2_target.json"), 2, config, TOL).points) >= 54
    verdict = check_component_necessary(load_fixture("example2_target.json").density,
                                        load_fixture("example2_component.json").density,
                                        "A", None, config, TOL)
    assert verdict.status == "INFEASIBLE"


def test_a_search_stops_at_once_where_sigma_cannot_move():
    # sigma_2 of example2_target's pencil is 1/sqrt(2) at every point, on both sides
    config = SearchConfig(starts=64, seed=0)
    for side in ("A", "B"):
        sample = sample_locus(pencil_of("example2_target.json", side), 1, config, TOL)
        assert sample.search_stats["rounds"] == 1 and sample.search_stats["stalled"] == 64
        assert sample.points == ()
        assert sample.min_residual_seen == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    # and sigma_2 of a 3x3 rank-8 pencil is 1 at every point
    rho = random_density(BipartiteShape(3, 3), 8, seed=[0, 0])
    stats = sample_locus(pencil_from_ensemble(eigen_ensemble(rho, TOL), "A"), 1, config,
                         TOL).search_stats
    assert stats["rounds"] == 1 and stats["stalled"] == 64


def dense_step(J, b, r, stationarity_test=True):
    """_gauss_newton_step as it read a dense b = vec(diag(s[k:])), the (S, m n)
    array it was given: the reference the step on the tail singular values
    must equal bit for bit.  Without stationarity_test, the step as it was
    before its stall test also stopped starts whose sigma_{k+1} no step can move."""
    Jr = loci._row_sum(J * r[:, None, :])
    JP = J - Jr[:, :, None] * r.conj()[:, None, :]
    W, sigma, Vh = np.linalg.svd(JP, full_matrices=False)
    kept = sigma > loci._RCOND * sigma[:, :1]
    c = np.where(kept, loci._row_sum(W.conj().swapaxes(-1, -2) * b[:, None, :]), 0.0)
    stalled = loci._row_norm(c) ** 2 < loci._STALL_RTOL * loci._row_norm(b) ** 2
    if stationarity_test:
        stalled |= loci._row_norm(np.ascontiguousarray(JP[:, 0])) <= loci._RCOND * sigma[:, 0]
    dr = -loci._row_sum(Vh.conj().swapaxes(-1, -2) * (c / np.where(kept, sigma, 1.0))[:, None, :])
    return dr, stalled


def dense_b(J, tail, j):
    b = np.zeros(J.shape[:2], dtype=complex)
    b[:, j] = tail
    return b


def step_without_stationarity_test(J, tail, j, r):
    return dense_step(J, dense_b(J, tail, j), r, stationarity_test=False)


@pytest.mark.parametrize("m, n, d", [(2, 5, 12), (5, 2, 12), (3, 4, 5), (1, 1, 3)],
                         ids=["m<n", "m>n", "q<mn", "1x1"])
def test_the_step_on_the_tail_equals_the_dense_b_step(m, n, d):
    rng = np.random.default_rng(m * 100 + n * 10 + d)
    S, j = 64, np.arange(min(m, n)) * (n + 1)  # b's nonzero entries
    J = rng.standard_normal((S, m * n, d)) + 1j * rng.standard_normal((S, m * n, d))
    J[:8, :, -1] = 0  # a lost column: where d <= m n, one more singular value to drop
    J[8:16] *= 10.0 ** rng.integers(-12, 6, size=(8, 1, 1))
    J[28:32, 0] = 0  # no step moves sigma_{k+1}
    J[32:36, j] = 0  # no step reaches b
    r = rng.standard_normal((S, d)) + 1j * rng.standard_normal((S, d))
    r /= np.linalg.norm(r, axis=1)[:, None]
    s = np.sort(np.abs(rng.standard_normal((S, min(m, n) + 1))), axis=1)[:, ::-1]
    s[16:24] *= 10.0 ** rng.integers(-16, 0, size=(8, 1))
    s[24:28, 1:] = 0  # exact locus points
    tail = s[:, 1:]  # a strided view, as _descend passes it when every start steps
    dr, stalled = loci._gauss_newton_step(J, tail, j, r)
    dr_ref, stalled_ref = dense_step(J, dense_b(J, tail, j), r)
    assert stalled[28:36].all() and not stalled[36:].any()
    assert np.array_equal(dr.view(np.int64), dr_ref.view(np.int64))
    assert np.array_equal(stalled, stalled_ref)


def running_sum(terms):
    """t_0 + t_1 + ... added left to right into t_0, one term at a time: the
    sums the kernel took before its loops and accumulates, which they must
    equal bit for bit."""
    terms = iter(terms)
    total = next(terms)
    for t in terms:
        total += t
    return total


def running_evaluate(blocks, coords):
    return running_sum(np.asarray(coords)[..., i, None, None] * blocks[i]
                       for i in range(len(blocks)))


def running_row_sum(x):
    return running_sum(x[..., i] if i else x[..., 0].copy() for i in range(x.shape[-1]))


def running_normal_map(stack, search, U, Vh, k):
    rows, cols = stack.shape[-2:]
    U0h = U[..., k:].conj().swapaxes(-1, -2)
    V0t = Vh[..., k:, :].conj()
    left = running_sum(U0h[:, None, :, None, j] * np.take(stack[:, :, None, j], search, axis=0)
                       for j in range(rows))
    J = running_sum(left[..., None, l] * V0t[:, None, None, :, l] for l in range(cols))
    return J.reshape(J.shape[0], J.shape[1], -1).swapaxes(-1, -2)


def running_step(J, tail, j, r):
    Jr = running_row_sum(J * r[:, None, :])
    JP = J - Jr[:, :, None] * r.conj()[:, None, :]
    W, sigma, Vh = np.linalg.svd(JP, full_matrices=False)
    kept = sigma > loci._RCOND * sigma[:, :1]
    c = np.where(kept, running_sum(W[:, x].conj() * tail[:, i, None]
                                   for i, x in enumerate(j)), 0.0)
    stalled = ((loci._row_norm(c) ** 2 < loci._STALL_RTOL * loci._row_norm(tail) ** 2)
               | (loci._row_norm(np.ascontiguousarray(JP[:, 0])) <= loci._RCOND * sigma[:, 0]))
    dr = -running_row_sum(Vh.conj().swapaxes(-1, -2) * (c / np.where(kept, sigma, 1.0))[:, None, :])
    return dr, stalled


RUNNING_KERNEL = {"_evaluate": running_evaluate, "_row_sum": running_row_sum,
                  "_normal_map": running_normal_map, "_gauss_newton_step": running_step}


# example2_target's normal rank is 3, so its V^3 is the whole space and no search runs there
@pytest.mark.parametrize("name, k", [("example4.json", 1), ("example4.json", 2), ("example4.json", 3),
                                     ("example2_target.json", 1), ("example2_target.json", 2),
                                     ("empty", 2), ("tall", 2)])
def test_the_kernel_equals_its_running_sum_reference(name, k, monkeypatch):
    # every start's point, f, reason and rounds, bit for bit, with the
    # reference's sums patched in, at the full round cap and at 6 rounds
    p = {"empty": empty_locus_pencil, "tall": tall_pencil}.get(name, lambda: pencil_of(name))()
    bits = lambda x: x.view(np.int64)
    for max_iter in (loci._MAX_ITER, 6):
        for starts in (1, 24):
            for stop_at_first in (False, True):
                config = SearchConfig(starts=starts, seed=3, stop_at_first=stop_at_first)
                R0 = drawn_starts(p, config)
                with monkeypatch.context() as patched:
                    patched.setattr(loci, "_MAX_ITER", max_iter)
                    r, f, reason, rounds = descend(p, k, R0, config)
                    for attr, reference in RUNNING_KERNEL.items():
                        patched.setattr(loci, attr, reference)
                    r_ref, f_ref, reason_ref, rounds_ref = descend(p, k, R0, config)
                assert np.array_equal(bits(r), bits(r_ref)) and np.array_equal(bits(f), bits(f_ref))
                assert np.array_equal(reason, reason_ref) and np.array_equal(rounds, rounds_ref)


def genericity_pencil(m, r, trial):
    """Trial `trial` of `genericity --m m --n m --r r` at seed 0."""
    rho = random_density(BipartiteShape(m, m), r, seed=[0, trial])
    return pencil_from_ensemble(eigen_ensemble(rho, TOL), "A")


def test_stationarity_test_leaves_every_search_that_can_move_alone(monkeypatch):
    cases = [(pencil_of("example4.json", side), k, 64) for side in ("A", "B") for k in (1, 2, 3)]
    cases += [(pencil_of("example3.json"), 2, 64), (pencil_of("example2_target.json"), 2, 64),
              (empty_locus_pencil(), 2, 16)]
    cases += [(genericity_pencil(m, r, trial), 2, 16)
              for m, r in ((4, 4), (3, 3)) for trial in (0, 1)]
    for p, k, starts in cases:
        config = SearchConfig(starts=starts, seed=3)
        R0 = drawn_starts(p, config)
        with monkeypatch.context() as patched:
            patched.setattr(loci, "_gauss_newton_step", step_without_stationarity_test)
            expected = descend(p, k, R0, config)
        for got, want in zip(descend(p, k, R0, config), expected):
            assert np.array_equal(got, want)


def test_search_hits_every_start_and_polishes_its_points():
    # the CLI's defaults; a point found at the rank threshold itself can fail a
    # recheck on another factor of rho, so each must lie 10x inside it
    config = SearchConfig(starts=64, seed=0)
    for name in ("example4.json", "example2_target.json"):
        p = pencil_of(name)
        sample = sample_locus(p, 2, config, TOL)
        assert sample.search_stats["hit"] == 64
        for pt in sample.points:
            M = p.evaluate(pt.coords)
            assert np.linalg.svd(M, compute_uv=False)[2] <= TOL.threshold(M) / 10
        if name == "example4.json":
            # the isolated point of the rank-2 locus, off the line r1 = r2 = 0
            assert any(pt.same_point(point(0, 1, 0, 0)) for pt in sample.points)


def test_sample_locus_trivial_k():
    p = pencil_of("bell.json")
    sample = sample_locus(p, p.max_rank_bound(), CONFIG, TOL)
    assert sample.trivial


def test_sample_locus_zero_pencil():
    blocks = np.zeros((2, 2, 2), dtype=complex)
    p = Pencil(blocks)
    sample = sample_locus(p, 1, CONFIG, TOL)
    assert sample.trivial
    assert rank_at(p, point(1, 0), TOL) == 0


def test_a_nested_list_pencil_reads_as_its_array():
    p = Pencil([[[1.0, 0.0]], [[0.0, 1.0]]])  # M(r) = (r_0, r_1)
    assert isinstance(p.blocks, np.ndarray) and p.blocks.shape == (2, 1, 2)
    assert locus_zero(p, TOL).is_empty and locus_zero(Pencil([[[1.0, 0.0]]]), TOL).is_empty
    assert rank_at(p, point(1, 1j), TOL) == 1
    sample = sample_locus(p, 0, CONFIG, TOL)
    assert not sample.trivial and sample.points == ()
    assert sample_locus(p, 1, CONFIG, TOL).trivial


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.data())
def test_normal_rank_finds_a_planted_rank(ambient, rows, cols, data):
    # blocks L_i R with R a fixed s x cols matrix: every M(r) has rank at most s,
    # and s at a generic point
    bound = min(rows, cols)
    s = data.draw(st.integers(0, bound - 1), label="s")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    L = rng.standard_normal((ambient, rows, s)) + 1j * rng.standard_normal((ambient, rows, s))
    R = rng.standard_normal((s, cols)) + 1j * rng.standard_normal((s, cols))
    p = Pencil(L @ R)
    assert loci.normal_rank(p, TOL) == s
    config = SearchConfig(starts=4, seed=0)
    for k in range(bound + 1):
        sample = sample_locus(p, k, config, TOL)
        assert sample.trivial == (k >= s)
        if sample.trivial:
            assert sample.points == () and sample.search_stats["starts"] == 0


def test_generic_points_are_drawn_once_per_ambient_dimension_and_read_only():
    for ambient in (1, 3, 4, 9):
        points = loci._generic_points(ambient)
        assert loci._generic_points(ambient) is points and not points.flags.writeable
        with pytest.raises(ValueError):
            points[0, 0] = 0
        # the points each call drew before they were kept
        assert np.array_equal(points, loci._canonical(loci._draw_starts(1009, 2, ambient)))
    # normal_rank's values on both sides of the fixtures, as each call's own draw gave them
    ranks = {"bell.json": [1, 1], "example1.json": [2, 1], "example2_component.json": [3, 3],
             "example2_target.json": [3, 3], "example3.json": [3, 2], "example4.json": [4, 4]}
    for name, expected in ranks.items():
        assert [loci.normal_rank(pencil_of(name, side), TOL) for side in "AB"] == expected


def test_a_pencil_whose_evaluation_could_overflow_is_refused():
    # at 1e308 M(r) overflowed to inf: its normal rank read 0 and every V^k the whole space
    for big in (1e308, np.nextafter(1e150, np.inf), 2e150j):
        with pytest.raises(ParameterOutOfRange):
            Pencil(np.full((2, 2, 2), big))
    for big in (1e150, -1e150j):  # the state-file cap itself
        p = Pencil(np.full((2, 2, 2), big))
        assert loci.normal_rank(p, TOL) == 1 and not sample_locus(p, 0, CONFIG, TOL).trivial


def test_is_locus_empty_bell():
    assert is_locus_empty(pencil_of("bell.json"), 0, CONFIG, TOL).status == "EMPTY_EXACT"


def test_is_locus_empty_example3_witness():
    verdict = is_locus_empty(pencil_of("example3.json"), 0, CONFIG, TOL)
    assert verdict.status == "NONEMPTY_WITNESS"
    assert verdict.witness.same_point(point(0, 1, -1))


def test_is_locus_empty_generic_cubic():
    # a 3x3 pencil over CP^2 always has det roots: rank<=2 locus is nonempty
    rho = random_density(BipartiteShape(3, 3), 3, seed=17)
    p = pencil_from_ensemble(eigen_ensemble(rho, TOL), "A")
    verdict = is_locus_empty(p, 2, CONFIG, TOL)
    assert verdict.status == "NONEMPTY_WITNESS"
    assert in_locus(p, 2, verdict.witness, TOL)


def test_rank_equivalence_form_vs_pencil():
    rng = np.random.default_rng(12)
    for shape in (BipartiteShape(2, 2), BipartiteShape(3, 3)):
        for trial in range(10):
            rho = random_density(shape, int(rng.integers(1, shape.dim + 1)),
                                 seed=[3, shape.m, trial])
            p = pencil_from_ensemble(eigen_ensemble(rho, TOL), "A")
            for _ in range(20):
                z = rng.standard_normal(shape.m) + 1j * rng.standard_normal(shape.m)
                pt = ProjectivePoint.of(z)
                assert numerical_rank(hermitian_form(rho, pt, "A"), TOL) == rank_at(p, pt, TOL)


def test_decomposition_independence():
    state = load_fixture("example2_target.json")
    p_file = pencil_from_ensemble(state.ensemble, "A")
    p_eigen = pencil_from_ensemble(eigen_ensemble(state.density, TOL), "A")
    rng = np.random.default_rng(13)
    for _ in range(50):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pt = ProjectivePoint.of(z)
        assert rank_at(p_file, pt, TOL) == rank_at(p_eigen, pt, TOL)


def test_spectral_pencil_is_the_spectral_ensembles_pencil_byte_for_byte():
    # bounds, check-mix and genericity read spectral_pencil where they read
    # pencil_from_ensemble(eigen_ensemble(...)): equal bytes keep their reports
    states = [(load_fixture(path.name).density, TOL) for path in sorted(FIXTURES.glob("*.json"))]
    states += [(random_density(BipartiteShape(m, n), r, seed=[21, m, r]), TOL)
               for m, n, r in ((2, 3, 6), (6, 6, 12), (16, 16, 256))]
    rank4 = random_density(BipartiteShape(3, 3), 4, seed=22)
    lam = rank4.eigenvalues()
    coarse = ToleranceConfig(abs_floor=(lam[2] + lam[3]) / 2)  # cuts lam[3]
    assert spectral_pencil(rank4, "A", coarse).block_shape == (3, 3)
    states.append((rank4, coarse))
    for rho, tol in states:
        for side in ("A", "B"):
            ours = spectral_pencil(rho, side, tol).blocks
            theirs = pencil_from_ensemble(eigen_ensemble(rho, tol), side).blocks
            assert ours.shape == theirs.shape and ours.flags.c_contiguous
            assert ours.tobytes() == theirs.tobytes()
    with pytest.raises(ValueError) as ours:
        spectral_pencil(rank4, "C", TOL)
    with pytest.raises(ValueError) as theirs:
        pencil_from_ensemble(eigen_ensemble(rank4, TOL), "C")
    assert str(ours.value) == str(theirs.value)


def test_column_scaling_invariance():
    state = load_fixture("example3.json")
    scaled_blocks = state.ensemble.amplitude_tensor().copy()
    rng = np.random.default_rng(14)
    scales = rng.standard_normal(scaled_blocks.shape[2]) \
        + 1j * rng.standard_normal(scaled_blocks.shape[2])
    scaled_blocks *= scales
    original = pencil_from_ensemble(state.ensemble, "A")
    scaled = Pencil(np.ascontiguousarray(scaled_blocks))
    for _ in range(50):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pt = ProjectivePoint.of(z)
        assert rank_at(original, pt, TOL) == rank_at(scaled, pt, TOL)


def test_local_unitary_covariance():
    rng = np.random.default_rng(15)
    shape = BipartiteShape(3, 3)
    for trial in range(10):
        rho = random_density(shape, int(rng.integers(1, 10)), seed=[7, trial])
        U = random_unitary(3, rng)
        V = random_unitary(3, rng)
        W = np.kron(U.conj(), V)
        from mixloci.states import density_matrix_from_array
        rotated = density_matrix_from_array(W @ rho.matrix @ W.conj().T, shape)
        for _ in range(10):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            phi = ProjectivePoint.of(z)
            back = ProjectivePoint.of(U.conj().T @ phi.coords)
            assert (numerical_rank(hermitian_form(rotated, phi, "A"), TOL)
                    == numerical_rank(hermitian_form(rho, back, "A"), TOL))


def test_locus_monotonic_in_k():
    p = pencil_of("example2_target.json")
    rng = np.random.default_rng(16)
    for _ in range(20):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pt = ProjectivePoint.of([0, z[1], z[2]])
        for k in range(p.max_rank_bound()):
            if in_locus(p, k, pt, TOL):
                assert in_locus(p, k + 1, pt, TOL)


def test_side_b_pencil():
    state = load_fixture("example1.json")
    locus = locus_zero(pencil_from_ensemble(state.ensemble, "B"), TOL)
    assert locus.is_empty
