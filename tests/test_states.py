from __future__ import annotations

import json

import numpy as np
import pytest

from mixloci import (BipartiteShape, NotHermitian, PureState, ShapeMismatch, ToleranceConfig,
                     WeightSumInvalid, ZeroVector, density_from_ensemble,
                     density_matrix_from_array, eigen_ensemble, make_ensemble, make_pure,
                     mix, numerical_rank, partial_trace, random_density)
from mixloci.errors import ParameterOutOfRange
from mixloci.io import StateFileError, load_state

from conftest import load_fixture

TOL = ToleranceConfig()
S22 = BipartiteShape(2, 2)
S33 = BipartiteShape(3, 3)


def bell(shape=S22):
    return make_pure([1, 0, 0, 1], shape)


def test_make_pure_basis_state():
    psi = make_pure([1, 0, 0, 0], S22)
    np.testing.assert_allclose(psi.amplitudes, [1, 0, 0, 0])


def test_make_pure_normalizes():
    psi = make_pure([1, 1, 1, 1], S22)
    np.testing.assert_allclose(psi.amplitudes, [0.5] * 4)


def test_make_pure_errors():
    with pytest.raises(ZeroVector):
        make_pure([0, 0], BipartiteShape(1, 2))
    with pytest.raises(ShapeMismatch):
        make_pure([1, 0, 0], S22)


def test_density_from_single_member():
    e = make_ensemble(S22, [(1.0, make_pure([1, 0, 0, 0], S22))])
    rho = density_from_ensemble(e)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)


def test_non_hermitian_matrix_raises_not_hermitian(tmp_path):
    matrix = np.eye(4, dtype=complex) / 4
    matrix[0, 1] = 0.1
    with pytest.raises(NotHermitian):
        density_matrix_from_array(matrix, S22)
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "matrix": [[v.real, v.imag]
                                                           for v in matrix.ravel()]}))
    with pytest.raises(StateFileError, match="not Hermitian"):
        load_state(path)


@pytest.mark.parametrize("diagonal, message", [
    ((0.6, 0.6), "density matrix trace differs from 1"),
    ((1.5, -0.5), "density matrix has negative eigenvalue -5.000e-01"),
], ids=["trace", "negative_eigenvalue"])
def test_invalid_density_matrix_file_is_a_state_file_error(tmp_path, diagonal, message):
    # density_matrix_from_array raises ParameterOutOfRange; load_state rewraps
    # it under the same message
    with pytest.raises(ParameterOutOfRange, match=f"^{message}$"):
        density_matrix_from_array(np.diag(diagonal), BipartiteShape(1, 2))
    path = tmp_path / "invalid.json"
    a, b = diagonal
    path.write_text(json.dumps({"m": 1, "n": 2, "normalize": False,
                                "matrix": [[a, 0], [0, 0], [0, 0], [b, 0]]}))
    with pytest.raises(StateFileError) as raised:
        load_state(path)
    assert str(raised.value) == message


def test_density_example1_entry():
    rho = load_fixture("example1.json").density
    assert rho.matrix[0, 0] == pytest.approx(3 / 8, abs=1e-12)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_eigen_ensemble_pure_projector():
    rho = density_from_ensemble(make_ensemble(S22, [(1.0, bell())]))
    e = eigen_ensemble(rho, TOL)
    assert len(e.members) == 1
    assert e.members[0][0] == pytest.approx(1.0, abs=1e-10)


def test_eigen_ensemble_maximally_mixed():
    rho = load_fixture("maximally_mixed_2x2.json").density
    e = eigen_ensemble(rho, TOL)
    assert len(e.members) == 4
    np.testing.assert_allclose(e.weights, [0.25] * 4, atol=1e-12)


def test_eigen_ensemble_example2_rank4():
    rho = load_fixture("example2_target.json").density
    assert len(eigen_ensemble(rho, TOL).members) == 4


def test_mix_identity_and_orthogonal():
    rho = density_from_ensemble(make_ensemble(S22, [(1.0, bell())]))
    same = mix([1.0], [rho])
    np.testing.assert_allclose(same.matrix, rho.matrix, atol=1e-14)
    p0 = density_from_ensemble(make_ensemble(S22, [(1.0, make_pure([1, 0, 0, 0], S22))]))
    p1 = density_from_ensemble(make_ensemble(S22, [(1.0, make_pure([0, 1, 0, 0], S22))]))
    mixed = mix([0.5, 0.5], [p0, p1])
    np.testing.assert_allclose(np.sort(mixed.eigenvalues())[::-1][:2], [0.5, 0.5], atol=1e-12)


def test_a_rank_cut_above_every_eigenvalue_is_refused():
    rho = random_density(S33, 3, seed=2)
    for tol in (ToleranceConfig(rank_rel_tol=0.5), ToleranceConfig(abs_floor=1.0)):
        with pytest.raises(ParameterOutOfRange, match="rank cut"):
            eigen_ensemble(rho, tol)
    # a cut just below the top eigenvalue keeps it
    lam = rho.eigenvalues()[0]
    assert len(eigen_ensemble(rho, ToleranceConfig(rank_rel_tol=0.99 / 9)).members) >= 1
    assert len(eigen_ensemble(rho, ToleranceConfig(abs_floor=0.99 * lam)).members) >= 1


def test_mix_reproduces_example1():
    state = load_fixture("example1.json")
    parts = [density_from_ensemble(make_ensemble(S22, [(1.0, psi)]))
             for _, psi in state.ensemble.members]
    rebuilt = mix([0.5, 0.5], [parts[0], parts[1]])
    np.testing.assert_allclose(rebuilt.matrix, state.density.matrix, atol=1e-12)


def test_mix_errors():
    rho = load_fixture("bell.json").density
    with pytest.raises(WeightSumInvalid, match=r"^weights sum to 1\.4, expected 1$"):
        mix([0.7, 0.7], [rho, rho])
    with pytest.raises(WeightSumInvalid, match="finite sum"):  # finite weights, infinite sum
        mix([1e308, 1e308], [rho, rho])
    with pytest.raises(WeightSumInvalid, match="finite sum"):
        make_ensemble(S22, [(1e308, bell()), (1e308, bell())])
    # one finite-positive rule; make_ensemble then rescales where mix rejects the sum
    for bad in (float("nan"), float("inf"), 0.0, -0.5):
        with pytest.raises(WeightSumInvalid):
            mix([bad, 0.5], [rho, rho])
        with pytest.raises(WeightSumInvalid):
            make_ensemble(S22, [(bad, bell()), (0.5, bell())])
    assert make_ensemble(S22, [(2.0, bell())]).weights.tolist() == [1.0]
    other = load_fixture("example3.json").density
    with pytest.raises(ShapeMismatch):
        mix([0.5, 0.5], [rho, other])


def test_bipartite_shape_caps_m_times_n(tmp_path):
    assert BipartiteShape(32, 32).dim == 1024
    for m, n in ((33, 32), (1, 1025)):
        with pytest.raises(ShapeMismatch):
            BipartiteShape(m, n)
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"m": 300, "n": 300, "matrix": [[1, 0]]}))
    with pytest.raises(StateFileError, match="1024"):
        load_state(path)


def test_partial_trace_product_state():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    psi = make_pure(np.kron(a, b), S22)
    rho = density_from_ensemble(make_ensemble(S22, [(1.0, psi)]))
    np.testing.assert_allclose(partial_trace(rho, "A"), np.outer(b, b.conj()), atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, "B"), np.outer(a, a.conj()), atol=1e-12)


def test_partial_trace_bell():
    rho = load_fixture("bell.json").density
    np.testing.assert_allclose(partial_trace(rho, "A"), np.eye(2) / 2, atol=1e-12)
    assert np.trace(partial_trace(rho, "B")).real == pytest.approx(1.0, abs=1e-12)


def test_random_density_full_rank_and_determinism():
    rho = random_density(S22, 4, seed=9)
    assert np.min(rho.eigenvalues()) > TOL.threshold(rho.matrix)
    again = random_density(S22, 4, seed=9)
    np.testing.assert_allclose(rho.matrix, again.matrix)
    with pytest.raises(ParameterOutOfRange):
        random_density(S22, 5, seed=0)


def ensemble_route_density(shape, rank, seed):
    """random_density's draws made into PureStates and an Ensemble, whose
    density_from_ensemble is the reference for random_density's matrix."""
    rng = np.random.default_rng(seed)
    while True:
        G = rng.standard_normal((shape.dim, rank)) + 1j * rng.standard_normal((shape.dim, rank))
        Q, _ = np.linalg.qr(G)
        weights = rng.dirichlet(np.ones(rank))
        if weights.min() >= 1e-6:
            break
    ensemble = make_ensemble(shape, [(float(w), PureState(shape, Q[:, l].copy()))
                                     for l, w in enumerate(weights)])
    assert not ensemble.normalized  # the weights were not rescaled
    return density_from_ensemble(ensemble)


@pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (6, 6)])
def test_random_density_is_its_ensemble_route_byte_for_byte(m, n):
    shape = BipartiteShape(m, n)
    for rank in range(1, shape.dim + 1):
        for seed in range(10):
            rho = random_density(shape, rank, seed=[m, n, rank, seed])
            ref = ensemble_route_density(shape, rank, [m, n, rank, seed])
            for ours, theirs in ((rho.matrix, ref.matrix),
                                 (rho.spectrum.eigenvalues, ref.spectrum.eigenvalues),
                                 (rho.spectrum.eigenvectors, ref.spectrum.eigenvectors)):
                assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("shape", [S22, BipartiteShape(2, 3), S33, BipartiteShape(4, 4)])
def test_eigen_ensemble_round_trip(shape):
    rng = np.random.default_rng(shape.m * 10 + shape.n)
    for trial in range(100):
        r = int(rng.integers(1, shape.dim + 1))
        rho = random_density(shape, r, seed=[shape.m, shape.n, trial])
        rebuilt = density_from_ensemble(eigen_ensemble(rho, TOL))
        assert np.linalg.norm(rebuilt.matrix - rho.matrix) <= 1e-8


def test_partial_trace_is_linear_under_mix():
    rng = np.random.default_rng(21)
    states = [random_density(S33, int(rng.integers(1, 9)), seed=[100, j]) for j in range(3)]
    w = rng.dirichlet(np.ones(3))
    mixed = mix(w, states)
    for side in ("A", "B"):
        expected = sum(wi * partial_trace(s, side) for wi, s in zip(w, states))
        np.testing.assert_allclose(partial_trace(mixed, side), expected, atol=1e-10)


def test_schmidt_rank_one_iff_product():
    rng = np.random.default_rng(33)
    for trial in range(30):
        psi = make_pure(rng.standard_normal(4) + 1j * rng.standard_normal(4), S22)
        # brute-force best product-state fit: top singular value of the 2x2
        # coefficient matrix equals 1 exactly for product states
        top = np.linalg.svd(psi.coefficient_matrix(), compute_uv=False)[0]
        is_product_fit = top > 1 - 1e-10
        assert (numerical_rank(psi.coefficient_matrix(), TOL) == 1) == is_product_fit
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        product = make_pure(np.kron(a, b), S22)
        assert numerical_rank(product.coefficient_matrix(), TOL) == 1


def test_density_matrix_stores_its_read_only_spectrum():
    rho = random_density(S33, 4, seed=2)
    fresh = np.linalg.eigvalsh(rho.matrix)[::-1]
    np.testing.assert_allclose(rho.eigenvalues(), fresh, atol=1e-12)
    assert rho.eigenvalues() is rho.spectrum.eigenvalues
    for array in (rho.matrix, rho.spectrum.eigenvalues, rho.spectrum.eigenvectors):
        with pytest.raises(ValueError):
            array[0] = 0
