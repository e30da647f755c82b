from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixloci import (NotHermitian, ParameterOutOfRange, ShapeMismatch, ToleranceConfig,
                     hermitian_eig, null_space, numerical_rank)

TOL = ToleranceConfig()


def test_hermitian_eig_identity():
    res = hermitian_eig(np.eye(2))
    np.testing.assert_allclose(res.eigenvalues, [1.0, 1.0])


def test_hermitian_eig_diagonal():
    res = hermitian_eig(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(res.eigenvalues, [2.0, 1.0])
    np.testing.assert_allclose(np.abs(res.eigenvectors), np.eye(2), atol=1e-12)


def test_hermitian_eig_reconstruction_residual():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = G + G.conj().T
    res = hermitian_eig(H)
    residual = np.linalg.norm(H @ res.eigenvectors - res.eigenvectors @ np.diag(res.eigenvalues))
    assert residual <= 1e-10 * (1 + np.linalg.norm(H))
    assert np.all(np.diff(res.eigenvalues) <= 1e-14)


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(ShapeMismatch):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_numerical_rank_basic():
    assert numerical_rank(np.zeros((3, 3)), TOL) == 0
    assert numerical_rank(np.eye(3), TOL) == 3
    assert numerical_rank(np.ones((3, 3)), TOL) == 1


def test_null_space_basic():
    assert null_space(np.eye(2), TOL).shape == (2, 0)
    basis = null_space(np.zeros((2, 2)), TOL)
    assert basis.shape == (2, 2)
    basis = null_space(np.array([[1.0, 1.0]]), TOL)
    assert basis.shape == (2, 1)
    expected = np.array([1.0, -1.0]) / np.sqrt(2)
    overlap = abs(np.vdot(expected, basis[:, 0]))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_null_space_orthonormal_and_annihilated():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    basis = null_space(M, TOL)
    assert basis.shape[1] == 6 - numerical_rank(M, TOL)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    for j in range(basis.shape[1]):
        assert np.linalg.norm(M @ basis[:, j]) <= TOL.threshold(M)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.floats(min_value=-6.0, max_value=6.0),
       st.floats(min_value=0.0, max_value=2 * np.pi))
def test_rank_invariant_under_scaling_and_adjoint(seed, log_scale, phase):
    rng = np.random.default_rng(seed)
    rank = rng.integers(0, 4)
    G = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank)) \
        if rank else np.zeros((4, 1))
    M = G @ (rng.standard_normal((G.shape[1], 3)) + 1j * rng.standard_normal((G.shape[1], 3)))
    c = 10.0 ** log_scale * np.exp(1j * phase)
    base = numerical_rank(M, TOL)
    assert numerical_rank(c * M, TOL) == base
    assert numerical_rank(M.conj().T, TOL) == base


def test_eig_matches_svd_for_psd():
    rng = np.random.default_rng(11)
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = G @ G.conj().T
    eigs = hermitian_eig(H).eigenvalues
    sigmas = np.linalg.svd(H, compute_uv=False)
    np.testing.assert_allclose(eigs, sigmas, atol=1e-10 * (1 + np.linalg.norm(H)))


@pytest.mark.parametrize("field", ["rank_rel_tol", "abs_floor"])
def test_tolerance_config_rejects_negative_or_non_finite(field):
    for value in (-1e-8, float("nan"), float("inf")):
        with pytest.raises(ParameterOutOfRange):
            ToleranceConfig(**{field: value})
    assert getattr(ToleranceConfig(**{field: 0.0}), field) == 0.0


def test_threshold_matches_threshold_from_sigma():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    s = np.linalg.svd(M, compute_uv=False)
    assert TOL.threshold(M) == pytest.approx(TOL.threshold_from_sigma(s[0], 3, 5), rel=1e-12)
    assert TOL.rank(s, 3, 5) == numerical_rank(M, TOL) == 3
    assert TOL.threshold(np.zeros((0, 3))) == TOL.abs_floor
