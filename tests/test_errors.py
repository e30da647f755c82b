from __future__ import annotations

import numpy as np
import pytest

from mixloci import (BipartiteShape, GenericityQuery, InvalidK, MixLociError, NotHermitian,
                     ParameterOutOfRange, Pencil, ProjectivePoint, ShapeMismatch,
                     WeightSumInvalid, ZeroVector, density_matrix_from_array, errors,
                     hermitian_eig, hermitian_form, is_locus_empty, locus_zero, mix,
                     partial_trace, pencil_from_ensemble, random_density, range_containment,
                     rank_at, sample_locus, spectral_pencil)
from mixloci.loci import LinearLocus

from conftest import load_fixture

EXAMPLE3 = load_fixture("example3.json")  # 3x3, listed as an ensemble
EXAMPLE1 = load_fixture("example1.json").density  # 2x2
RHO = EXAMPLE3.density
PAIR = ProjectivePoint.of([1, 0])  # two coordinates, where either side of RHO needs three

# each row calls a public function with one bad input; the raise sites are
# the side check, as_matrix, the canonical form, the merged classes, the
# target/component pair check, the density matrix's trace and spectrum, the
# pencil block check and the mixture check
CASES = {
    "spectral_pencil_side": (lambda: spectral_pencil(RHO, "C"), ParameterOutOfRange),
    "pencil_from_ensemble_side": (lambda: pencil_from_ensemble(EXAMPLE3.ensemble, "C"),
                                  ParameterOutOfRange),
    "hermitian_form_side": (lambda: hermitian_form(RHO, ProjectivePoint.of([1, 0, 0]), "C"),
                            ParameterOutOfRange),
    "partial_trace_side": (lambda: partial_trace(RHO, "C"), ParameterOutOfRange),
    "zero_point": (lambda: ProjectivePoint.of([0, 0]), ZeroVector),
    "zero_row_in_locus": (lambda: LinearLocus(np.array([[1, 0], [2j, 0]])).points(),
                          ZeroVector),
    "one_dimensional_matrix": (lambda: hermitian_eig(np.ones(3)), ShapeMismatch),
    "nan_matrix": (lambda: hermitian_eig(np.full((2, 2), np.nan)), ParameterOutOfRange),
    "non_square_matrix": (lambda: hermitian_eig(np.ones((2, 3))), ShapeMismatch),
    "hermitian_form_coordinates": (lambda: hermitian_form(RHO, PAIR, "A"), ShapeMismatch),
    "rank_at_coordinates": (lambda: rank_at(spectral_pencil(RHO, "A"), PAIR), ShapeMismatch),
    "random_density_rank": (lambda: random_density(BipartiteShape(3, 3), 0, seed=0),
                            ParameterOutOfRange),
    "genericity_rank": (lambda: GenericityQuery(3, 3, 0, 0, 1), ParameterOutOfRange),
    "range_containment_dims": (lambda: range_containment(EXAMPLE1, RHO), ShapeMismatch),
    "range_containment_transposed": (
        lambda: range_containment(random_density(BipartiteShape(2, 3), 3, seed=1),
                                  random_density(BipartiteShape(3, 2), 3, seed=2)),
        ShapeMismatch),
    "density_trace": (lambda: density_matrix_from_array(np.eye(4) * 0.3, BipartiteShape(2, 2)),
                      ParameterOutOfRange),
    "density_negative_eigenvalue": (
        lambda: density_matrix_from_array(np.diag([1.5, 0, 0, -0.5]), BipartiteShape(2, 2)),
        ParameterOutOfRange),
    "rank_at_2d_blocks": (lambda: rank_at(Pencil(np.ones((2, 3))), PAIR), ShapeMismatch),
    "sample_locus_2d_blocks": (lambda: sample_locus(Pencil(np.ones((2, 3))), 1), ShapeMismatch),
    "locus_zero_2d_blocks": (lambda: locus_zero(Pencil(np.ones((2, 3)))), ShapeMismatch),
    "locus_zero_no_blocks": (lambda: locus_zero(Pencil(np.ones((0, 2, 2)))), ShapeMismatch),
    "sample_locus_no_blocks": (lambda: sample_locus(Pencil(np.ones((0, 2, 2))), 1),
                               ShapeMismatch),
    "sample_locus_nan_blocks": (lambda: sample_locus(Pencil(np.full((2, 2, 2), np.nan)), 1),
                                ParameterOutOfRange),
    "max_rank_bound_2d_blocks": (lambda: Pencil(np.ones((2, 3))).max_rank_bound(),
                                 ShapeMismatch),
    "is_locus_empty_0d_blocks": (lambda: is_locus_empty(Pencil(np.array(1.0)), 1),
                                 ShapeMismatch),
    "evaluate_2d_blocks": (lambda: Pencil(np.ones((2, 3))).evaluate(np.ones(2)), ShapeMismatch),
    "stacked_2d_blocks": (lambda: Pencil(np.ones((2, 3))).stacked(), ShapeMismatch),
    "ambient_dim_0d_blocks": (lambda: Pencil(np.array(1.0)).ambient_dim, ShapeMismatch),
    "locus_zero_string_blocks": (lambda: locus_zero(Pencil([[["1", "0"]]])), ParameterOutOfRange),
    "mix_no_states": (lambda: mix([1.0], []), WeightSumInvalid),
}


@pytest.mark.parametrize("call, expected", CASES.values(), ids=CASES.keys())
def test_every_input_error_is_a_mixloci_error(call, expected):
    with pytest.raises(MixLociError) as caught:
        call()
    assert type(caught.value) is expected


def test_one_base_class_and_six_conditions():
    classes = {value for value in vars(errors).values() if isinstance(value, type)}
    assert classes == {MixLociError, NotHermitian, ZeroVector, ShapeMismatch, WeightSumInvalid,
                       InvalidK, ParameterOutOfRange}
    assert all(issubclass(cls, MixLociError) for cls in classes)
    assert issubclass(MixLociError, ValueError)
