from __future__ import annotations

import numpy as np
import pytest

from mixloci import (BipartiteShape, GenericityQuery, InvalidK, MixLociError, NotHermitian,
                     ParameterOutOfRange, ProjectivePoint, ShapeMismatch, WeightSumInvalid,
                     ZeroVector, errors, hermitian_eig, hermitian_form, partial_trace,
                     pencil_from_ensemble, random_density, rank_at, spectral_pencil)
from mixloci.loci import LinearLocus

from conftest import load_fixture

EXAMPLE3 = load_fixture("example3.json")  # 3x3, listed as an ensemble
RHO = EXAMPLE3.density
PAIR = ProjectivePoint.of([1, 0])  # two coordinates, where either side of RHO needs three

# each row calls a public function with one bad input; the raise sites are
# the side check, as_matrix, the canonical form and the merged classes
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
