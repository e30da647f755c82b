"""Degeneracy loci of bipartite mixed states and mixing obstructions."""

from .errors import (DimensionMismatch, InvalidK, MixLociError, NotHermitian,
                     NotOnLocus, NotSquare, ParameterOutOfRange, RankOutOfRange,
                     ShapeMismatch, WeightSumInvalid, ZeroVector)
from .loci import (LinearLocus, LocusSample, LocusVerdict, Pencil, ProjectivePoint,
                   SearchConfig, hermitian_form, in_locus, is_locus_empty,
                   local_dimension, locus_zero, pencil_from_ensemble, rank_at,
                   sample_locus)
from .mixing import (GenericityQuery, GenericityReport, MixCertificate, MixVerdict,
                     RangeContainment, ZeroLoci, check_component_necessary,
                     check_ensemble_schmidt, check_mixed_mix_eigen, check_pure_mix_eigen,
                     check_reduced_constraints, excludes_max_schmidt_rank,
                     forces_separable, generic_empty_predicate, majorizes,
                     monte_carlo_genericity, range_containment, schmidt_rank_cap)
from .numeric import (EigResult, SVDResult, ToleranceConfig, hermitian_eig,
                      null_space, numerical_rank, svd)
from .states import (BipartiteShape, DensityMatrix, Ensemble, PureState,
                     SchmidtDecomposition, density_from_ensemble,
                     density_matrix_from_array, eigen_ensemble, make_ensemble,
                     make_pure, mix, partial_trace, random_density, random_pure,
                     schmidt, schmidt_rank)

__version__ = "0.1.0"
