"""Degeneracy loci of bipartite mixed states and mixing obstructions."""

from .errors import (InvalidK, MixLociError, NotHermitian, ParameterOutOfRange, ShapeMismatch,
                     WeightSumInvalid, ZeroVector)
from .loci import (LinearLocus, LocusSample, LocusVerdict, Pencil, ProjectivePoint,
                   SearchConfig, hermitian_form, in_locus, is_locus_empty, locus_zero,
                   normal_rank, pencil_from_ensemble, rank_at, sample_locus, spectral_pencil)
from .mixing import (GenericityQuery, GenericityReport, MixCertificate, MixVerdict,
                     RangeContainment, ZeroLoci, check_component_necessary,
                     check_mixed_mix_eigen, check_pure_mix_eigen, check_reduced_constraints,
                     excludes_max_schmidt_rank, forces_separable, generic_empty_predicate,
                     majorizes, monte_carlo_genericity, range_containment, schmidt_rank_cap)
from .numeric import EigResult, ToleranceConfig, hermitian_eig, null_space, numerical_rank
from .states import (BipartiteShape, DensityMatrix, Ensemble, PureState, density_from_ensemble,
                     density_matrix_from_array, eigen_ensemble, make_ensemble, make_pure, mix,
                     partial_trace, random_density)

__version__ = "0.1.0"
