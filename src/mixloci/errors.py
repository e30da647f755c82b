"""Exception types shared across the package: one class per condition."""


class MixLociError(ValueError):
    """Base class of every error the package raises on bad input."""


class NotHermitian(MixLociError):
    """A matrix that must be Hermitian is not."""


class ZeroVector(MixLociError):
    """An amplitude vector or projective point is (numerically) zero."""


class ShapeMismatch(MixLociError):
    """Sizes that must agree do not: shapes, counts, a state pair, pencil blocks."""


class WeightSumInvalid(MixLociError):
    """Mixture weights that are not positive, not summing to 1, or miscounted."""


class InvalidK(MixLociError):
    """A rank bound k outside its range."""


class ParameterOutOfRange(MixLociError):
    """Any other argument outside its range: side, rank, seed, tolerance,
    non-finite entries, a density matrix's trace or spectrum."""
