"""Exception types shared across the package."""


class MixLociError(Exception):
    """Base class for all package errors."""


class NotSquare(MixLociError):
    pass


class NotHermitian(MixLociError):
    pass


class ZeroVector(MixLociError):
    pass


class ShapeMismatch(MixLociError):
    pass


class WeightSumInvalid(MixLociError):
    pass


class RankOutOfRange(MixLociError):
    pass


class DimensionMismatch(MixLociError):
    pass


class InvalidK(MixLociError):
    pass


class ParameterOutOfRange(MixLociError):
    pass
