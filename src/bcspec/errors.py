"""Exception hierarchy shared by all bcspec modules."""


class BcspecError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteValueError(BcspecError):
    """A NaN or infinity was offered to a constructor or would reach a report; the algebra admits neither."""


class SingularElementError(BcspecError):
    """Inverse requested for a zero divisor (an element of I1 or I2) or zero."""


class DimensionMismatchError(BcspecError):
    """Operand shapes are incompatible."""


class NonSquareError(BcspecError):
    """Operation defined for square matrices/operators only."""


class ConvergenceError(BcspecError):
    """The eigenvalue iteration exhausted its sweep budget without deflating."""


class ZeroVectorError(BcspecError):
    """A nonzero vector was required."""


class NotModifiedEigenvalueError(BcspecError):
    """The given bicomplex scalar is not a modified eigenvalue of the operator."""


class InvalidArgumentError(BcspecError, ValueError):
    """An argument lies outside its domain: equal kappas, a bad seed or size range."""


class ParseError(BcspecError):
    """Malformed JSON input; the message carries field or position context."""
