"""Exception types shared across the package.

Names follow the error contracts of the public operations; everything
derives from McurveError so callers can catch broadly.
"""


class McurveError(Exception):
    """Base class for all package errors."""


# -- sequence parsing and validation ---------------------------------------

class SequenceError(McurveError, ValueError):
    """Invalid input sequence."""


class NonIncreasing(SequenceError):
    pass


class NonPositive(SequenceError):
    pass


class TooShort(SequenceError):
    pass


class Overflow(SequenceError):
    pass


# -- classification / profile preconditions --------------------------------

class NotArithmetic(McurveError):
    pass


class NotGeneralizedArithmetic(McurveError):
    pass


class HNotDividingD(McurveError):
    pass


class GcdViolation(McurveError):
    pass


# -- polynomial layer -------------------------------------------------------

class DimensionMismatch(McurveError):
    pass


class DegreeCapExceeded(McurveError):
    pass


# -- monomial-ideal layer ---------------------------------------------------

class NotNestedType(McurveError):
    pass


class NonTerminating(McurveError):
    pass


class NotCohenMacaulay(McurveError):
    pass


class InvariantViolation(McurveError):
    """An internal precondition or invariant does not hold."""


# -- Koszul layer -----------------------------------------------------------

class WrongN(McurveError):
    pass


class CaseNotApplicable(McurveError):
    pass
