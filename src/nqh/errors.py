"""Exception types shared across the package."""


class NqhError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(NqhError):
    pass


class DegreeMismatch(NqhError):
    pass


class BoundExceeded(NqhError):
    pass


class NotOrientable(NqhError):
    pass


class CompletionDiverged(NqhError):
    pass


class NotConfluent(NqhError):
    pass


class InfiniteDimensional(NqhError):
    pass


class RelationViolated(NqhError):
    def __init__(self, index, message=""):
        self.index = index
        super().__init__(message or f"relation {index} not preserved")


class ZeroScale(NqhError):
    pass


class NotIdempotent(NqhError):
    pass


class SingularBasis(NqhError):
    pass


class NotTwistingSystem(NqhError):
    pass


class MuNotInvolution(NotTwistingSystem):
    """mu is not a graded involution.  The check that raises it is also the
    one that accepts nu = (id, mu) as the twisting system of a Zhang twist
    (see ``twist.zhang_twist``), so a failure is a NotTwistingSystem too."""


class CompatibilityFailed(NqhError):
    pass


class WrongP(NqhError):
    pass


class NotRepresentableInK(NqhError):
    pass


class DegenerateP11(NqhError):
    pass


class ParseError(NqhError):
    pass


# The spec of scalar division names this error; Python's builtin is the
# natural carrier.
DivisionByZero = ZeroDivisionError
