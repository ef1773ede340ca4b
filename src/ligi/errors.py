"""Exception types shared across the package."""


class AlgebraMismatch(ValueError):
    """Operands do not belong to the same Lie algebra."""


class ActionMismatch(ValueError):
    """Group element or point is incompatible with the requested action."""


class DomainError(ValueError):
    """A value where a closed form or construction is undefined or ill-conditioned."""


class AngleNearPi(DomainError):
    """Rotation angle too close to pi for a well-conditioned logarithm."""


class LogNearAntipode(DomainError):
    """Quaternion too close to the antipode of the identity; log is ill-conditioned."""


class CriticalPoint(DomainError):
    """Gradient vanishes; the two-form construction is undefined there."""


class CoincidentPoints(DomainError):
    """x == x'; use the pointwise differential instead of a discrete one."""


class DexpinvOutOfRange(DomainError):
    """|v| >= 2 pi, where the so(3) dexpinv closed form has its first pole."""


class FixedPointDivergence(RuntimeError):
    """An implicit stage equation did not converge.

    Carries the step size and the last residual so callers can report
    or retry with a smaller step.
    """

    def __init__(self, message, h=None, residual=None):
        if h is not None:
            message = f"{message} (h={h!r}, residual={residual!r})"
        super().__init__(message)
        self.h = h
        self.residual = residual


class NonFiniteState(ArithmeticError):
    """A step gave a state or an invariant value that is not finite."""
