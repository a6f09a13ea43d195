"""Exception types shared across the package."""


class HoloinvError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HoloinvError):
    """A point (or its image under a map) lies outside every declared chart."""


class EvaluationError(HoloinvError):
    """An evaluator returned a non-finite value where a finite one is required."""


class IllPosedIntegrandError(HoloinvError):
    """A quadrature integrand returned a non-finite value at some node, or
    its weighted values or their sum overflow the float range."""


class DifferentiationQualityError(HoloinvError):
    """A Ricci matrix or its determinant violated a structural property beyond
    tolerance. The Hermiticity gate fires on a log-density that is not
    real-valued, whose jet Hessian is then not Hermitian."""


class NonInvertibleClassError(HoloinvError):
    """Attempted to invert a truncated class with vanishing constant term."""


class NonsingularityError(HoloinvError):
    """Fixed-point data violates the nonsingular normal linearization
    hypothesis (a normal weight is zero)."""
