"""Exception types shared across the package."""


class HoloinvError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HoloinvError):
    """A point (or its image under a map) lies outside every declared chart."""


class EvaluationError(HoloinvError):
    """An evaluator returned a non-finite value where a finite one is required."""


class IllPosedIntegrandError(HoloinvError):
    """A quadrature integrand returned a non-finite value at some node."""


class DifferentiationQualityError(HoloinvError):
    """A Ricci matrix or its determinant violated a structural property beyond
    tolerance. The stencil Hessian is exactly Hermitian, so the Hermiticity
    gate fires only on a closed-form exact_ricci evaluator that returned a
    non-Hermitian matrix."""


class NonInvertibleClassError(HoloinvError):
    """Attempted to invert a truncated class with vanishing constant term."""


class NonsingularityError(HoloinvError):
    """Fixed-point data violates the nonsingular normal linearization
    hypothesis (a normal weight is zero)."""
