"""Batched complex-differential operators on chart evaluators.

Wirtinger derivatives are assembled from real central differences on the
underlying (x, y) coordinate pairs: log-densities are real-valued rather
than holomorphic, so complex-step differentiation does not apply. Every
operator accepts batched coordinate arrays of shape (..., n) and calls the
evaluator once per stencil node, vectorized over the whole batch.

Conventions
-----------
* coordinates: complex ndarray, last axis indexes the n holomorphic
  coordinates of one chart.
* d/dz^i  = (d/dx^i - i d/dy^i) / 2,   d/dzbar^j = (d/dx^j + i d/dy^j) / 2.
* The Ricci coefficient matrix of a log-density f is
  R[i, j] = - d^2 f / dz^i dzbar^j,  Hermitian for real f.
* The top-degree density of the Ricci form is n! * det(R), measured
  against the Euclidean top form prod_i (i dz^i ^ dzbar^i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DifferentiationQualityError

# central first-derivative stencils: (offsets in units of h, weights in 1/h)
_STENCILS = {
    2: ((-1.0, 1.0), (-0.5, 0.5)),
    4: ((-2.0, -1.0, 1.0, 2.0), (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)),
}

HERMITICITY_TOL = 1e-6
IMAG_TOL = 1e-6


@dataclass(frozen=True)
class DifferentiationScheme:
    """Step size and order of the real central-difference stencils."""

    step: float = 1e-3
    order: int = 4

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.order not in _STENCILS:
            raise ValueError(f"order must be one of {sorted(_STENCILS)}, got {self.order}")


DEFAULT_SCHEME = DifferentiationScheme()


def _real_derivative(fn, coords, axis, direction, scheme, step):
    """Directional central difference along one real coordinate.

    direction is 1.0 for the x-part and 1j for the y-part of complex axis
    `axis`. `step` may be a scalar or an array broadcastable to the batch
    shape (per-point shrunken steps near chart boundaries); None means the
    scheme's step.
    """
    step = scheme.step if step is None else step
    offsets, weights = _STENCILS[scheme.order]
    acc = None
    for o, w in zip(offsets, weights):
        shifted = np.array(coords)
        shifted[..., axis] = shifted[..., axis] + (o * step) * direction
        term = (w / step) * np.asarray(fn(shifted))
        acc = term if acc is None else acc + term
    return acc


def holomorphic_derivative(fn, coords, scheme=DEFAULT_SCHEME, axis=0, step=None):
    """d fn / dz^axis at each point of `coords`."""
    dx = _real_derivative(fn, coords, axis, 1.0, scheme, step)
    dy = _real_derivative(fn, coords, axis, 1.0j, scheme, step)
    return 0.5 * (dx - 1.0j * dy)


def antiholomorphic_derivative(fn, coords, scheme=DEFAULT_SCHEME, axis=0, step=None):
    """d fn / dzbar^axis at each point of `coords`."""
    dx = _real_derivative(fn, coords, axis, 1.0, scheme, step)
    dy = _real_derivative(fn, coords, axis, 1.0j, scheme, step)
    return 0.5 * (dx + 1.0j * dy)


def wirtinger_gradient_at(fn, coords, scheme=DEFAULT_SCHEME, step=None):
    """All holomorphic derivatives (d fn / dz^1, ..., d fn / dz^n).

    Returns an array of shape coords.shape: component i is the derivative
    along complex axis i.
    """
    n = coords.shape[-1]
    parts = [holomorphic_derivative(fn, coords, scheme, i, step) for i in range(n)]
    return np.stack(parts, axis=-1)


def mixed_hessian(fn, coords, scheme=DEFAULT_SCHEME, step=None):
    """H[..., i, j] = d^2 fn / dz^i dzbar^j by nested stencils."""
    n = coords.shape[-1]
    cols = []
    for j in range(n):
        def dbar_j(c, _j=j):
            return antiholomorphic_derivative(fn, c, scheme, _j, step=step)

        col = [holomorphic_derivative(dbar_j, coords, scheme, i, step=step) for i in range(n)]
        cols.append(np.stack(col, axis=-1))
    return np.stack(cols, axis=-1)


def ricci_from_log_density(log_density, coords, scheme=DEFAULT_SCHEME, step=None):
    """Ricci coefficient matrix R = -(mixed Hessian of log a), shape (..., n, n)."""
    return -mixed_hessian(log_density, coords, scheme, step)


def hermiticity_residual(matrix):
    """Per-point max-entry deviation of a matrix batch from Hermiticity."""
    dev = np.abs(matrix - np.conj(np.swapaxes(matrix, -1, -2)))
    return dev.max(axis=(-2, -1))


def ricci_top_field(log_density, coords, scheme=DEFAULT_SCHEME, step=None, exact=None):
    """Top-degree Ricci density n! * det(R) as a real batch.

    An exact closed-form Ricci evaluator short-circuits the stencils. The
    raw matrix must be Hermitian within HERMITICITY_TOL wherever it is
    finite; it is then symmetrized before the determinant so the result is
    real up to rounding, and its imaginary part must stay within IMAG_TOL.
    Non-finite points propagate as NaN (the quadrature layer decides
    whether to drop them).
    """
    if exact is not None:
        R = np.asarray(exact(coords))
    else:
        R = ricci_from_log_density(log_density, coords, scheme, step)
    res = hermiticity_residual(R)
    scale = np.abs(R).max(axis=(-2, -1))
    bad = res > HERMITICITY_TOL * np.maximum(1.0, scale)
    if np.any(bad):
        worst = float(np.nanmax(np.where(bad, res, 0.0)))
        raise DifferentiationQualityError(
            f"Ricci matrix Hermiticity residual {worst:.3e} exceeds tolerance "
            f"{HERMITICITY_TOL:.1e}; refine the differentiation scheme"
        )
    R = 0.5 * (R + np.conj(np.swapaxes(R, -1, -2)))
    det = np.linalg.det(R)
    det_scale = np.maximum(1.0, np.abs(det))
    stray = np.abs(det.imag) > IMAG_TOL * det_scale
    if np.any(stray):
        worst = float(np.nanmax(np.where(stray, np.abs(det.imag), 0.0)))
        raise DifferentiationQualityError(
            f"determinant of symmetrized Ricci matrix has imaginary part {worst:.3e}"
        )
    n = coords.shape[-1]
    return math.factorial(n) * det.real


def divergence_field(components, log_density, coords, scheme=DEFAULT_SCHEME, step=None):
    """Divergence of a holomorphic field against a volume density.

    Returns sum_i dX^i/dz^i + sum_i X^i * d(log a)/dz^i for the chart
    evaluators `components` (coords -> (..., n)) and `log_density`
    (coords -> (...)).
    """
    n = coords.shape[-1]
    holo = None
    for i in range(n):
        def comp_i(c, _i=i):
            return np.asarray(components(c))[..., _i]

        d = holomorphic_derivative(comp_i, coords, scheme, i, step=step)
        holo = d if holo is None else holo + d
    grad = wirtinger_gradient_at(log_density, coords, scheme, step=step)
    values = np.asarray(components(coords))
    return holo + np.einsum("...i,...i->...", values, grad)


def chart_step(chart, coords, scheme):
    """Per-point step, shrunk so nested stencils stay inside the chart.

    Nested order-4 stencils reach 4h from the base point; a factor-5 margin
    keeps every node strictly interior. Without a chart or a declared
    boundary clearance the scheme's step is used unchanged.
    """
    if chart is None or chart.boundary_clearance is None:
        return scheme.step
    clearance = np.asarray(chart.boundary_clearance(coords), dtype=float)
    return np.minimum(scheme.step, clearance / 5.0)
