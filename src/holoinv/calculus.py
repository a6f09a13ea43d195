"""Batched complex-differential operators on chart evaluators.

Wirtinger derivatives are assembled from real central differences on the
underlying (x, y) coordinate pairs: log-densities are real-valued rather
than holomorphic, so complex-step differentiation does not apply. Every
operator accepts batched coordinate arrays of shape (..., n) and calls the
evaluator once per distinct stencil node, vectorized over the whole batch.
The mixed Hessian is read off the real 2n x 2n Hessian, built in one pass
with the nested first-derivative stencil's weights (129 evaluations at
n = 2 and order 4), so it is exactly Hermitian. The checks on Ricci
matrices and determinants of order 1 and 2 work entry by entry, each
entry a view over the batch, folded elementwise: there are no reductions
over the short trailing matrix axes.

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DifferentiationQualityError

# central first-derivative stencils: (offsets in units of h, weights in 1/h)
_STENCILS = {
    2: ((-1.0, 1.0), (-0.5, 0.5)),
    4: ((-2.0, -1.0, 1.0, 2.0), (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)),
}

# second derivative along one real axis: each first-derivative stencil applied
# to itself, its nodes merged by offset (offsets in units of h, weights in 1/h^2)
_DIAGONAL_STENCILS = {
    2: ((-2.0, 0.0, 2.0), (0.25, -0.5, 0.25)),
    4: ((-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0),
        tuple(w / 144.0 for w in (1.0, -16.0, 64.0, 16.0, -130.0, 16.0, 64.0, -16.0, 1.0))),
}

HERMITICITY_TOL = 1e-6
IMAG_TOL = 1e-6


@dataclass(frozen=True)
class DifferentiationScheme:
    """Step size and order of the real central-difference stencils."""

    step: float = 1e-3
    order: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be positive and finite, got {self.step}")
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
    """H[..., i, j] = d^2 fn / dz^i dzbar^j from the real 2n x 2n Hessian.

    Real coordinate a is the x-part (a even) or y-part (a odd) of complex
    axis a // 2. The real second derivatives are those of the nested
    first-derivative stencils, with every distinct node evaluated once: the
    diagonal ones by the merged stencil of _DIAGONAL_STENCILS (the base
    point shared by all of them), the off-diagonal ones by the product
    stencil, computed once and stored in both (a, b) and (b, a). Then
    H_ij = [(f_xixj + f_yiyj) + i (f_xiyj - f_yixj)] / 4, which is exactly
    Hermitian for real fn. `step` is as for holomorphic_derivative.
    """
    step = scheme.step if step is None else step
    n = coords.shape[-1]
    offsets, weights = _STENCILS[scheme.order]
    real_axes = [(axis, direction) for axis in range(n) for direction in (1.0, 1.0j)]

    def at(*shifts):
        shifted = np.array(coords)
        for a, o in shifts:
            axis, direction = real_axes[a]
            shifted[..., axis] = shifted[..., axis] + (o * step) * direction
        return np.asarray(fn(shifted))

    inv_h2 = 1.0 / (step * step)
    base = at()
    real = [[None] * (2 * n) for _ in range(2 * n)]
    for a in range(2 * n):
        real[a][a] = inv_h2 * sum(w * (base if o == 0.0 else at((a, o)))
                                  for o, w in zip(*_DIAGONAL_STENCILS[scheme.order]))
        for b in range(a):
            real[a][b] = real[b][a] = inv_h2 * sum(
                (wa * wb) * at((a, oa), (b, ob))
                for oa, wa in zip(offsets, weights) for ob, wb in zip(offsets, weights))
    rows = []
    for i in range(n):
        xi, yi = real[2 * i], real[2 * i + 1]
        rows.append(np.stack([
            0.25 * ((xi[2 * j] + yi[2 * j + 1]) + 1.0j * (xi[2 * j + 1] - yi[2 * j]))
            for j in range(n)], axis=-1))
    return np.stack(rows, axis=-2)


def ricci_from_log_density(log_density, coords, scheme=DEFAULT_SCHEME, step=None):
    """Ricci coefficient matrix R = -(mixed Hessian of log a), shape (..., n, n)."""
    return -mixed_hessian(log_density, coords, scheme, step)


def hermiticity_residual(matrix):
    """Per-point max-entry deviation of a matrix batch from Hermiticity.

    |M_ij - conj(M_ji)| and |M_ji - conj(M_ij)| are equal bit for bit, so
    only the pairs i <= j are formed, each a view over the whole batch, and
    they are folded by np.maximum (NaN propagates as in a max reduction).
    """
    m = np.asarray(matrix)
    n = m.shape[-1]
    return functools.reduce(np.maximum, (np.abs(m[..., i, j] - np.conj(m[..., j, i]))
                                         for i in range(n) for j in range(i, n)))


def ricci_top_field(log_density, coords, scheme=DEFAULT_SCHEME, step=None, exact=None):
    """Top-degree Ricci density n! * det(R) as a real batch.

    An exact closed-form Ricci evaluator short-circuits the stencils. The
    raw matrix must be Hermitian within HERMITICITY_TOL wherever it is
    finite; it is then symmetrized before the determinant (closed form for
    n <= 2, LAPACK beyond) so the result is real up to rounding, and its
    imaginary part must stay within IMAG_TOL.
    Every check works on the n x n entries as views over the batch, folded
    elementwise: numpy reductions over a trailing axis of length n cost far
    more than the arithmetic on such small matrices. Only LAPACK (n >= 3)
    gets a stacked matrix.
    Non-finite points propagate as NaN (the quadrature layer decides
    whether to drop them).
    """
    if exact is not None:
        R = np.asarray(exact(coords))
    else:
        R = ricci_from_log_density(log_density, coords, scheme, step)
    n = R.shape[-1]
    entry = [[R[..., i, j] for j in range(n)] for i in range(n)]
    res = hermiticity_residual(R)
    scale = functools.reduce(np.maximum, (np.abs(e) for row in entry for e in row))
    bad = res > HERMITICITY_TOL * np.maximum(1.0, scale)
    if np.any(bad):
        worst = float(np.nanmax(np.where(bad, res, 0.0)))
        raise DifferentiationQualityError(
            f"Ricci matrix Hermiticity residual {worst:.3e} exceeds tolerance "
            f"{HERMITICITY_TOL:.1e}; refine the differentiation scheme"
        )
    sym = [[0.5 * (entry[i][j] + np.conj(entry[j][i])) for j in range(n)] for i in range(n)]
    if n == 1:
        det = sym[0][0]
    elif n == 2:
        det = sym[0][0] * sym[1][1] - sym[0][1] * sym[1][0]
    else:
        det = np.linalg.det(np.stack([np.stack(row, axis=-1) for row in sym], axis=-2))
    det_scale = np.maximum(1.0, np.abs(det))
    stray = np.abs(det.imag) > IMAG_TOL * det_scale
    if np.any(stray):
        worst = float(np.nanmax(np.where(stray, np.abs(det.imag), 0.0)))
        raise DifferentiationQualityError(
            f"determinant of symmetrized Ricci matrix has imaginary part {worst:.3e}"
        )
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
    # einsum, not an np.add fold over the axes: the fold changes the low bits
    return holo + np.einsum("...i,...i->...", values, grad)


def chart_step(chart, coords, scheme):
    """Per-point step, shrunk so every stencil node stays inside the chart.

    The order-4 diagonal second-derivative stencil of mixed_hessian reaches
    4h from the base point along one real axis; a factor-5 margin keeps
    every node strictly interior. Without a chart or a declared
    boundary clearance the scheme's step is used unchanged.
    """
    if chart is None or chart.boundary_clearance is None:
        return scheme.step
    clearance = np.asarray(chart.boundary_clearance(coords), dtype=float)
    return np.minimum(scheme.step, clearance / 5.0)
