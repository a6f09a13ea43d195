"""Batched complex-differential operators on chart evaluators.

The routes differentiate by jets (holoinv.jets): one call of an evaluator
on the coordinates' jet gives its Wirtinger derivatives exactly, to
rounding, with no step. ricci_top_field without a closed form takes
R = -d dbar log a from one order-2 jet of the log-density; divergence_field
takes sum_i dX^i/dz^i from one order-1 jet of the field and X(log a) from
the log-density jet's d. Both accept the log-density jet itself in place
of the evaluator, so a caller that needs both shares one call.

The stencil primitives are the step-based reference: the convergence
suite and the Cauchy-Riemann checks use them, and the alternative route
takes X(n! det R / a), a third derivative of log a, with
directional_derivative. They assemble
Wirtinger derivatives from real central differences on the underlying
(x, y) coordinate pairs: log-densities are real-valued rather than
holomorphic, so complex-step differentiation does not apply. Each accepts
batched coordinate arrays of shape (..., n) and calls the evaluator once
per distinct stencil node, vectorized over the whole batch. There is one
stencil, the order-4 central first difference, and one parameter, the step
h: one scalar for the whole batch, DEFAULT_STEP unless a caller passes
another. directional_derivative is the one first-derivative core:
sum_i v^i d/dz^i along a complex direction v (per point or constant), from
two real stencils, along v/|v| and i v/|v|, so 8 evaluator calls at any n.
holomorphic_derivative is that core along every unit axis e_j, for an
evaluator of any value shape, so a field's Jacobian is one call and
d/dzbar is conj(d/dz of the conjugate). The mixed Hessian takes only the
real second derivatives its complex entries use, with the nested stencil's
weights: the pure ones along every real axis and the four cross products
of each pair of complex axes, not the in-plane products that cancel (97
evaluations at n = 2). Its lower triangle mirrors the upper one, so it is
exactly Hermitian. The checks on Ricci matrices and determinants of order
1 and 2 work entry by entry, each entry a view over the batch, folded
elementwise: there are no reductions over the short trailing matrix axes.

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

import numpy as np

from . import jets
from .errors import DifferentiationQualityError

# order-4 central first-derivative stencil: (offsets in units of h, weights in 1/h)
_STENCIL = ((-2.0, -1.0, 1.0, 2.0), (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0))

# second derivative along one real axis: the first-derivative stencil applied
# to itself, its nodes merged by offset (offsets in units of h, weights in 1/h^2)
_DIAGONAL_STENCIL = ((-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0),
                     tuple(w / 144.0 for w in (1.0, -16.0, 64.0, 16.0, -130.0,
                                               16.0, 64.0, -16.0, 1.0)))

DEFAULT_STEP = 1e-3
HERMITICITY_TOL = 1e-6
IMAG_TOL = 1e-6


def _shifted(coords, shifts, step):
    """Copy of `coords` moved by o * step * direction for each (axis, direction, o)."""
    shifted = np.array(coords)
    for axis, direction, o in shifts:
        shifted[..., axis] = shifted[..., axis] + (o * step) * direction
    return shifted


def directional_derivative(fn, coords, direction, step=DEFAULT_STEP):
    """sum_i v^i d fn / dz^i at each point of `coords`, for v = `direction`.

    direction has shape (..., n), or (n,) for one v at every point. With
    u = v / |v| and D_u the real order-4 central difference along u,
    sum_i v^i d fn / dz^i = |v| (D_u fn - i D_{iu} fn) / 2: 8 calls of fn
    at any n, every node within 2h of the base point. |v| is folded into
    the stencil weights (w / h) |v|, which are reshaped to their batch
    shape + (1,) * k for values with k trailing axes beyond the batch, so fn
    may return any value shape (..., *v) and per-point directions scale
    each point's whole value instead of broadcasting along a component
    axis. The step h is a scalar. Where v = 0 the weights are 0, and so
    is the result.
    Along a unit axis e_j the nodes and weights are bit for bit those of
    the per-axis central difference.
    """
    v = np.asarray(direction)
    norm = np.sqrt(functools.reduce(np.add, (v[..., i].real ** 2 + v[..., i].imag ** 2
                                             for i in range(v.shape[-1]))))
    # h u at full batch shape: broadcasting a short trailing axis against the
    # batch in each of the 8 node shifts costs more than the shifts themselves
    hu = np.broadcast_to(v, coords.shape) * (step / np.where(norm > 0.0, norm, 1.0))[..., None]
    scales = [(w / step) * norm for w in _STENCIL[1]]
    parts = []
    for shift in (hu, 1.0j * hu):
        acc = None
        for o, scale in zip(_STENCIL[0], scales):
            values = np.asarray(fn(coords + o * shift))
            weight = np.reshape(scale, np.shape(scale) + (1,) * (values.ndim - np.ndim(scale)))
            acc = weight * values if acc is None else acc + weight * values
        parts.append(acc)
    return 0.5 * (parts[0] - 1.0j * parts[1])


def holomorphic_derivative(fn, coords, step=DEFAULT_STEP):
    """d fn / dz^j along every complex axis j, at each point of `coords`.

    fn maps coordinates (..., n) to values of any shape (..., *v); the result
    has shape (..., *v, n), its last axis indexing j. A scalar evaluator thus
    gives the gradient (..., n) and a vector one the Jacobian (..., k, n):
    directional_derivative along each unit vector e_j, 8n calls of fn either
    way. The antiholomorphic derivative is
    d fn / dzbar^j = conj(d conj(fn) / dz^j).
    """
    axes = np.eye(coords.shape[-1], dtype=complex)
    return np.stack([directional_derivative(fn, coords, e, step) for e in axes], axis=-1)


def mixed_hessian(fn, coords, step=DEFAULT_STEP):
    """H[..., i, j] = d^2 fn / dz^i dzbar^j from the real second derivatives it uses.

    Real coordinate a is the x-part (a even) or y-part (a odd) of complex
    axis a // 2. For real fn,
    H_ij = [(f_xixj + f_yiyj) + i (f_xiyj - f_yixj)] / 4, so H_ii is
    (f_xixi + f_yiyi) / 4: the in-plane products f_xiyi would enter it only
    as f_xiyi - f_yixi, which is exactly 0, and are not evaluated. Each
    real second derivative is that of the nested first-derivative stencil,
    every distinct node evaluated once: f_aa by the merged
    _DIAGONAL_STENCIL (the base point shared by all axes), and for i < j
    the four products (x_j, x_i), (y_j, y_i), (y_j, x_i) and (x_j, y_i) by
    the 16-node product stencil. That is 1 + 16n + 32n(n - 1) calls of fn:
    17, 97 and 241 at n = 1, 2 and 3. H_ji takes the mirrored formula
    [(f_xixj + f_yiyj) + i (f_yixj - f_xiyj)] / 4, which is conj(H_ij) bit
    for bit except that an exactly zero imaginary part stays +0 (np.conj
    would give -0), so H is exactly Hermitian.
    """
    n = coords.shape[-1]
    offsets, weights = _STENCIL
    real_axes = [(axis, direction) for axis in range(n) for direction in (1.0, 1.0j)]

    def at(*shifts):
        return np.asarray(fn(_shifted(coords, [(*real_axes[a], o) for a, o in shifts], step)))

    inv_h2 = 1.0 / (step * step)
    base = at()

    def pure(a):
        return inv_h2 * sum(w * (base if o == 0.0 else at((a, o)))
                            for o, w in zip(*_DIAGONAL_STENCIL))

    def product(a, b):
        # a > b: the shift along a is applied first
        return inv_h2 * sum((wa * wb) * at((a, oa), (b, ob))
                            for oa, wa in zip(offsets, weights) for ob, wb in zip(offsets, weights))

    H = np.empty(base.shape + (n, n), dtype=complex)
    for i in range(n):
        xi, yi = 2 * i, 2 * i + 1
        H[..., i, i] = 0.25 * (pure(xi) + pure(yi))
        for j in range(i + 1, n):
            xj, yj = 2 * j, 2 * j + 1
            same = product(xj, xi) + product(yj, yi)
            xy, yx = product(yj, xi), product(xj, yi)
            H[..., i, j] = 0.25 * (same + 1.0j * (xy - yx))
            H[..., j, i] = 0.25 * (same + 1.0j * (yx - xy))
    return H


def ricci_from_log_density(log_density, coords, step=DEFAULT_STEP):
    """Ricci coefficient matrix R = -(mixed Hessian of log a), shape (..., n, n)."""
    return -mixed_hessian(log_density, coords, step)


def hermiticity_residual(matrix):
    """Per-point max-entry deviation of a matrix batch from Hermiticity.

    |M_ij - conj(M_ji)| and |M_ji - conj(M_ij)| are equal bit for bit, so
    only the pairs i <= j are formed, each a view over the whole batch, and
    they are folded by np.maximum (NaN propagates as in a max reduction).
    """
    m = np.asarray(matrix)
    n = m.shape[-1]
    return _entry_residual([[m[..., i, j] for j in range(n)] for i in range(n)])


def _entry_residual(entry):
    n = len(entry)
    return functools.reduce(np.maximum, (np.abs(entry[i][j] - np.conj(entry[j][i]))
                                         for i in range(n) for j in range(i, n)))


def _batch(part, shape):
    """A jet part at the batch shape; an exact zero (None) becomes 0."""
    return np.zeros(shape) if part is None else np.broadcast_to(part, shape)


def _log_density_jet(log_density, coords, order):
    """The log-density's jet of at least `order` at coords: a jet passed in is used as it is."""
    if isinstance(log_density, jets.Jet):
        if order == 2 and log_density.dd is None:
            raise ValueError("the Ricci matrix needs an order-2 log-density jet")
        return log_density
    return jets.evaluate(log_density, coords, order)


def ricci_top_field(log_density, coords, exact=None):
    """Top-degree Ricci density n! * det(R) as a real batch.

    log_density is the chart evaluator or its order-2 jet at coords. An
    exact closed-form Ricci evaluator is used in place of it when given;
    otherwise R = -d dbar log a is the jet's mixed second derivative, exact
    to rounding. The raw matrix must be Hermitian within HERMITICITY_TOL
    wherever it is finite: a closed form must return a Hermitian matrix,
    and the jet Hessian of a real log-density is Hermitian to rounding. It
    is then symmetrized before the determinant (closed form for n <= 2,
    LAPACK beyond) so the result is real up to rounding, and its imaginary
    part must stay within IMAG_TOL.
    Every check works on the n x n entries as views over the batch, folded
    elementwise: numpy reductions over a trailing axis of length n cost far
    more than the arithmetic on such small matrices. Only LAPACK (n >= 3)
    gets a stacked matrix.
    Non-finite points propagate as NaN, which the quadrature layer
    refuses with IllPosedIntegrandError.
    """
    if exact is not None:
        R = np.asarray(exact(coords))
        entry = [[R[..., i, j] for j in range(R.shape[-1])] for i in range(R.shape[-1])]
        culprit = "the closed-form exact_ricci evaluator returned a non-Hermitian matrix"
    else:
        entry = [[-_batch(h, coords.shape[:-1]) for h in row]
                 for row in _log_density_jet(log_density, coords, 2).dd]
        culprit = "the log-density is not real-valued"
    n = len(entry)
    res = _entry_residual(entry)
    scale = functools.reduce(np.maximum, (np.abs(e) for row in entry for e in row))
    bad = res > HERMITICITY_TOL * np.maximum(1.0, scale)
    if np.any(bad):
        worst = float(np.nanmax(np.where(bad, res, 0.0)))
        raise DifferentiationQualityError(
            f"Ricci matrix Hermiticity residual {worst:.3e} exceeds tolerance "
            f"{HERMITICITY_TOL:.1e}; {culprit}"
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


def divergence_field(components, log_density, coords):
    """Divergence of a holomorphic field against a volume density.

    Returns sum_i dX^i/dz^i + X(log a) for the chart evaluators
    `components` (coords -> (..., n)) and `log_density` (coords -> (...)),
    or the log-density's jet at coords in place of its evaluator. One
    order-1 jet call of the field gives both its values X^i and the
    diagonal of its Jacobian, dX^i/dz^i; X(log a) is sum_i X^i d log a/dz^i
    from the log-density jet's d. Both are exact to rounding.
    """
    shape, n = coords.shape[:-1], coords.shape[-1]
    field = jets.evaluate(components, coords, 1)
    values = _batch(field.value, coords.shape)
    logd = _log_density_jet(log_density, coords, 1)
    terms = ([field[..., i].d[i] for i in range(n)]
             + [values[..., i] * p for i, p in enumerate(logd.d) if p is not None])
    return functools.reduce(np.add, (t for t in terms if t is not None),
                            np.zeros(shape, dtype=complex))
