"""Batched complex-differential operators on chart evaluators.

The routes differentiate by jets (holoinv.jets) alone: one call of an
evaluator on the coordinates' jet gives its Wirtinger derivatives exactly,
to rounding, with no step. ricci_top_field takes R = -d dbar log a from one
order-2 jet of the log-density; divergence_field takes sum_i dX^i/dz^i from
one order-1 jet of the field and X(log a) from the log-density jet's d.
Both accept the log-density jet itself in place of the evaluator, so a
caller that needs both shares one call; divergence_field accepts the
field's jet too, so integrands that share a field share its call. On the
alternative route's nested jet ricci_top_field returns n! det R as an
order-1 jet along X. One cofactor determinant serves every n, on plain
batches and jets alike, and the checks on R work entry by entry, each a
view over the batch, folded elementwise: no reductions over the short
trailing matrix axes.

The stencil primitives are the step-based reference for the convergence
suite and the tests; no route or membership check calls them. They take
Wirtinger derivatives from real order-4 central differences on the (x, y)
coordinate pairs (complex-step differentiation does not apply to real
log-densities), with one scalar step h, DEFAULT_STEP unless a caller passes
another, and call the evaluator once per stencil node on the whole batch
(..., n). directional_derivative is the one core: sum_i v^i d/dz^i along a
complex direction v, 8 evaluator calls at any n. holomorphic_derivative is
that core along every unit axis, and d/dzbar is conj(d/dz of the
conjugate); mixed_hessian nests it.

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

DEFAULT_STEP = 1e-3
HERMITICITY_TOL = 1e-6
IMAG_TOL = 1e-6


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
    """H[..., i, j] = d^2 fn / dz^i dzbar^j for a real-valued fn, shape (..., n, n).

    The nested first-derivative stencil: for real fn, d fn / dzbar^j is
    conj(d fn / dz^j), and H_ij is d/dz^i of that, so H is
    holomorphic_derivative applied to the conjugated gradient, 64 n^2 calls
    of fn, every node within 4h of the base point along one real axis. It
    is returned as (H + H^H) / 2, which is exactly Hermitian.
    """
    def dbar(c):
        return np.conj(holomorphic_derivative(fn, c, step))

    H = np.swapaxes(holomorphic_derivative(dbar, coords, step), -1, -2)
    return 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))


def ricci_from_log_density(log_density, coords, step=DEFAULT_STEP):
    """Ricci coefficient matrix R = -(mixed Hessian of log a), shape (..., n, n)."""
    return -mixed_hessian(log_density, coords, step)


def _entry_residual(entry):
    """Per-point max-entry deviation |M_ij - conj(M_ji)| of an n x n table of
    batches from Hermiticity. |M_ij - conj(M_ji)| and |M_ji - conj(M_ij)| are
    equal bit for bit, so only the pairs i <= j are formed, and they are
    folded by np.maximum (NaN propagates as in a max reduction)."""
    n = len(entry)
    return functools.reduce(np.maximum, (np.abs(entry[i][j] - np.conj(entry[j][i]))
                                         for i in range(n) for j in range(i, n)))


def _batch(part, shape):
    """A jet part at the batch shape; an exact zero (None) becomes 0, and a
    nested jet's part, itself a jet, is kept as it is."""
    if isinstance(part, jets.Jet):
        return part
    return np.zeros(shape) if part is None else np.broadcast_to(part, shape)


def _value(x):
    return x.value if isinstance(x, jets.Jet) else x


def _det(m):
    """Cofactor determinant of a square table of entries, along the first row:
    the arithmetic is elementwise, so plain batches and order-1 jets alike."""
    if len(m) == 1:
        return m[0][0]
    total = None
    for j, lead in enumerate(m[0]):
        term = lead * _det([row[:j] + row[j + 1:] for row in m[1:]])
        total = term if total is None else total - term if j % 2 else total + term
    return total


def _log_density_jet(log_density, coords, order):
    """The log-density's jet of at least `order` at coords: a jet passed in is used as it is."""
    if isinstance(log_density, jets.Jet):
        if order == 2 and log_density.dd is None:
            raise ValueError("the Ricci matrix needs an order-2 log-density jet")
        return log_density
    return jets.evaluate(log_density, coords, order)


def ricci_top_field(log_density, coords):
    """Top-degree Ricci density n! * det(R) as a real batch.

    log_density is the chart evaluator or its order-2 jet at coords; R =
    -d dbar log a is the jet's mixed second derivative, exact to rounding.
    On the order-2 jet over an order-1 jet along X (jets.along) the entries
    of R are order-1 jets, and so is the result: its d is X(n! det R).
    The values of R must be Hermitian within HERMITICITY_TOL wherever they
    are finite, as the jet Hessian of a real log-density is to rounding.
    R is then symmetrized and its determinant taken by cofactors, so the
    result is real up to rounding; the imaginary part of its value must
    stay within IMAG_TOL. Non-finite points propagate as NaN, which the
    quadrature layer refuses with IllPosedIntegrandError.
    """
    shape = coords.shape[:-1]
    entry = [[-_batch(h, shape) for h in row]
             for row in _log_density_jet(log_density, coords, 2).dd]
    n = len(entry)
    values = [[_value(e) for e in row] for row in entry]
    res = _entry_residual(values)
    scale = functools.reduce(np.maximum, (np.abs(e) for row in values for e in row))
    bad = res > HERMITICITY_TOL * np.maximum(1.0, scale)
    if np.any(bad):
        worst = float(np.nanmax(np.where(bad, res, 0.0)))
        raise DifferentiationQualityError(
            f"Ricci matrix Hermiticity residual {worst:.3e} exceeds tolerance "
            f"{HERMITICITY_TOL:.1e}; the log-density is not real-valued"
        )
    det = _det([[0.5 * (entry[i][j] + np.conj(entry[j][i])) for j in range(n)]
                for i in range(n)])
    det_value = _value(det)
    stray = np.abs(det_value.imag) > IMAG_TOL * np.maximum(1.0, np.abs(det_value))
    if np.any(stray):
        worst = float(np.nanmax(np.where(stray, np.abs(det_value.imag), 0.0)))
        raise DifferentiationQualityError(
            f"determinant of symmetrized Ricci matrix has imaginary part {worst:.3e}"
        )
    return math.factorial(n) * det.real


def divergence_field(components, log_density, coords):
    """Divergence of a holomorphic field against a volume density.

    Returns sum_i dX^i/dz^i + X(log a) for the chart evaluators
    `components` (coords -> (..., n)) and `log_density` (coords -> (...)),
    or for their jets at coords in place of either evaluator. One order-1
    jet call of the field gives both its values X^i and the diagonal of
    its Jacobian, dX^i/dz^i; X(log a) is sum_i X^i d log a/dz^i from the
    log-density jet's d. Both are exact to rounding.
    """
    shape, n = coords.shape[:-1], coords.shape[-1]
    field = (components if isinstance(components, jets.Jet)
             else jets.evaluate(components, coords, 1))
    values = _batch(field.value, coords.shape)
    logd = _log_density_jet(log_density, coords, 1)
    terms = ([field[..., i].d[i] for i in range(n)]
             + [values[..., i] * p for i, p in enumerate(logd.d) if p is not None])
    return functools.reduce(np.add, (t for t in terms if t is not None),
                            np.zeros(shape, dtype=complex))
