"""Deterministic tensor-product quadrature over fundamental domains.

A domain is a real coordinate box together with an optional map into chart
coordinates (used for polar-type substitutions), the matching measure
weight, and one quadrature rule per box axis, which the domain's author
declares from what every integrand on that domain does along the axis:

* "gauss": at level L, 2^(L-1) Gauss-Legendre panels of p nodes each;
* "periodic": every integrand is periodic with period hi - lo, so the
  trapezoid rule with p * 2^(L-1) equispaced nodes, which converges
  exponentially in the node count for smooth periodic integrands;
* "invariant": every integrand (density times measure) is constant along
  the axis, so one node at lo weighted hi - lo, at every level; p is unused.

The point count p may differ per axis. The difference between the last two
refinement levels is reported as the error estimate; it says nothing about
an invariant axis, whose declaration only a sampled check can test (the
`invariance` suite's `axis:` rows).

Determinism and memory: each level's nodes are generated in a fixed order
and handed to the density in contiguous blocks of at most _CELL_NODES
nodes, so the stencil temporaries of one density call stay bounded however
fine the level. Every block sum is exactly rounded (math.fsum), and the
block partials are combined with math.fsum in block order, so repeated
runs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import IllPosedIntegrandError

_CELL_NODES = 8192  # nodes per density call: bounds peak memory, not tuned for speed
_NONFINITE_FRACTION = 0.01
RULES = ("gauss", "periodic", "invariant")


@dataclass(frozen=True)
class IntegrationDomain:
    """Box in real coordinates plus optional chart map and weight.

    box: per-real-coordinate (low, high) bounds, 2n entries for an
        n-dimensional chart.
    chart_map: box points (m, 2n) -> chart coordinates (m, n) complex.
        Defaults to pairing consecutive reals as (x + i y).
    measure_map: box points -> positive Jacobian weight of the substitution.
    rules: one of RULES per box axis, stating what every integrand (density
        times measure) does along that axis: "periodic" with period hi - lo,
        "invariant" (constant), or neither ("gauss"). Empty means all "gauss".
    """

    box: tuple[tuple[float, float], ...]
    chart_map: Optional[Callable[[np.ndarray], np.ndarray]] = None
    measure_map: Optional[Callable[[np.ndarray], np.ndarray]] = None
    rules: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.box:
            raise ValueError("box must have at least one axis")
        for lo, hi in self.box:
            if not hi > lo:
                raise ValueError(f"box axis ({lo}, {hi}) has nonpositive extent")
        if self.rules and len(self.rules) != len(self.box):
            raise ValueError(f"rules has {len(self.rules)} entries "
                             f"for {len(self.box)} box axes")
        for rule in self.rules:
            if rule not in RULES:
                raise ValueError(f"unknown axis rule {rule!r}; known rules: "
                                 f"{', '.join(RULES)}")

    def to_chart(self, pts: np.ndarray) -> np.ndarray:
        if self.chart_map is not None:
            return np.asarray(self.chart_map(pts))
        if pts.shape[-1] % 2:
            raise ValueError("default chart map needs an even number of box axes")
        return pts[..., 0::2] + 1j * pts[..., 1::2]


@dataclass(frozen=True)
class QuadratureSpec:
    """Level-1 points per axis, and refinement levels.

    points_per_axis: one count for every axis, or a tuple with one count
        per box axis. On a "gauss" axis it is the Gauss-Legendre points per
        panel, on a "periodic" axis the trapezoid nodes at level 1; an
        "invariant" axis ignores it.
    """

    points_per_axis: Union[int, tuple[int, ...]] = 8
    refinement_levels: int = 3

    def __post_init__(self):
        counts = self.points_per_axis
        if not all(c >= 2 for c in (counts if isinstance(counts, tuple) else (counts,))):
            raise ValueError("every points_per_axis count must be >= 2")
        if self.refinement_levels < 1:
            raise ValueError("refinement_levels must be >= 1")


class IntegrationResult(NamedTuple):
    value: complex
    error_estimate: float
    dropped_samples: int


@lru_cache(maxsize=32)
def _reference_nodes(points: int):
    """Gauss-Legendre nodes and weights on [0, 1]; cached, treat as read-only."""
    x, w = np.polynomial.legendre.leggauss(points)
    return 0.5 * (x + 1.0), 0.5 * w


def _axis_points(q: QuadratureSpec, axes: int) -> tuple[int, ...]:
    """Level-1 point count of each of `axes` box axes."""
    counts = q.points_per_axis
    if not isinstance(counts, tuple):
        return (counts,) * axes
    if len(counts) != axes:
        raise ValueError(f"points_per_axis has {len(counts)} counts for {axes} box axes")
    return counts


def _axis_nodes(lo: float, hi: float, panels: int, points: int, rule: str):
    if rule == "invariant":
        return np.array([lo]), np.array([hi - lo])
    if rule == "periodic":
        count = points * panels
        return lo + (hi - lo) * np.arange(count) / count, np.full(count, (hi - lo) / count)
    ref_x, ref_w = _reference_nodes(points)
    edges = np.linspace(lo, hi, panels + 1)
    widths = np.diff(edges)
    nodes = (edges[:-1, None] + widths[:, None] * ref_x[None, :]).ravel()
    weights = (widths[:, None] * ref_w[None, :]).ravel()
    return nodes, weights


def _level_grid(dom: IntegrationDomain, q: QuadratureSpec, level: int):
    panels = 2 ** (level - 1)
    points = _axis_points(q, len(dom.box))
    rules = dom.rules or ("gauss",) * len(dom.box)
    per_axis = [_axis_nodes(lo, hi, panels, p, rule)
                for (lo, hi), p, rule in zip(dom.box, points, rules)]
    mesh = np.meshgrid(*[n for n, _ in per_axis], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = np.meshgrid(*[w for _, w in per_axis], indexing="ij")
    weights = np.ones(pts.shape[0])
    for w in wmesh:
        weights = weights * w.ravel()
    return pts, weights


def _block_sum(density, chart_pts, weights):
    """Weighted sum over one node block: (real, imag, dropped)."""
    values = np.asarray(density(chart_pts))
    finite = np.isfinite(values)  # complex: False where either part is non-finite
    dropped = int(len(weights) - finite.sum())
    if dropped:
        values = np.where(finite, values, 0.0)
    contrib = weights * values
    return math.fsum(np.real(contrib)), math.fsum(np.imag(contrib)), dropped


def _evaluate_level(density, dom, q, level):
    pts, weights = _level_grid(dom, q, level)
    chart_pts = dom.to_chart(pts)
    if dom.measure_map is not None:
        weights = weights * np.asarray(dom.measure_map(pts), dtype=float)
    partials = []
    for start in range(0, len(weights), _CELL_NODES):
        sl = slice(start, start + _CELL_NODES)
        partials.append(_block_sum(density, chart_pts[sl], weights[sl]))

    total = complex(math.fsum(p[0] for p in partials),
                    math.fsum(p[1] for p in partials))
    dropped = sum(p[2] for p in partials)
    if dropped > _NONFINITE_FRACTION * len(weights):
        raise IllPosedIntegrandError(
            f"{dropped} of {len(weights)} samples non-finite at level {level}")
    return total, dropped


def integrate(density, dom: IntegrationDomain,
              q: QuadratureSpec = QuadratureSpec()) -> IntegrationResult:
    """Integrate a pointwise density over a domain with refinement estimates.

    Parameters
    ----------
    density : callable
        Chart coordinates (m, n) complex -> (m,) real or complex values.
        Must be pure; non-finite values are dropped and counted, and more
        than 1% of them raises IllPosedIntegrandError.
    dom : IntegrationDomain
    q : QuadratureSpec
        Tensor-product rule; at level k a "gauss" axis with p points gets
        2^(k-1) Gauss-Legendre panels of p nodes, a "periodic" axis the
        trapezoid rule with p * 2^(k-1) nodes starting at its low end, and
        an "invariant" axis one node at its low end weighted hi - lo at
        every level, whatever its p. A per-axis points tuple must have one
        count per box axis, or ValueError is raised.

    Each level calls `density` once per block of at most 8192 nodes, in a
    fixed order, and sums with math.fsum, so the result is deterministic
    and the memory of one call is bounded.

    Returns
    -------
    IntegrationResult
        value, |value_L - value_{L-1}| as error_estimate (inf when only one
        level was requested), and the count of dropped samples at the
        finest level. The estimate does not see an invariant axis: if the
        integrand does vary along it, the value is wrong and the gap can
        still be small.
    """
    values = []
    dropped = 0
    for level in range(1, q.refinement_levels + 1):
        total, dropped = _evaluate_level(density, dom, q, level)
        values.append(total)
    if len(values) >= 2:
        error = abs(values[-1] - values[-2])
    else:
        error = math.inf
    return IntegrationResult(values[-1], error, dropped)
