"""Deterministic tensor-product quadrature over fundamental domains.

A domain is a real coordinate box together with an optional map into chart
coordinates (used for polar-type substitutions), the matching measure
weight, and one quadrature rule per box axis, which the domain's author
declares from what every integrand on that domain does along the axis:

* "gauss": at level L, 2^(L-1) Gauss-Legendre panels of p nodes each;
* "periodic": every integrand is periodic with period hi - lo, so the
  trapezoid rule with p * 2^(L-1) equispaced nodes, which converges
  exponentially in the node count for smooth periodic integrands;
* "band-limited": every integrand is a trigonometric polynomial along the
  axis (jointly over the piece's band-limited axes) that p trapezoid nodes
  integrate exactly at any offset, so p nodes at every level, staggered:
  lo + (hi - lo)(j + s)/p with s = 0 at odd levels and 1/2 at even ones;
* "invariant": every integrand (density times measure) is constant along
  the axis, so one node at lo weighted hi - lo, at every level; p is unused
  and may be 1, where every other rule needs p >= 2.

The point count p may differ per axis. The difference between the last two
refinement levels is reported as the error estimate. It says nothing about
an invariant axis, and on band-limited axes it sees only part of the
aliasing. Their grid of p_1 x ... x p_k nodes aliases exactly the joint
frequencies (p_1 m_1, ..., p_k m_k), not all m_j zero, and the half-spacing
stagger turns such a term's sign by (-1)^(m_1 + ... + m_k) between
consecutive levels, so it aliases alike on both grids whenever that sum is
even: (2 p_1, 0) on one axis, and jointly (p_1, p_2), whether or not the
counts are equal. Only a sampled check tests these declarations: the
`invariance` suite's `axis:` rows.

Cost: the nodes, weights and chart points of every level depend only on
the domain and the spec, so they are built once per (domain, spec) pair,
kept in a small cache, and marked read-only. The density is called on all
levels' nodes at once, concatenated in level order, so the coarse levels
cost no call of their own. A density may return k rows, one integrand
each, and get k results from one call: the pieces of a manifold that share
one domain share one node set and one density call, one row per piece, so
the work the rows share is done once per node. Gauss and periodic axes
double their nodes at each level; a band-limited axis keeps its p nodes and
an invariant axis its one node at every level, so a declared axis buys no
node that no integrand needs.

Determinism and memory: the concatenated nodes go to the density in
contiguous calls of at most _CELL_NODES nodes, so the jet temporaries of
one call stay bounded however fine the grid. Each level of each row is
summed on its own, real and imaginary parts apart, by one math.fsum per
part. That sum is exactly rounded, hence unique: repeated runs give
bit-identical results, and no result depends on _CELL_NODES or on which
rows shared a call.

Finiteness is a precondition: a non-finite density value at any node
raises IllPosedIntegrandError, since neither the value nor its error
estimate could account for it; so does a level whose weighted values or
their sum overflow. One test over a row's weighted values of all levels
comes first; only a row that fails it is tested level by level, in
order, to name the first level that fails.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import IllPosedIntegrandError

# nodes per density call: bounds the memory of one call's jet temporaries
# and nothing else; one call may hold nodes of several levels
_CELL_NODES = 8192
_NODE_SETS = 8  # cached (domain, spec) node sets; a job uses one per distinct piece
_MAX_NODES = 2 ** 22  # nodes of all levels of one node set: 5,200x the largest registered job
RULES = ("gauss", "periodic", "band-limited", "invariant")


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
        "band-limited" (a trigonometric polynomial, with the piece's other
        band-limited axes, that the spec's p staggered trapezoid nodes per
        axis integrate exactly at every level), "invariant" (constant), or
        none of these ("gauss"). Empty means all "gauss". The refinement gap
        cannot test a band-limited or invariant declaration; the `invariance`
        suite's `axis:` rows (geometry.verify_invariant_axes) do, by sampling.
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
        panel, on a "periodic" axis the trapezoid nodes at level 1, on a
        "band-limited" axis the staggered trapezoid nodes at every level; an
        "invariant" axis ignores it.

    Every count and the level count must be integers (numpy integers too,
    bool not), and several counts must come as a tuple; anything else
    raises ValueError naming the field. Every count must be >= 1 here; the
    spec does not know the rules, so a count below 2 on a gauss, periodic
    or band-limited axis is refused per axis when a domain's nodes are built.
    """

    points_per_axis: Union[int, tuple[int, ...]] = 8
    refinement_levels: int = 3

    def __post_init__(self):
        counts = self.points_per_axis
        if not isinstance(counts, tuple):
            counts = (counts,)
        if not all(_is_integer(c) for c in counts):
            raise ValueError("points_per_axis must be an integer or a tuple of integers, "
                             f"got {self.points_per_axis!r}")
        if not all(c >= 1 for c in counts):
            raise ValueError("every points_per_axis count must be >= 1")
        if not _is_integer(self.refinement_levels):
            raise ValueError("refinement_levels must be an integer, "
                             f"got {self.refinement_levels!r}")
        if self.refinement_levels < 1:
            raise ValueError("refinement_levels must be >= 1")


def _is_integer(value) -> bool:
    # numpy registers its integer types as numbers.Integral; bool is one too
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class IntegrationResult(NamedTuple):
    value: complex
    error_estimate: float


def _gauss_legendre(points: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(points)
    return 0.5 * (x + 1.0), 0.5 * w


def _axis_points(q: QuadratureSpec, dom: IntegrationDomain) -> tuple[int, ...]:
    """Level-1 point count of each box axis of `dom`. Only an invariant axis
    takes a single point: any other count below 2 raises ValueError naming
    the axis and its rule."""
    counts = q.points_per_axis
    axes = len(dom.box)
    if not isinstance(counts, tuple):
        counts = (counts,) * axes
    elif len(counts) != axes:
        raise ValueError(f"points_per_axis has {len(counts)} counts for {axes} box axes")
    for axis, (count, rule) in enumerate(zip(counts, dom.rules or ("gauss",) * axes)):
        if count < 2 and rule != "invariant":
            raise ValueError(f"box axis {axis} ({rule}) needs >= 2 points_per_axis, "
                             f"got {count}")
    return counts


def _axis_nodes(lo: float, hi: float, level: int, points: int, rule: str, reference):
    panels = 2 ** (level - 1)
    if rule == "invariant":
        return np.array([lo]), np.array([hi - lo])
    if rule == "band-limited":
        # consecutive levels are two p-node grids half a spacing apart
        shift = 0.5 if level % 2 == 0 else 0.0
        return (lo + (hi - lo) * (np.arange(points) + shift) / points,
                np.full(points, (hi - lo) / points))
    if rule == "periodic":
        count = points * panels
        return lo + (hi - lo) * np.arange(count) / count, np.full(count, (hi - lo) / count)
    ref_x, ref_w = reference
    edges = np.linspace(lo, hi, panels + 1)
    widths = np.diff(edges)
    nodes = (edges[:-1, None] + widths[:, None] * ref_x[None, :]).ravel()
    weights = (widths[:, None] * ref_w[None, :]).ravel()
    return nodes, weights


def _level_grid(axes, level: int):
    """Box points and rule weights of one level; `axes` holds one
    (lo, hi, points, rule, Gauss-Legendre reference) per box axis."""
    per_axis = [_axis_nodes(lo, hi, level, p, rule, ref) for lo, hi, p, rule, ref in axes]
    mesh = np.meshgrid(*[n for n, _ in per_axis], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = np.meshgrid(*[w for _, w in per_axis], indexing="ij")
    weights = np.ones(pts.shape[0])
    for w in wmesh:
        weights = weights * w.ravel()
    return pts, weights


class _NodeSet(NamedTuple):
    """Every level's nodes of one domain and spec, concatenated in level order."""

    chart_pts: np.ndarray  # (N, n) complex chart coordinates
    weights: np.ndarray  # (N,) rule weights times measure_map
    starts: tuple[int, ...]  # offset of each level's first node, then N


@lru_cache(maxsize=_NODE_SETS)
def _node_set(dom: IntegrationDomain, q: QuadratureSpec) -> _NodeSet:
    """The nodes and weights of all levels, built once per (domain, spec).

    Each axis's Gauss-Legendre reference rule is computed once for all
    levels, and the chart and measure maps run once on all levels' box
    points. The arrays are shared by every later call, so they are read-only.
    A count below 2 on an axis other than an invariant one, or a grid of
    more than _MAX_NODES nodes, raises ValueError before any node is built.
    """
    points = _axis_points(q, dom)
    rules = dom.rules or ("gauss",) * len(dom.box)
    sizes = (math.prod({"invariant": 1, "band-limited": p}.get(rule, p * 2 ** level)
                       for p, rule in zip(points, rules))
             for level in range(q.refinement_levels))
    # any() stops at the first level whose running total passes the cap
    if any(total > _MAX_NODES for total in itertools.accumulate(sizes)):
        raise ValueError(f"the quadrature grid has more than {_MAX_NODES} nodes over its "
                         "levels; lower the points per axis or the refinement levels")
    references = {p: _gauss_legendre(p) for p, rule in zip(points, rules) if rule == "gauss"}
    axes = [(lo, hi, p, rule, references.get(p))
            for (lo, hi), p, rule in zip(dom.box, points, rules)]
    grids = [_level_grid(axes, level) for level in range(1, q.refinement_levels + 1)]
    pts = np.concatenate([p for p, _ in grids])
    weights = np.concatenate([w for _, w in grids])
    chart_pts = dom.to_chart(pts)
    if dom.measure_map is not None:
        weights = weights * np.asarray(dom.measure_map(pts), dtype=float)
    starts = tuple(itertools.accumulate((len(w) for _, w in grids), initial=0))
    for array in (chart_pts, weights):
        array.setflags(write=False)
    return _NodeSet(chart_pts, weights, starts)


def integrate(density, dom: IntegrationDomain, q: QuadratureSpec = QuadratureSpec()
              ) -> Union[IntegrationResult, list[IntegrationResult]]:
    """Integrate a pointwise density over a domain with refinement estimates.

    Parameters
    ----------
    density : callable
        Chart coordinates (m, n) complex -> (m,) real or complex values, or
        k rows of them, (k, m), one integrand per row. Must be pure and
        finite at every node: any non-finite value raises
        IllPosedIntegrandError, naming its level and the count there. So
        does a level whose weighted values, or their sum, overflow the
        float range, and one whose running sum in node order does even
        where the exact sum is finite: math.fsum refuses weighted values
        1e308, 1e308, -1e308. Row by row, the levels are checked in order
        and the first that fails is named.
    dom : IntegrationDomain
    q : QuadratureSpec
        Tensor-product rule; at level k a "gauss" axis with p points gets
        2^(k-1) Gauss-Legendre panels of p nodes, a "periodic" axis the
        trapezoid rule with p * 2^(k-1) nodes starting at its low end, a
        "band-limited" axis the trapezoid rule with p nodes at every level,
        starting at its low end at odd k and half a spacing above it at even
        k, and an "invariant" axis one node at its low end weighted hi - lo
        at every level, whatever its p. A per-axis points tuple must have
        one count per box axis, and every axis but an invariant one needs
        p >= 2, or ValueError is raised.

    The nodes of all levels, built once per (domain, spec) and cached, go
    to `density` as read-only views, level 1 first, at most _CELL_NODES
    nodes per call; the level sums are exactly rounded (see the module
    docstring).

    Returns
    -------
    IntegrationResult, or a list of k of them for k rows
        value and |value_L - value_{L-1}| as error_estimate (inf when only
        one level was requested). The estimate does not see an invariant
        axis: if the integrand does vary along it, the value is wrong and
        the gap can still be small. On band-limited axes it sees only an
        aliased joint frequency (p_1 m_1, ..., p_k m_k) with odd
        m_1 + ... + m_k, which the stagger moves between levels. The
        `invariance` suite's `axis:` rows guard both declarations by
        sampling.
    """
    nodes = _node_set(dom, q)
    values = np.concatenate([np.asarray(density(nodes.chart_pts[start:start + _CELL_NODES]))
                             for start in range(0, len(nodes.weights), _CELL_NODES)], axis=-1)
    if values.ndim not in (1, 2) or values.shape[-1] != len(nodes.weights):
        raise ValueError(f"density returned shape {values.shape} "
                         f"for {len(nodes.weights)} nodes")
    results = [_integrate_row(row, nodes) for row in np.atleast_2d(values)]
    return results if values.ndim == 2 else results[0]


def _integrate_row(values, nodes: _NodeSet) -> IntegrationResult:
    """One row's level sums, each checked finite, and refinement gap."""
    with np.errstate(over="ignore", invalid="ignore"):
        contrib = nodes.weights * values
    # complex: False where either part is non-finite; the levels are tested
    # one by one, in order, only when the whole row fails
    finite = np.isfinite(contrib).all()
    levels = []
    for level, (lo, hi) in enumerate(itertools.pairwise(nodes.starts), start=1):
        part = contrib[lo:hi]
        if not finite and not np.isfinite(part).all():
            bad = hi - lo - np.count_nonzero(np.isfinite(values[lo:hi]))
            if bad:
                raise IllPosedIntegrandError(f"{bad} of {hi - lo} samples non-finite at level {level}")
            raise IllPosedIntegrandError(f"the weighted sum overflows at level {level}")
        try:  # a memoryview hands fsum one float at a time, with no list of them
            real, imag = math.fsum(memoryview(part.real)), math.fsum(memoryview(part.imag))
        except OverflowError:
            raise IllPosedIntegrandError(f"the weighted sum overflows at level {level}") from None
        levels.append(complex(real, imag))
    if len(levels) >= 2:
        error = abs(levels[-1] - levels[-2])
    else:
        error = math.inf
    return IntegrationResult(levels[-1], error)
