"""Assembly of the integral invariant from divergence and Ricci densities.

Two equivalent routes are implemented. The direct form integrates
div X * (top-degree Ricci density) over the fundamental domain; the
alternative form integrates -X(n! det R / a) * a, a third derivative of
the log-density. Both take their derivatives from jets, exact to
rounding, and evaluate only at the quadrature nodes.

A route integrates rows, one (piece, volume, field) integrand each. The
pieces that share a domain share its node set and one density call, which
returns one row per piece and (volume, field) pair; what the rows share is
computed once per call. On the direct route each distinct log-density
evaluator gets one order-2 jet and one Ricci density, and each distinct
field evaluator one order-1 jet. A slice of a deformation family blends
its endpoints' jets, so all slices of a curve share the endpoints' calls.
The alternative route's nested jets depend on X, so they stay one per row.

Normalization is fixed once: the top power of the Ricci form has density
n! * det(R) against prod_i (i dz^i ^ dzbar^i), and each factor
i dz ^ dzbar equals 2 dx ^ dy, hence the 2^n below. Residue sums from
fixed-point data compare against these values through the factor
(2pi)^n / (n + 1).
"""

from __future__ import annotations

import functools
import operator
from typing import Sequence

import numpy as np

from . import calculus, jets
from .geometry import Character, ManifoldSpec, VectorFieldSpec, VolumeFormSpec
from .quadrature import IntegrationResult, QuadratureSpec, integrate

NORMALIZATION = ("rho^n density = n!*det(R) against prod_i(i dz^i^dzbar^i); "
                 "i dz^dzbar = 2 dx^dy; residue comparisons scaled by (2pi)^n/(n+1)")


def _blend(t, u, v):
    """A family's log-density at t from its endpoints' values or jets alike;
    no np.asarray, so on jets it returns a jet."""
    return (1.0 - t) * u + t * v


class _Blend:
    """One chart's log-density of a family slice: the blend at t of the
    endpoint evaluators `ends`. Called, it blends their values; a route
    blends their cached jets instead, with the same arithmetic."""

    __slots__ = ("ends", "t")

    def __init__(self, a0, a1, t):
        self.ends = (a0, a1)
        self.t = t

    def __call__(self, coords):
        return _blend(self.t, self.ends[0](coords), self.ends[1](coords))


def _identity(fn):
    """What makes two evaluators the same function: the object, or for a
    blend its t and its endpoints' identities, so that the charts' blends
    of one shared pair of endpoints are one function too."""
    if isinstance(fn, _Blend):
        return (fn.t, *map(_identity, fn.ends))
    return id(fn)  # the rows hold every evaluator for the whole call


class _NodeWork:
    """What the rows of one density call share at its nodes, computed once
    per distinct evaluator: order-2 log-density jets, their Ricci
    densities and order-1 field jets."""

    def __init__(self, coords):
        self.coords = coords
        self._memo = {}

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def log_density(self, fn):
        """fn's order-2 jet; a blend's is blended from its endpoints' jets."""
        def make():
            if isinstance(fn, _Blend):
                return _blend(fn.t, *map(self.log_density, fn.ends))
            return jets.evaluate(fn, self.coords, 2)
        return self._once(("log_density", _identity(fn)), make)

    def ricci(self, fn):
        return self._once(("ricci", _identity(fn)), lambda: calculus.ricci_top_field(
            self.log_density(fn), self.coords))

    def field(self, fn):
        return self._once(("field", id(fn)), lambda: jets.evaluate(fn, self.coords, 1))


def _direct_row(at: _NodeWork, logd, comps):
    """div X times the top Ricci density, from one chart's evaluators: the
    log-density and the field components. One order-2 log-density jet
    serves both factors: its mixed second derivatives give the Ricci
    matrix, its first derivatives X(log a). No step is taken: the
    log-density and the field are evaluated at the nodes only."""
    div = calculus.divergence_field(at.field(comps), at.log_density(logd), at.coords)
    return div * at.ricci(logd)


def direct_density(logd, comps):
    """_direct_row of one chart's evaluators as a density of its own, for
    callers that sample it outside a route (the invariance suite)."""
    return lambda coords: _direct_row(_NodeWork(coords), logd, comps)


def _along_x(g, shape):
    """X(g) as a batch: the d of g's order-1 jet along X; 0 where g has none."""
    part = g.d[0] if isinstance(g, jets.Jet) else None
    return np.zeros(shape) if part is None else part


def _alternative_row(at: _NodeWork, logd, comps):
    """-X(n! det R / a) times a, from the same evaluators as _direct_row.

    That is -(X(n! det R) - n! det R X(log a)), a third derivative of log a,
    taken by nested jets with no step: the log-density is evaluated once
    per node on the order-2 jet over the coordinates' order-1 jet along X
    (jets.along), so its value and its Ricci density carry X(.) in their d.
    The nested jet depends on X, so no other row shares it. The Ricci
    density's gates read the values of R."""
    coords = at.coords
    shape = coords.shape[:-1]
    log_a = jets.evaluate(logd, jets.along(coords, comps(coords)), 2)
    top = calculus.ricci_top_field(log_a, coords)
    top_value = top.value if isinstance(top, jets.Jet) else top
    return -(_along_x(top, shape) - top_value * _along_x(log_a.value, shape))


def alternative_density(logd, comps):
    """_alternative_row of one chart's evaluators as a density of its own, for
    callers that sample it outside a route (the invariance suite)."""
    return lambda coords: _alternative_row(_NodeWork(coords), logd, comps)


# route name, as `holoinv invariant --method` spells it -> density builder
ROUTE_DENSITIES = {"direct": direct_density, "alt": alternative_density}


def _add_results(a: IntegrationResult, b: IntegrationResult) -> IntegrationResult:
    return IntegrationResult(*map(operator.add, a, b))


def _integrate_route(m: ManifoldSpec, pairs, row, q: QuadratureSpec):
    """2^n times the integral of the route's `row` over the fundamental
    domain, one IntegrationResult per (volume, field) pair of `pairs`.

    The pieces are grouped by domain, the key _node_set caches on: each
    group is one integrate call whose density returns one row per piece and
    pair, each row built from its chart's log-density and field components
    and sharing one _NodeWork. Values and refinement error estimates add up
    over the pieces in piece order.
    """
    if not pairs:
        return []
    factor = 2.0 ** m.dimension
    by_domain = {}
    for chart_id, dom in m.fundamental_domain.items():
        by_domain.setdefault(dom, []).append(chart_id)
    pieces = {}
    for dom, charts in by_domain.items():
        keys = [(chart_id, k) for chart_id in charts for k in range(len(pairs))]
        evaluators = [(pairs[k][0].log_density[chart_id], pairs[k][1].components[chart_id])
                      for chart_id, k in keys]

        def density(coords, evaluators=evaluators):
            at = _NodeWork(coords)
            return np.array([row(at, logd, comps) * factor for logd, comps in evaluators])

        pieces.update(zip(keys, integrate(density, dom, q)))
    # summed from the first piece: 0 + (-0.0) would flip the sign of a zero
    return [functools.reduce(_add_results, (pieces[c, k] for c in m.fundamental_domain))
            for k in range(len(pairs))]


def invariant_direct(m: ManifoldSpec, vol: VolumeFormSpec, x: VectorFieldSpec, *,
                     q: QuadratureSpec) -> IntegrationResult:
    """Invariant by direct quadrature of div X times the top Ricci density.

    Callers are responsible for the membership contracts (the volume form
    automorphic, the field deck-invariant and holomorphic); the registry
    bundles satisfy them by construction and the check suites verify them.
    """
    (res,) = _integrate_route(m, [(vol, x)], _direct_row, q)
    return res


def invariant_alternative(m: ManifoldSpec, vol: VolumeFormSpec, x: VectorFieldSpec, *,
                          q: QuadratureSpec) -> IntegrationResult:
    """Invariant as -integral of X(n! det R / a) against the volume form."""
    (res,) = _integrate_route(m, [(vol, x)], _alternative_row, q)
    return res


def interpolated_volume(vol0: VolumeFormSpec, vol1: VolumeFormSpec,
                        t: float) -> VolumeFormSpec:
    """Log-linear interpolation between two automorphic volume forms.

    At parameter t the log-density is (1-t) log a0 + t log a1 and the
    character is chi_0^(1-t) chi_1^t, so every slice is automorphic by
    construction. No volume normalization is applied. Each chart's
    log-density is a blend evaluator that keeps its two endpoint evaluators
    and t, so a route that integrates several slices on one node set
    evaluates each endpoint once and blends its jet, with the arithmetic a
    call of the slice's evaluator does.
    """
    chi0, chi1 = vol0.character.generator_values, vol1.character.generator_values
    if set(chi0) != set(chi1):
        raise ValueError("endpoint characters live on different deck groups")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    # endpoints and trivial families reproduce their inputs exactly
    if vol0 is vol1 or t == 0.0:
        return vol0
    if t == 1.0:
        return vol1
    charts = sorted(set(vol0.log_density) & set(vol1.log_density))
    if not charts:
        raise ValueError("endpoint volume forms share no chart")
    return VolumeFormSpec(
        name=f"{vol0.name}~{vol1.name}@t={t:g}",
        log_density={c: _Blend(vol0.log_density[c], vol1.log_density[c], t) for c in charts},
        character=Character({name: chi0[name] ** (1.0 - t) * chi1[name] ** t
                             for name in chi0}),
    )


def deformation_invariant_curve(m: ManifoldSpec, vol0: VolumeFormSpec,
                                vol1: VolumeFormSpec, x: VectorFieldSpec,
                                t_grid: Sequence[float], *, q: QuadratureSpec):
    """Direct invariant along the interpolation family, one (t, result) per
    t: one route call over every slice, so the slices share the endpoints'
    log-density jets and the field's jet."""
    ts = [float(t) for t in t_grid]
    vols = [interpolated_volume(vol0, vol1, t) for t in ts]
    return list(zip(ts, _integrate_route(m, [(vol, x) for vol in vols], _direct_row, q)))
