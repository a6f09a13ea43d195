"""Assembly of the integral invariant from divergence and Ricci densities.

Two equivalent routes are implemented. The direct form integrates
div X * (top-degree Ricci density) over the fundamental domain; the
alternative form integrates -X(n! det R / a) * a, a third derivative of
the log-density. Both take their derivatives from jets, exact to
rounding, and evaluate only at the quadrature nodes.

Normalization is fixed once: the top power of the Ricci form has density
n! * det(R) against prod_i (i dz^i ^ dzbar^i), and each factor
i dz ^ dzbar equals 2 dx ^ dy, hence the 2^n below. Residue sums from
fixed-point data compare against these values through the factor
(2pi)^n / (n + 1).
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from . import calculus, jets
from .geometry import Character, ManifoldSpec, VectorFieldSpec, VolumeFormSpec
from .quadrature import IntegrationResult, QuadratureSpec, integrate

NORMALIZATION = ("rho^n density = n!*det(R) against prod_i(i dz^i^dzbar^i); "
                 "i dz^dzbar = 2 dx^dy; residue comparisons scaled by (2pi)^n/(n+1)")


def direct_density(logd, comps):
    """div X times the top Ricci density, from one chart's evaluators: the
    log-density and the field components. One order-2 log-density jet per
    block serves both factors: its mixed second derivatives give the Ricci
    matrix, its first derivatives X(log a). No step is taken: the
    log-density and the field are evaluated at the nodes only."""
    def density(coords):
        log_a = jets.evaluate(logd, coords, 2)
        div = calculus.divergence_field(comps, log_a, coords)
        return div * calculus.ricci_top_field(log_a, coords)
    return density


def _along_x(g, shape):
    """X(g) as a batch: the d of g's order-1 jet along X; 0 where g has none."""
    part = g.d[0] if isinstance(g, jets.Jet) else None
    return np.zeros(shape) if part is None else part


def alternative_density(logd, comps):
    """-X(n! det R / a) times a, from the same evaluators as direct_density.

    That is -(X(n! det R) - n! det R X(log a)), a third derivative of log a,
    taken by nested jets with no step: the log-density is evaluated once
    per node on the order-2 jet over the coordinates' order-1 jet along X
    (jets.along), so its value and its Ricci density carry X(.) in their d.
    The Ricci density's gates read the values of R."""
    def density(coords):
        shape = coords.shape[:-1]
        log_a = jets.evaluate(logd, jets.along(coords, comps(coords)), 2)
        top = calculus.ricci_top_field(log_a, coords)
        top_value = top.value if isinstance(top, jets.Jet) else top
        return -(_along_x(top, shape) - top_value * _along_x(log_a.value, shape))
    return density


# route name, as `holoinv invariant --method` spells it -> density builder
ROUTE_DENSITIES = {"direct": direct_density, "alt": alternative_density}


def _integrate_route(m: ManifoldSpec, vol: VolumeFormSpec, x: VectorFieldSpec,
                     density_for, q: QuadratureSpec) -> IntegrationResult:
    """2^n times the integral of the route's density over the fundamental domain.

    Each piece is integrated in its own chart, with the route's density
    built from that chart's log-density and field components; values and
    refinement error estimates add up over the pieces.
    """
    factor = 2.0 ** m.dimension
    total = None
    for chart_id, dom in m.fundamental_domain.items():
        density = density_for(vol.log_density[chart_id], x.components[chart_id])
        res = integrate(lambda coords: density(coords) * factor, dom, q)
        # summed from the first piece: 0 + (-0.0) would flip the sign of a zero
        total = res if total is None else IntegrationResult(*map(operator.add, total, res))
    return total


def invariant_direct(m: ManifoldSpec, vol: VolumeFormSpec, x: VectorFieldSpec, *,
                     q: QuadratureSpec) -> IntegrationResult:
    """Invariant by direct quadrature of div X times the top Ricci density.

    Callers are responsible for the membership contracts (the volume form
    automorphic, the field deck-invariant and holomorphic); the registry
    bundles satisfy them by construction and the check suites verify them.
    """
    return _integrate_route(m, vol, x, direct_density, q)


def invariant_alternative(m: ManifoldSpec, vol: VolumeFormSpec, x: VectorFieldSpec, *,
                          q: QuadratureSpec) -> IntegrationResult:
    """Invariant as -integral of X(n! det R / a) against the volume form."""
    return _integrate_route(m, vol, x, alternative_density, q)


def interpolated_volume(vol0: VolumeFormSpec, vol1: VolumeFormSpec,
                        t: float) -> VolumeFormSpec:
    """Log-linear interpolation between two automorphic volume forms.

    At parameter t the log-density is (1-t) log a0 + t log a1 and the
    character is chi_0^(1-t) chi_1^t, so every slice is automorphic by
    construction. No volume normalization is applied.
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

    # no np.asarray: a log-density evaluated on a jet returns a jet
    def blend(a0, a1):
        return lambda coords: (1.0 - t) * a0(coords) + t * a1(coords)

    return VolumeFormSpec(
        name=f"{vol0.name}~{vol1.name}@t={t:g}",
        log_density={c: blend(vol0.log_density[c], vol1.log_density[c]) for c in charts},
        character=Character({name: chi0[name] ** (1.0 - t) * chi1[name] ** t
                             for name in chi0}),
    )


def deformation_invariant_curve(m: ManifoldSpec, vol0: VolumeFormSpec,
                                vol1: VolumeFormSpec, x: VectorFieldSpec,
                                t_grid: Sequence[float], *, q: QuadratureSpec):
    """Direct invariant along the interpolation family, one result per t."""
    out = []
    for t in t_grid:
        vol = interpolated_volume(vol0, vol1, float(t))
        out.append((float(t), invariant_direct(m, vol, x, q=q)))
    return out
