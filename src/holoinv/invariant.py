"""Assembly of the integral invariant from divergence and Ricci densities.

Two equivalent routes are implemented. The direct form integrates
div X * (top-degree Ricci density) over the fundamental domain; the
alternative form integrates -X(n! det R / a) * a and probes third
derivatives of the log-density, so it is noisier by construction.

Normalization is fixed once: the top power of the Ricci form has density
n! * det(R) against prod_i (i dz^i ^ dzbar^i), and each factor
i dz ^ dzbar equals 2 dx ^ dy, hence the 2^n below. Residue sums from
fixed-point data compare against these values through the factor
(2pi)^n / (n + 1).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from . import calculus, jets
from .geometry import Character, ManifoldSpec, VectorFieldSpec, VolumeFormSpec
from .quadrature import IntegrationResult, QuadratureSpec, integrate

NORMALIZATION = ("rho^n density = n!*det(R) against prod_i(i dz^i^dzbar^i); "
                 "i dz^dzbar = 2 dx^dy; residue comparisons scaled by (2pi)^n/(n+1)")


@dataclass(frozen=True)
class InvariantResult:
    """Value of the invariant with its error budget and conventions."""

    value: complex
    error_estimate: float
    method: str
    normalization: ClassVar[str] = NORMALIZATION

    def __post_init__(self):
        if not self.error_estimate >= 0:
            raise ValueError("error_estimate must be nonnegative")


def direct_density(logd, exact, comps):
    """div X times the top Ricci density, from one chart's evaluators: the
    log-density, the closed-form Ricci matrix or None, the field components.
    One log-density jet per block serves both factors: order 2, whose mixed
    second derivatives give the Ricci matrix, or order 1 beside a closed
    form. No step is taken: the log-density and the field are evaluated at
    the nodes only."""
    order = 2 if exact is None else 1

    def density(coords):
        log_a = jets.evaluate(logd, coords, order)
        div = calculus.divergence_field(comps, log_a, coords)
        return div * calculus.ricci_top_field(log_a, coords, exact=exact)
    return density


def alternative_density(logd, exact, comps):
    """-X(n! det R / a) times a, from the same evaluators as direct_density.

    X(.) is the directional stencil over the ratio n! det R / a, whose
    derivatives would need third-order jets. Without a closed form, one
    order-2 log-density jet per stencil node gives both R and 1 / a."""
    def ratio(coords):
        if exact is None:
            jet = jets.evaluate(logd, coords, 2)
            top, log_a = calculus.ricci_top_field(jet, coords), jet.value
        else:
            top, log_a = calculus.ricci_top_field(logd, coords, exact=exact), logd(coords)
        return top * np.exp(-np.asarray(log_a, dtype=float))

    def density(coords):
        directional = calculus.directional_derivative(ratio, coords, comps(coords))
        weight = np.exp(np.asarray(logd(coords), dtype=float))
        return -directional * weight
    return density


# route name, as `holoinv invariant --method` spells it -> density builder
ROUTE_DENSITIES = {"direct": direct_density, "alt": alternative_density}


def piece_density(vol: VolumeFormSpec, x: VectorFieldSpec, chart_id: str, density_for):
    """A route's density on the piece in chart `chart_id`: density_for(log-density,
    exact Ricci or None, field components) of that chart."""
    return density_for(vol.log_density[chart_id], vol.exact_ricci.get(chart_id),
                       x.components[chart_id])


def _integrate_route(m: ManifoldSpec, vol: VolumeFormSpec, x: VectorFieldSpec,
                     density_for, q: QuadratureSpec, method: str) -> InvariantResult:
    """2^n times the integral of the route's density over the fundamental domain.

    Each piece is integrated in its own chart, with piece_density; values
    and refinement error estimates add up over the pieces.
    """
    factor = 2.0 ** m.dimension
    total = None
    for chart_id, dom in m.fundamental_domain.items():
        density = piece_density(vol, x, chart_id, density_for)
        res = integrate(lambda coords: density(coords) * factor, dom, q)
        # summed from the first piece: 0 + (-0.0) would flip the sign of a zero
        total = res if total is None else IntegrationResult(*map(operator.add, total, res))
    return InvariantResult(total.value, total.error_estimate, method)


def invariant_direct(m: ManifoldSpec, vol: VolumeFormSpec, x: VectorFieldSpec, *,
                     q: QuadratureSpec) -> InvariantResult:
    """Invariant by direct quadrature of div X times the top Ricci density.

    Callers are responsible for the membership contracts (the volume form
    automorphic, the field deck-invariant and holomorphic); the registry
    bundles satisfy them by construction and the check suites verify them.
    """
    return _integrate_route(m, vol, x, direct_density, q, "direct")


def invariant_alternative(m: ManifoldSpec, vol: VolumeFormSpec, x: VectorFieldSpec, *,
                          q: QuadratureSpec) -> InvariantResult:
    """Invariant as -integral of X(n! det R / a) against the volume form."""
    return _integrate_route(m, vol, x, alternative_density, q, "alternative")


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
        # the Ricci matrix is linear in the log-density
        exact_ricci={c: blend(vol0.exact_ricci[c], vol1.exact_ricci[c]) for c in charts
                     if c in vol0.exact_ricci and c in vol1.exact_ricci},
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
