"""Chart-based descriptions of explicit compact complex manifolds.

A manifold is presented as a covering space with a chart atlas, a deck
group acting by explicit holomorphic maps, a positive character of that
group, and a fundamental domain cut into pieces, one per chart, that tile
the quotient and overlap only in measure zero. Volume forms are stored
through their per-chart log-densities so positivity is structural; vector
fields through their per-chart holomorphic components. Membership contracts
(automorphy of a volume form, deck invariance and holomorphy of a field)
are verified by deterministic sampling rather than symbolically.

Verifiers only measure: each returns its {label: residual} mapping, and the
check suites declared on the example bundles judge the largest residual
against their bounds. An empty mapping measured nothing (no deck generator,
no shared chart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import calculus
from .errors import DomainError, EvaluationError
from .quadrature import IntegrationDomain

DEFAULT_SAMPLES = 256


@dataclass(frozen=True)
class Transition:
    """Holomorphic coordinate change between two overlapping charts."""

    source: str
    target: str
    apply: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    sample_overlap: Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class DeckGenerator:
    """A deck transformation with its explicit inverse and Jacobian."""

    name: str
    apply: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Character:
    """Homomorphism from the deck group to the positive reals.

    Stored as the values on the generators; the value on a word is the
    product over its letters.
    """

    generator_values: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, value in self.generator_values.items():
            if not value > 0:
                raise ValueError(f"character value on '{name}' must be positive, got {value}")

    def value(self, generator: str) -> float:
        return float(self.generator_values[generator])


TRIVIAL_CHARACTER = Character({})


@dataclass(frozen=True)
class VolumeFormSpec:
    """An automorphic volume form given by per-chart log-densities.

    `exact_ricci` maps chart ids to closed-form evaluators of the Ricci
    coefficient matrix; charts without an entry fall back to numerical
    differentiation.
    """

    name: str
    log_density: Mapping[str, Callable[[np.ndarray], np.ndarray]]
    character: Character = TRIVIAL_CHARACTER
    exact_ricci: Mapping[str, Callable[[np.ndarray], np.ndarray]] = field(default_factory=dict)


@dataclass(frozen=True)
class VectorFieldSpec:
    """A deck-invariant holomorphic vector field via per-chart components."""

    name: str
    components: Mapping[str, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class ManifoldSpec:
    """Atlas, deck group, and the fundamental domain's pieces by chart id.

    `atlas` maps each chart id to its containment predicate over C^n
    coordinates. The direct route evaluates at the quadrature nodes only:
    its derivatives come from jets, which take no step. The stencils take
    one constant step h = calculus.DEFAULT_STEP: the alternative route's
    directional stencil along X samples at most 2h from a node, so each
    piece must lie that far inside its chart, and the stencil primitives
    reach 4h (the mixed Hessian) from the points they are given. Every
    registered piece does: cp1's charts are all of C, and hopf's piece
    keeps |z| >= 1.
    """

    name: str
    dimension: int
    atlas: Mapping[str, Callable[[np.ndarray], np.ndarray]]
    deck_group: tuple[DeckGenerator, ...]
    fundamental_domain: Mapping[str, IntegrationDomain]
    transitions: tuple[Transition, ...] = ()

    def __post_init__(self):
        if not self.fundamental_domain:
            raise ValueError("fundamental domain has no piece")
        for chart_id in self.fundamental_domain:
            if chart_id not in self.atlas:
                raise ValueError(f"domain piece in chart '{chart_id}' not in atlas")


def _sample_box(dom: IntegrationDomain, samples: int, rng) -> np.ndarray:
    """Uniform box points (samples, axes) of one domain piece."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    lo, hi = np.array(dom.box).T
    return rng.uniform(lo, hi, size=(samples, len(dom.box)))


def sample_domain_points(dom: IntegrationDomain, samples: int, seed: int = 0) -> np.ndarray:
    """Deterministic sample of chart coordinates from one domain piece."""
    return dom.to_chart(_sample_box(dom, samples, np.random.default_rng(seed)))


def _require_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise EvaluationError(f"non-finite {what}")


def _require_in_chart(m: ManifoldSpec, chart_id, coords, what):
    inside = np.asarray(m.atlas[chart_id](coords), dtype=bool)
    if not np.all(inside):
        raise DomainError(f"{what} outside chart '{chart_id}'")


def _worst(values, what) -> float:
    """Largest entry of a residual batch; a non-finite one raises EvaluationError."""
    worst = float(np.max(values))
    _require_finite(worst, f"{what} residual")
    return worst


def _piece_residuals(m: ManifoldSpec, samples, seed, measure) -> dict[str, float]:
    """Worst residual per label of measure(chart_id, pts) over the domain pieces."""
    residuals = {}
    for chart_id, dom in m.fundamental_domain.items():
        pts = sample_domain_points(dom, samples, seed)
        for label, value in measure(chart_id, pts).items():
            residuals[label] = max(value, residuals.get(label, value))
    return residuals


def _cauchy_riemann(fn, pts, scale, what) -> float:
    """Largest |d fn_i / dzbar^j| / scale over components i and axes j."""
    dbar = np.conj(calculus.holomorphic_derivative(lambda c: np.conj(fn(c)), pts))
    return _worst(np.abs(dbar) / scale[..., None, None], f"Cauchy-Riemann stencil of {what}")


def _transition_residuals(m: ManifoldSpec, charts, samples, seed,
                          residual) -> dict[str, float]:
    """Worst residual(tr, pts) per `source->target` on the sampled overlaps.

    Transitions whose charts are not both in `charts` are skipped.
    """
    rng = np.random.default_rng(seed)
    residuals = {}
    for tr in m.transitions:
        if tr.source not in charts or tr.target not in charts:
            continue
        label = f"{tr.source}->{tr.target}"
        residuals[label] = _worst(residual(tr, tr.sample_overlap(rng, samples)),
                                  f"transition {label}")
    return residuals


def verify_automorphic(vol: VolumeFormSpec, m: ManifoldSpec,
                       samples: int = DEFAULT_SAMPLES, seed: int = 0) -> dict[str, float]:
    """Check gamma*Omega = chi(gamma) Omega on sampled points.

    For each deck generator the residual is
    |log a(gamma p) + log|det d gamma|^2 - log a(p) - log chi(gamma)|,
    which vanishes exactly when the volume form is automorphic for its
    character.
    """
    def measure(chart_id, pts):
        _require_in_chart(m, chart_id, pts, "sample point")
        logd = vol.log_density[chart_id]
        base = np.asarray(logd(pts), dtype=float)
        _require_finite(base, f"log-density of '{vol.name}'")
        residuals = {}
        for g in m.deck_group:
            image = np.asarray(g.apply(pts))
            _require_in_chart(m, chart_id, image, f"image under '{g.name}'")
            shifted = np.asarray(logd(image), dtype=float)
            _require_finite(shifted, f"log-density of '{vol.name}' at deck images")
            jac = np.asarray(g.jacobian(pts))
            log_jac2 = 2.0 * np.log(np.abs(np.linalg.det(jac)))
            residuals[g.name] = _worst(
                np.abs(shifted + log_jac2 - base - math.log(vol.character.value(g.name))),
                f"automorphy of '{vol.name}' under '{g.name}'")
        return residuals

    return _piece_residuals(m, samples, seed, measure)


def verify_invariant_field(x: VectorFieldSpec, m: ManifoldSpec,
                           samples: int = DEFAULT_SAMPLES, seed: int = 0) -> dict[str, float]:
    """Check deck invariance d gamma(X(p)) = X(gamma p) and holomorphy of X.

    Holomorphy is measured as the largest antiholomorphic Wirtinger
    derivative of any component along any axis (the Cauchy-Riemann
    residual). Both residuals are taken relative to 1 + |X| at the sample
    point, so fields of polynomial growth on noncompact charts are judged
    by their local scale.
    """
    def measure(chart_id, pts):
        comps = x.components[chart_id]
        values = np.asarray(comps(pts))
        _require_finite(values, f"components of '{x.name}'")
        scale = 1.0 + np.abs(values).max(axis=-1)

        invariance = 0.0
        for g in m.deck_group:
            image = np.asarray(g.apply(pts))
            _require_in_chart(m, chart_id, image, f"image under '{g.name}'")
            pushed = np.einsum("...ij,...j->...i", np.asarray(g.jacobian(pts)), values)
            there = np.asarray(comps(image))
            gap = np.abs(pushed - there).max(axis=-1) / scale
            invariance = max(invariance, _worst(
                gap, f"deck invariance of '{x.name}' under '{g.name}'"))
        return {"deck_invariance": invariance,
                "cauchy_riemann": _cauchy_riemann(comps, pts, scale, f"'{x.name}'")}

    return _piece_residuals(m, samples, seed, measure)


def deck_group_report(m: ManifoldSpec, samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> dict[str, float]:
    """Check generator/inverse composition and holomorphy of the deck maps.

    Residuals are relative to 1 + |p| (resp. 1 + |gamma(p)|) at the sample.
    """
    def measure(chart_id, pts):
        scale = 1.0 + np.abs(pts).max(axis=-1)
        residuals = {}
        for g in m.deck_group:
            image = np.asarray(g.apply(pts))
            image_scale = 1.0 + np.abs(image).max(axis=-1)
            round_trip = np.asarray(g.inverse(image))
            residuals[f"inverse_composition:{g.name}"] = _worst(
                np.abs(round_trip - pts).max(axis=-1) / scale,
                f"inverse composition of '{g.name}'")
            residuals[f"cauchy_riemann:{g.name}"] = _cauchy_riemann(
                g.apply, pts, image_scale, f"deck map '{g.name}'")
        return residuals

    return _piece_residuals(m, samples, seed, measure)


def verify_volume_transitions(vol: VolumeFormSpec, m: ManifoldSpec,
                              samples: int = DEFAULT_SAMPLES, seed: int = 0) -> dict[str, float]:
    """Check that per-chart log-densities describe one global volume form.

    On an overlap, a_source(z) = a_target(T(z)) * |det dT(z)|^2.
    Transitions whose charts lack a registered density are skipped.
    """
    def residual(tr, pts):
        src = np.asarray(vol.log_density[tr.source](pts), dtype=float)
        mapped = np.asarray(tr.apply(pts))
        tgt = np.asarray(vol.log_density[tr.target](mapped), dtype=float)
        log_jac2 = 2.0 * np.log(np.abs(np.linalg.det(np.asarray(tr.jacobian(pts)))))
        _require_finite(src, "source log-density")
        _require_finite(tgt, "target log-density")
        return np.abs(src - tgt - log_jac2)

    return _transition_residuals(m, vol.log_density, samples, seed, residual)


def verify_field_transitions(x: VectorFieldSpec, m: ManifoldSpec,
                             samples: int = DEFAULT_SAMPLES, seed: int = 0) -> dict[str, float]:
    """Check components transform by the transition Jacobian across overlaps."""
    def residual(tr, pts):
        src = np.asarray(x.components[tr.source](pts))
        pushed = np.einsum("...ij,...j->...i", np.asarray(tr.jacobian(pts)), src)
        tgt = np.asarray(x.components[tr.target](np.asarray(tr.apply(pts))))
        return np.abs(pushed - tgt)

    return _transition_residuals(m, x.components, samples, seed, residual)


def verify_invariant_axes(density_for: Callable[[str], Callable], m: ManifoldSpec,
                          samples: int = DEFAULT_SAMPLES, seed: int = 0) -> dict[str, float]:
    """Check that a density times the measure is constant along each piece's
    invariant axes.

    Quadrature takes one node on an axis the piece declares "invariant", and
    its refinement gap cannot see that axis, so this check is the only guard
    of the declaration. On each such piece, g is density_for(chart_id) at
    the chart point times the piece's measure, the function quadrature sums;
    box points p are drawn as sample_domain_points draws them, p' is p with
    its invariant coordinates redrawn uniformly, and the residual, keyed by
    chart id, is max |g(p) - g(p')|. Pieces without an invariant axis are
    not measured.
    """
    residuals = {}
    for chart_id, dom in m.fundamental_domain.items():
        axes = [i for i, rule in enumerate(dom.rules) if rule == "invariant"]
        if not axes:
            continue
        rng = np.random.default_rng(seed)
        pts = _sample_box(dom, samples, rng)
        moved = pts.copy()
        lo, hi = np.array(dom.box)[axes].T
        moved[:, axes] = rng.uniform(lo, hi, size=(samples, len(axes)))
        density = density_for(chart_id)

        def g(box_pts):
            values = np.asarray(density(dom.to_chart(box_pts)))
            if dom.measure_map is None:
                return values
            return values * np.asarray(dom.measure_map(box_pts), dtype=float)

        residuals[chart_id] = _worst(np.abs(g(pts) - g(moved)),
                                     f"invariant axes of piece '{chart_id}'")
    return residuals
