"""Chart-based descriptions of explicit compact complex manifolds.

A manifold is presented as a covering space with a chart atlas, a deck
group acting by explicit holomorphic maps, a positive character of that
group, and a fundamental domain cut into pieces, at most one per chart,
that tile the quotient and overlap only in measure zero. Volume forms are
stored through their per-chart log-densities so positivity is structural;
vector fields through their per-chart holomorphic components. Membership
contracts (automorphy of a volume form, deck invariance and holomorphy of a
field) are verified by deterministic sampling rather than symbolically, in
every chart with a piece and in every chart a transition reaches. No
Jacobian is declared: the checks derive those of deck maps and chart
transitions, and every Cauchy-Riemann residual, from one order-1 jet call
(holoinv.jets) of the map or field, which must therefore be jet-safe.

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

from . import jets, quadrature
from .errors import DomainError, EvaluationError
from .quadrature import IntegrationDomain, QuadratureSpec

DEFAULT_SAMPLES = 256
# Every sampled suite of every example completes at this count within a
# 2 GB address space; a larger count is refused before any array is made.
MAX_SAMPLES = 1_000_000


def _check_samples(samples: int) -> None:
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be between 1 and {MAX_SAMPLES:,}, got {samples}")


@dataclass(frozen=True)
class Transition:
    """Holomorphic coordinate change between two overlapping charts; `apply` is jet-safe."""

    source: str
    target: str
    apply: Callable[[np.ndarray], np.ndarray]
    sample_overlap: Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class DeckGenerator:
    """A deck transformation with its explicit inverse; `apply` is jet-safe."""

    name: str
    apply: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]


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
    coefficient matrix, kept as references for checks (the convergence
    suite) only: no route reads them, every route takes R from jets of the
    log-density.
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
    coordinates. No route or membership check leaves the points it
    evaluates: they take their derivatives from jets, which take no step.
    Only the convergence suite steps, by h = calculus.DEFAULT_STEP, and
    reaches 4h (the mixed Hessian) from the points it is given.
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
    _check_samples(samples)
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


def sample_chart_points(m: ManifoldSpec, samples: int, seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic sample of chart coordinates per chart id: a chart with a
    domain piece is sampled there, as sample_domain_points samples it, and a
    chart without one at the images of the first transition into it from a
    chart with a piece, applied to that piece's sample. A chart that is
    neither gets no entry."""
    points = {chart_id: sample_domain_points(dom, samples, seed)
              for chart_id, dom in m.fundamental_domain.items()}
    for tr in m.transitions:
        if tr.source in m.fundamental_domain and tr.target not in points:
            points[tr.target] = np.asarray(tr.apply(points[tr.source]))
    return points


def _chart_residuals(m: ManifoldSpec, samples, seed, measure) -> dict[str, float]:
    """Worst residual per label of measure(chart_id, pts) over every chart
    sample_chart_points samples: the domain pieces, and the charts that only
    transitions reach."""
    residuals = {}
    for chart_id, pts in sample_chart_points(m, samples, seed).items():
        for label, value in measure(chart_id, pts).items():
            residuals[label] = max(value, residuals.get(label, value))
    return residuals


def _wirtinger(fn, pts):
    """fn's value (..., n) at pts with its Wirtinger Jacobians d fn_i / dz^j
    and d fn_i / dzbar^j, each (..., n, n), from one call of fn on the order-1
    jet of the coordinates: exact to rounding, with no step."""
    out = jets.evaluate(fn, pts, 1)

    def table(parts):
        return np.stack([np.broadcast_to(0.0 if p is None else p, pts.shape)
                         for p in parts], axis=-1)

    return np.asarray(out.value), table(out.d), table(out.dbar)


def _cauchy_riemann(dbar, scale, what) -> float:
    """Largest |d fn_i / dzbar^j| / scale over components i and axes j."""
    return _worst(np.abs(dbar) / scale[..., None, None], f"Cauchy-Riemann residual of {what}")


def _volume_gap(vol: VolumeFormSpec, source, target, pts, image, jac, log_chi=0.0):
    """|log a(image) + log|det jac|^2 - log a(pts) - log chi| per point, the
    densities read in charts `target` and `source`: the pull-back gap of a
    map T with T(pts) = image and dT = jac, zero where T*Omega = chi Omega."""
    here = np.asarray(vol.log_density[source](pts), dtype=float)
    _require_finite(here, f"log-density of '{vol.name}' in chart '{source}'")
    there = np.asarray(vol.log_density[target](image), dtype=float)
    _require_finite(there, f"log-density of '{vol.name}' at images in chart '{target}'")
    return np.abs(there + 2.0 * np.log(np.abs(np.linalg.det(jac))) - here - log_chi)


def _push_gap(x: VectorFieldSpec, target, values, image, jac):
    """max_i |(jac . values)_i - X_i(image)| per point, X read in chart
    `target`: the push-forward gap, zero where dT X = X o T."""
    pushed = np.einsum("...ij,...j->...i", jac, values)
    return np.abs(pushed - np.asarray(x.components[target](image))).max(axis=-1)


def _transition_residuals(m: ManifoldSpec, charts, samples, seed,
                          residual) -> dict[str, float]:
    """Worst residual(tr, pts, T(pts), dT(pts)) per `source->target` on the
    sampled overlaps; transitions whose charts are not both in `charts` are skipped.
    """
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    residuals = {}
    for tr in m.transitions:
        if tr.source not in charts or tr.target not in charts:
            continue
        label = f"{tr.source}->{tr.target}"
        pts = tr.sample_overlap(rng, samples)
        image, jac, _ = _wirtinger(tr.apply, pts)
        residuals[label] = _worst(residual(tr, pts, image, jac), f"transition {label}")
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
        residuals = {}
        for g in m.deck_group:
            image, jac, _ = _wirtinger(g.apply, pts)
            _require_in_chart(m, chart_id, image, f"image under '{g.name}'")
            gap = _volume_gap(vol, chart_id, chart_id, pts, image, jac,
                              math.log(vol.character.value(g.name)))
            residuals[g.name] = _worst(gap, f"automorphy of '{vol.name}' under '{g.name}'")
        return residuals

    return _chart_residuals(m, samples, seed, measure)


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
        values, _, dbar = _wirtinger(x.components[chart_id], pts)
        _require_finite(values, f"components of '{x.name}'")
        scale = 1.0 + np.abs(values).max(axis=-1)

        invariance = 0.0
        for g in m.deck_group:
            image, jac, _ = _wirtinger(g.apply, pts)
            _require_in_chart(m, chart_id, image, f"image under '{g.name}'")
            gap = _push_gap(x, chart_id, values, image, jac) / scale
            invariance = max(invariance, _worst(
                gap, f"deck invariance of '{x.name}' under '{g.name}'"))
        return {"deck_invariance": invariance,
                "cauchy_riemann": _cauchy_riemann(dbar, scale, f"'{x.name}'")}

    return _chart_residuals(m, samples, seed, measure)


def deck_group_report(m: ManifoldSpec, samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> dict[str, float]:
    """Check generator/inverse composition and holomorphy of the deck maps.

    Residuals are relative to 1 + |p| (resp. 1 + |gamma(p)|) at the sample.
    """
    def measure(chart_id, pts):
        scale = 1.0 + np.abs(pts).max(axis=-1)
        residuals = {}
        for g in m.deck_group:
            image, _, dbar = _wirtinger(g.apply, pts)
            image_scale = 1.0 + np.abs(image).max(axis=-1)
            round_trip = np.asarray(g.inverse(image))
            residuals[f"inverse_composition:{g.name}"] = _worst(
                np.abs(round_trip - pts).max(axis=-1) / scale,
                f"inverse composition of '{g.name}'")
            residuals[f"cauchy_riemann:{g.name}"] = _cauchy_riemann(
                dbar, image_scale, f"deck map '{g.name}'")
        return residuals

    return _chart_residuals(m, samples, seed, measure)


def verify_volume_transitions(vol: VolumeFormSpec, m: ManifoldSpec,
                              samples: int = DEFAULT_SAMPLES, seed: int = 0) -> dict[str, float]:
    """Check that per-chart log-densities describe one global volume form.

    On an overlap, a_source(z) = a_target(T(z)) * |det dT(z)|^2.
    Transitions whose charts lack a registered density are skipped.
    """
    def residual(tr, pts, image, jac):
        return _volume_gap(vol, tr.source, tr.target, pts, image, jac)

    return _transition_residuals(m, vol.log_density, samples, seed, residual)


def verify_field_transitions(x: VectorFieldSpec, m: ManifoldSpec,
                             samples: int = DEFAULT_SAMPLES, seed: int = 0) -> dict[str, float]:
    """Check components transform by the transition Jacobian across overlaps."""
    def residual(tr, pts, image, jac):
        values = np.asarray(x.components[tr.source](pts))
        return _push_gap(x, tr.target, values, image, jac)

    return _transition_residuals(m, x.components, samples, seed, residual)


def verify_invariant_axes(density_for: Callable[[str], Callable], m: ManifoldSpec,
                          q: QuadratureSpec, samples: int = DEFAULT_SAMPLES,
                          seed: int = 0) -> dict[str, float]:
    """Check that a density times the measure honours each piece's
    "invariant" and "band-limited" axes.

    Quadrature takes one node on an invariant axis, and the same p
    trapezoid nodes (p from q), staggered, at every level on a band-limited
    one; its refinement gap cannot see either declaration fail, so this
    check is their only guard. On each such piece, g is density_for(chart_id)
    at the chart point times the piece's measure, the function quadrature
    sums, and box points p are drawn as sample_domain_points draws them.
    An invariant axis compares g(p) with g(p'), p' being p with its
    invariant coordinates redrawn uniformly. The band-limited axes keep p's
    other coordinates and compare the mean of g over their joint grid of
    p_1 x ... x p_k trapezoid nodes at offset 0 with its mean at a random
    joint offset, which catches an aliased frequency the stagger misses,
    such as (p, p). The residual, keyed by chart id, is the largest
    difference of either kind. Pieces with neither axis are not measured.
    """
    residuals = {}
    for chart_id, dom in m.fundamental_domain.items():
        invariant = [i for i, rule in enumerate(dom.rules) if rule == "invariant"]
        banded = [i for i, rule in enumerate(dom.rules) if rule == "band-limited"]
        if not (invariant or banded):
            continue
        counts = [quadrature._axis_points(q, dom)[i] for i in banded]
        if math.prod(counts) > quadrature._MAX_NODES:
            raise ValueError(f"the band-limited grid of piece '{chart_id}' has more than "
                             f"{quadrature._MAX_NODES} nodes; lower the points per axis")
        rng = np.random.default_rng(seed)
        pts = _sample_box(dom, samples, rng)
        density = density_for(chart_id)

        def g(box_pts):
            values = np.asarray(density(dom.to_chart(box_pts)))
            if dom.measure_map is None:
                return values
            return values * np.asarray(dom.measure_map(box_pts), dtype=float)

        gaps = []
        if invariant:
            moved = pts.copy()
            lo, hi = np.array(dom.box)[invariant].T
            moved[:, invariant] = rng.uniform(lo, hi, size=(samples, len(invariant)))
            gaps.append(np.abs(g(pts) - g(moved)))
        if banded:
            gaps.append(_grid_mean_gaps(g, dom, pts, banded, np.array(counts), rng))
        residuals[chart_id] = _worst(np.concatenate(gaps),
                                     f"invariant axes of piece '{chart_id}'")
    return residuals


def _grid_mean_gaps(g, dom: IntegrationDomain, pts, axes, counts, rng) -> np.ndarray:
    """|mean of g over the trapezoid grid of `axes` at a random joint
    offset - its mean at offset 0| per point of pts, the other coordinates
    kept; g sees at most _CELL_NODES nodes per call, as a density does, or one
    point's grid where that is larger, so its jet temporaries stay bounded."""
    lo, hi = np.array(dom.box)[axes].T
    grid = np.stack(np.meshgrid(*map(np.arange, counts), indexing="ij"), axis=-1)
    grid = grid.reshape(-1, len(axes))
    offsets = rng.uniform(0.0, 1.0, size=(len(pts), len(axes)))
    step = max(1, quadrature._CELL_NODES // len(grid))

    def means(chunk, offset):
        nodes = np.repeat(chunk[:, None, :], len(grid), axis=1)
        nodes[:, :, axes] = lo + (hi - lo) * (grid + offset[:, None, :]) / counts
        return g(nodes.reshape(-1, pts.shape[1])).reshape(len(chunk), -1).mean(axis=1)

    return np.concatenate([
        np.abs(means(pts[i:i + step], offsets[i:i + step])
               - means(pts[i:i + step], np.zeros_like(offsets[i:i + step])))
        for i in range(0, len(pts), step)])
