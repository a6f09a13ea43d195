"""Built-in manifolds, volume forms, vector fields and fixed-point data.

Four bundles ship with the package:

* ``cp1``  - the projective line through its two affine charts, integrated
  as one piece: the affine chart in the moment coordinate of the rotation,
  mu = |z|^2/(1+|z|^2) in [0, 1], and theta, so z = sqrt(mu/(1-mu))
  e^{i theta} and the Lebesgue measure is 1/(2(1-mu)^2). The box covers the
  whole line but the point at infinity, mu = 1, which no Gauss node reaches.
  The chart at infinity w = 1/z carries every evaluator too, for the
  membership checks and their transitions. The rotation-invariant density
  1/(1+|z|^2)^2, and the same density times exp(B) for the real-analytic
  bump B = exp(-|z-1|^2/(1+|z|^2)). B is invariant under z -> 1/z, so each
  density has one formula in both charts. With the three global holomorphic
  fields. A job takes 10*16 + 20*32 = 800 nodes over two levels: the bars
  come from theta's aliasing at level 1, and 10 Gauss points per mu panel
  leave them as 20 did.
* ``hopf`` - the Hopf surface (C^2 minus 0) / (z -> 2z), integration over
  the fundamental domain 1 <= |z| <= 2 in the coordinates (t, u, theta1,
  theta2): t = log|z|, where the deck map is t -> t + log 2, and the torus
  moment coordinate u = |z2|^2/|z|^2 in [0, 1], so z = e^t (sqrt(1-u)
  e^{i theta1}, sqrt(u) e^{i theta2}) and the Lebesgue measure is e^{4t}/2.
  Ships the cone density r^-4 (trivial character), the Lebesgue density
  (character value 16 = |det of the doubling map|^2) and a deck-invariant
  angular perturbation of r^-4. Every registered integrand is invariant
  under all real dilations z -> lambda z, not only under the deck map, so
  the domain declares t an invariant axis: one node, weighted log 2. Every
  registered integrand is also a trigonometric polynomial in (theta1,
  theta2) of charges k(2, -1), |k| <= 3, so the domain declares both angles
  band-limited. theta2's 4 staggered trapezoid nodes integrate every such
  charge with k != 0 to zero whatever theta1's nodes, so theta1 keeps the
  minimum of 2. What the angles leave is a polynomial in u of degree <= 4,
  which 3 Gauss-Legendre nodes per panel integrate exactly, so a job takes
  1*3*2*4 + 1*6*2*4 = 72 nodes over two levels and every bar is rounding.
  The `invariance` suite's `axis:` rows test the t and angle declarations
  by sampling. x1 and x2 carry fixed-point data, each a flat elliptic curve
  of residue 0.
* ``hopf-blowup`` - fixed-point data only: the Hopf surface blown up at an
  interior point, for the lift of z1 d/dz1. Its zero set is one isolated
  nondegenerate point on the exceptional curve (linearization weights 1
  and -1) plus an elliptic curve with trivial tangent degree whose normal
  bundle is dual to the exceptional class.
* ``blcp2`` - stretch example, fixed-point data only: the projective plane
  blown up at one fixed point of a circle action whose linearization there
  is -identity, so the exceptional curve is fixed pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional

import numpy as np

from .geometry import (
    Character,
    DeckGenerator,
    ManifoldSpec,
    Transition,
    TRIVIAL_CHARACTER,
    VectorFieldSpec,
    VolumeFormSpec,
)
from .localization import FixedPointData, ZeroComponent
from .quadrature import IntegrationDomain, QuadratureSpec

# Sampled membership checks of every example with a chart atlas; residuals
# across chart transitions are held to their own, tighter bound.
_MEMBERSHIP_SUITES = {
    "automorphy": {"bound": 1e-8, "transitions_bound": 1e-10},
    "invariance": {"bound": 1e-8, "transitions_bound": 1e-10},
}


@dataclass(frozen=True)
class ExampleBundle:
    """Immutable collection of everything known about one example."""

    name: str
    manifold: Optional[ManifoldSpec]
    volumes: Mapping[str, VolumeFormSpec]
    fields: Mapping[str, VectorFieldSpec]
    # field name -> zero-set data of that field; empty when there is none
    fixed_points: Mapping[str, FixedPointData]
    default_quadrature: Optional[QuadratureSpec]
    notes: str
    # suite name -> parameters of a `holoinv check` suite: volume and field
    # names (read from the bundle the suite runs on), t-grid and bounds. Keys
    # ending in "bound" are |value| + error <= bound tolerances.
    suites: Mapping[str, Mapping] = field(default_factory=dict)


def _abs2(z):
    # one holomorphic times one antiholomorphic factor: on a jet its mixed
    # second derivative is the constant 1, far less arithmetic than Re^2 + Im^2
    return (z * np.conj(z)).real


# ---------------------------------------------------------------------------
# projective line
# ---------------------------------------------------------------------------


def _moment_domain() -> IntegrationDomain:
    """The whole line but the point at infinity, in the moment coordinate
    (mu, theta): mu = |z|^2/(1+|z|^2) in [0, 1] and z = sqrt(mu/(1-mu))
    e^{i theta}, so r dr dtheta = dmu dtheta / (2(1-mu)^2). Gauss nodes never
    reach mu = 1, so no node is at infinity and nothing is cut off."""
    def chart_map(pts):
        mu = pts[..., 0]
        return (np.sqrt(mu / (1.0 - mu)) * np.exp(1j * pts[..., 1]))[..., None]

    return IntegrationDomain(
        box=((0.0, 1.0), (0.0, 2.0 * math.pi)),
        chart_map=chart_map,
        measure_map=lambda pts: 0.5 / (1.0 - pts[..., 0]) ** 2,
        rules=("gauss", "periodic"),
    )


def _fs_log_density(coords):
    return -2.0 * np.log1p(_abs2(coords[..., 0]))


def _fs_exact_ricci(coords):
    r = 2.0 / (1.0 + _abs2(coords[..., 0])) ** 2
    return r[..., None, None].astype(complex)


def _fs_bump_log_density(coords):
    # B = exp(-|z-1|^2/(1+|z|^2)) = exp(-1 + 2 Re z/(1+|z|^2)) is real-analytic
    # on the whole line and B(1/w) = B(w), so one formula serves both charts
    z = coords[..., 0]
    r2 = _abs2(z)
    return np.exp(2.0 * z.real / (1.0 + r2) - 1.0) - 2.0 * np.log1p(r2)


def _inversion_overlap(rng, samples):
    radius = rng.uniform(0.3, 3.0, samples)
    angle = rng.uniform(0.0, 2.0 * math.pi, samples)
    return (radius * np.exp(1j * angle))[..., None]


@lru_cache(maxsize=None)
def _cp1_bundle() -> ExampleBundle:
    def everywhere(coords):
        return np.ones(coords.shape[:-1], dtype=bool)

    def invert(coords):
        return 1.0 / coords

    transitions = (
        Transition("affine", "affine-inf", invert, _inversion_overlap),
        Transition("affine-inf", "affine", invert, _inversion_overlap),
    )

    manifold = ManifoldSpec(
        name="cp1",
        dimension=1,
        atlas={"affine": everywhere, "affine-inf": everywhere},
        deck_group=(),
        fundamental_domain={"affine": _moment_domain()},
        transitions=transitions,
    )

    volumes = {
        "fs": VolumeFormSpec(
            name="fs",
            log_density={"affine": _fs_log_density, "affine-inf": _fs_log_density},
            character=TRIVIAL_CHARACTER,
            # the convergence suite's reference; no route reads it
            exact_ricci={"affine": _fs_exact_ricci, "affine-inf": _fs_exact_ricci},
        ),
        "fs-bump": VolumeFormSpec(
            name="fs-bump",
            log_density={"affine": _fs_bump_log_density,
                         "affine-inf": _fs_bump_log_density},
            character=TRIVIAL_CHARACTER,
        ),
    }

    # in w = 1/z, d/dz = -w^2 d/dw, so z^k d/dz reads -w^(2-k) d/dw
    fields = {
        "z-ddz": VectorFieldSpec("z-ddz", {"affine": lambda c: c,
                                           "affine-inf": lambda c: -c}),
        "ddz": VectorFieldSpec("ddz", {"affine": np.ones_like,
                                       "affine-inf": lambda c: -c ** 2}),
        "z2-ddz": VectorFieldSpec("z2-ddz", {"affine": lambda c: c ** 2,
                                             "affine-inf": lambda c: -np.ones_like(c)}),
    }

    z_ddz_zeros = FixedPointData(
        label="projective line, field z d/dz",
        manifold_dim=1,
        components=(
            ZeroComponent("zero at the origin", 0, Fraction(1), (Fraction(1),)),
            ZeroComponent("zero at infinity", 0, Fraction(-1), (Fraction(-1),)),
        ),
    )

    return ExampleBundle(
        name="cp1",
        manifold=manifold,
        volumes=volumes,
        fields=fields,
        fixed_points={"z-ddz": z_ddz_zeros},
        # 10*16 + 20*32 = 800 nodes per job, one density call with one row.
        # The bars come from theta's aliasing at level 1, not from mu: every
        # registered job's bar is <= 4.6e-11 here, and every count from 9 to
        # 24 Gauss points per mu panel gives the largest, fs-bump's, as
        # 4.58e-11 to 4.59e-11. 8 points under-measure that aliasing,
        # 2.28e-11, and 6 of the 12 jobs then report |value| above their bar
        default_quadrature=QuadratureSpec(points_per_axis=(10, 16), refinement_levels=2),
        notes=("Projective line as one piece in the affine chart, in the moment "
               "coordinate of the rotation mu = |z|^2/(1+|z|^2) and theta: "
               "z = sqrt(mu/(1-mu)) e^{i theta} on the box [0, 1] x [0, 2 pi), "
               "with Lebesgue factor 1/(2(1-mu)^2). The box misses only the point "
               "at infinity, mu = 1, which no Gauss node reaches, so nothing is "
               "cut off; the chart at infinity (w = 1/z) serves the membership "
               "checks. Both densities are smooth positive representatives of the "
               "same curvature class: fs-bump multiplies 1/(1+|z|^2)^2 by "
               "exp(B), where B = exp(-|z-1|^2/(1+|z|^2)) is real-analytic and "
               "B(1/w) = B(w), so each density has one formula in both charts. "
               "The three fields span the global holomorphic fields of the line. "
               "A job takes 10*16 + 20*32 = 800 nodes over two levels: the bars "
               "come from theta's aliasing at level 1, which 10 Gauss points per mu "
               "panel leave as 20 did; 8 would under-measure it."),
        suites={
            **_MEMBERSHIP_SUITES,
            "deformation": {"volumes": ("fs", "fs-bump"), "fields": ("z-ddz",),
                            "t_grid": (0.0, 0.25, 0.5, 0.75, 1.0), "bound": 1e-10},
            # order-4 Ricci stencil against the closed form of `volume`
            "convergence": {"volume": "fs", "bound": 1e-7, "order_floor": 3.5},
        },
    )


# ---------------------------------------------------------------------------
# Hopf surface
# ---------------------------------------------------------------------------


def _hopf_domain() -> IntegrationDomain:
    # box (t, u, theta1, theta2) with t = log|z| and u = |z2|^2/|z|^2, the
    # moment coordinate of the torus acting on the angles: z = e^t
    # (sqrt(1-u) e^{i theta1}, sqrt(u) e^{i theta2}). The Lebesgue measure
    # r^3 dr cos(phi) sin(phi) dphi dtheta1 dtheta2 reads e^{4t}/2 dt du
    # dtheta1 dtheta2 with r = e^t and u = sin^2(phi).
    # Every registered integrand is dilation-invariant: each log-density
    # shifts by a constant under z -> lambda z and each field is linear, so
    # div X and n! det R e^{4t} have degree 0 and density times measure is
    # constant in t. The torus acts on r4 and lebesgue trivially and on
    # r4-bump's bump through its charge (2, -1), so every integrand is a
    # trigonometric polynomial of charges k(2, -1), |k| <= 3, in the angles:
    # band-limited. 4 theta2 nodes alone integrate e^{-ik theta2},
    # 0 < |k| <= 3, to zero at any offset, so any theta1 count is exact.
    # Along u: only derivatives of the log-density enter, polynomials in
    # (z, conj z) over powers of r, and r^2 = 1 on the invariant axis's
    # sphere |z| = 1, so the angle average keeps only the charge-0 monomials
    # |z1|^{2a} |z2|^{2b} = (1-u)^a u^b: a polynomial in u, of degree <= 4
    # for every registered (volume, field, route), which 3 Gauss-Legendre
    # nodes per panel integrate exactly. The invariance suite's axis rows
    # check the t and angle declarations by sampling. cp1's theta stays
    # "periodic", not band-limited, since fs-bump's exp(2 Re z/(1+|z|^2))
    # carries every charge
    def chart_map(pts):
        radius, u = np.exp(pts[..., 0]), pts[..., 1]
        z1 = radius * np.sqrt(1.0 - u) * np.exp(1j * pts[..., 2])
        z2 = radius * np.sqrt(u) * np.exp(1j * pts[..., 3])
        return np.stack([z1, z2], axis=-1)

    def measure_map(pts):
        return 0.5 * np.exp(4.0 * pts[..., 0])

    return IntegrationDomain(
        box=((0.0, math.log(2.0)), (0.0, 1.0),
             (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
        chart_map=chart_map,
        measure_map=measure_map,
        rules=("invariant", "gauss", "band-limited", "band-limited"),
    )


def _hopf_r2(coords):
    return _abs2(coords[..., 0]) + _abs2(coords[..., 1])


def _r4_log_density(coords):
    return -2.0 * np.log(_hopf_r2(coords))


def _lebesgue_log_density(coords):
    return np.zeros(coords.shape[:-1])


def _r4_bump_log_density(coords):
    # the bump is deck-invariant (numerator and r^3 both scale by 8 under
    # z -> 2z) but carries fiber phase weight 1, so its Hessian is not pulled
    # back from the base and the perturbed Ricci matrix is no longer degenerate
    r2 = _hopf_r2(coords)
    bump = (coords[..., 0] ** 2 * np.conj(coords[..., 1])).real / r2 ** 1.5
    return bump - 2.0 * np.log(r2)


@lru_cache(maxsize=None)
def _hopf_bundle() -> ExampleBundle:
    def punctured_contains(coords):
        return _hopf_r2(coords) > 0.0

    def double(coords):
        return 2.0 * coords

    def halve(coords):
        return 0.5 * coords

    manifold = ManifoldSpec(
        name="hopf",
        dimension=2,
        atlas={"punctured": punctured_contains},
        deck_group=(DeckGenerator("double", double, halve),),
        fundamental_domain={"punctured": _hopf_domain()},
    )

    volumes = {
        "r4": VolumeFormSpec(
            name="r4",
            log_density={"punctured": _r4_log_density},
            character=Character({"double": 1.0}),
        ),
        "lebesgue": VolumeFormSpec(
            name="lebesgue",
            log_density={"punctured": _lebesgue_log_density},
            character=Character({"double": 16.0}),
        ),
        "r4-bump": VolumeFormSpec(
            name="r4-bump",
            log_density={"punctured": _r4_bump_log_density},
            character=Character({"double": 1.0}),
        ),
    }

    # coordinate masks rather than item assignment, which jets do not support
    def x1(coords):
        return coords * np.array([1.0, 0.0])

    def x2(coords):
        return coords * np.array([0.0, 1.0])

    def radial(coords):
        return coords

    fields = {
        "x1": VectorFieldSpec("x1", {"punctured": x1}),
        "x2": VectorFieldSpec("x2", {"punctured": x2}),
        "radial": VectorFieldSpec("radial", {"punctured": radial}),
    }

    # z_i d/dz_i vanishes on the elliptic curve {z_i = 0}/(z -> 2z), flat in
    # the Hopf surface (b2 = 0), with linearization 1 on the normal z_i
    # direction and 0 along the curve: residue 0. radial has no zeros, and
    # FixedPointData refuses an empty component list, so it carries none
    def axis_zeros(name, i):
        return FixedPointData(
            label=f"Hopf surface, field {name}",
            manifold_dim=2,
            components=(ZeroComponent(f"elliptic curve z{i} = 0", 1, Fraction(1),
                                      (Fraction(1),), Fraction(0), (Fraction(0),)),),
        )

    return ExampleBundle(
        name="hopf",
        manifold=manifold,
        volumes=volumes,
        fields=fields,
        fixed_points={"x1": axis_zeros("x1", 1), "x2": axis_zeros("x2", 2)},
        # t is an invariant axis, one node at every level; the angles are
        # band-limited, 2 staggered nodes in theta1 and 4 in theta2 at every
        # level; u takes 3 Gauss-Legendre nodes per panel, so a job takes
        # 1*3*2*4 + 1*6*2*4 = 72 nodes. 4 theta2 nodes integrate every charge
        # k(2, -1), 0 < |k| <= 3, that r4-bump's integrands carry to zero
        # exactly, whatever theta1's count, so theta1 takes the minimum of 2,
        # and the angle averages are polynomials in u of degree <= 4, which 3
        # nodes per panel integrate exactly on both levels: every bar is
        # rounding. 2 nodes in u miss r4-bump x1's 0 by 0.07, and its bar
        # sees it. The transpose (1, 3, 4, 2) aliases k = 2 on both levels
        # alike: its bars miss a 0.1 error that only the invariance suite's
        # axis rows see
        default_quadrature=QuadratureSpec(points_per_axis=(1, 3, 2, 4),
                                          refinement_levels=2),
        notes=("Hopf surface (C^2 minus 0)/(z -> 2z), integrated over the fundamental "
               "domain 1 <= |z| <= 2 in the coordinates (t, u, theta1, theta2), "
               "z = e^t (sqrt(1-u) e^{i theta1}, sqrt(u) e^{i theta2}), where t = log|z|, "
               "the deck map is t -> t + log 2, u = |z2|^2/|z|^2 is the torus moment "
               "coordinate and the Lebesgue factor is e^{4t}/2. "
               "The r^-4 density descends from the cone metric over the round "
               "3-sphere and has everywhere-degenerate Ricci matrix; the Lebesgue "
               "density is automorphic for the character value 16 = |det(2 Id)|^2; "
               "the angular perturbation Re(z1^2 conj(z2))/r^3 is deck-invariant. "
               "Every registered integrand is constant in t and a trigonometric "
               "polynomial of charges k(2, -1), |k| <= 3, in (theta1, theta2), whose "
               "angle average is a polynomial in u of degree <= 4, so quadrature "
               "takes one node in t, at every level 2 staggered trapezoid nodes in "
               "theta1 and 4 in theta2, which integrate every charge k != 0 to zero, "
               "and 3 Gauss-Legendre nodes per panel in u, which are exact: "
               "1*3*2*4 + 1*6*2*4 = 72 nodes per job, and every bar is rounding. "
               "The invariance suite's axis rows check the t and angle declarations. "
               "The fields x1 and x2 vanish on the elliptic curves {z_i = 0}/(z -> 2z), "
               "each with trace 1, normal weight 1 and degrees 0, so residue 0; "
               "radial has no zeros."),
        suites={
            **_MEMBERSHIP_SUITES,
            # axis rows: each route's integrand, times the measure, is
            # constant along the invariant t axis, and its average over the
            # spec's grid of the band-limited angles does not depend on the
            # grid's offset, to within axis_bound
            "invariance": {**_MEMBERSHIP_SUITES["invariance"], "axis_bound": 1e-5},
            "deformation": {"volumes": ("r4", "lebesgue"), "fields": ("radial", "x1", "x2"),
                            "t_grid": (0.0, 1.0), "bound": 1e-6},
            # f vanishes both for `volume`, whose Ricci matrix is degenerate
            # everywhere, and for `perturbed`, whose Ricci matrix is not
            "vaisman": {"volume": "r4", "det_bound": 1e-8, "bound": 1e-6,
                        "perturbed": "r4-bump", "perturbed_bound": 1e-5,
                        "fields": ("radial", "x1", "x2")},
        },
    )


# ---------------------------------------------------------------------------
# localization-only bundles
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _hopf_blowup_bundle() -> ExampleBundle:
    data = FixedPointData(
        label="one-point blow-up of the Hopf surface, field x1",
        manifold_dim=2,
        components=(
            ZeroComponent("isolated zero (1:0) on the exceptional curve",
                          0, Fraction(0), (Fraction(1), Fraction(-1))),
            ZeroComponent("elliptic curve (proper transform of z1 = 0)",
                          1, Fraction(1), (Fraction(1),),
                          Fraction(0), (Fraction(-1),)),
        ),
    )
    return ExampleBundle(
        name="hopf-blowup",
        manifold=None,
        volumes={},
        fields={},
        fixed_points={"x1": data},
        default_quadrature=None,
        notes=("Blow-up of the Hopf surface at an interior point on the z1 = 0 "
               "locus, with the lift of x1 = z1 d/dz1. Around the isolated zero "
               "the lifted field reads zeta1 d/dzeta1 - zeta2 d/dzeta2, so the "
               "linearization is diag(1, -1) with trace 0, and the zero does not "
               "contribute. The curve component is elliptic (tangent degree 0), "
               "carries linearization diag(0, 1) hence trace 1 and normal weight 1, "
               "and its normal bundle is minus the exceptional class (degree -1). "
               "Residue sum: -2."),
    )


@lru_cache(maxsize=None)
def _blcp2_bundle() -> ExampleBundle:
    data = FixedPointData(
        label="one-point blow-up of the projective plane, circle action",
        manifold_dim=2,
        components=(
            ZeroComponent("line missing the blown-up point",
                          1, Fraction(1), (Fraction(1),),
                          Fraction(2), (Fraction(1),)),
            ZeroComponent("exceptional curve (pointwise fixed)",
                          1, Fraction(-1), (Fraction(-1),),
                          Fraction(2), (Fraction(-1),)),
        ),
    )
    return ExampleBundle(
        name="blcp2",
        manifold=None,
        volumes={},
        fields={},
        fixed_points={"z1-ddz1": data},
        default_quadrature=None,
        notes=("Stretch example, derived from localization only: blow up the "
               "projective plane at the fixed point where the circle action "
               "lifting z1 d/dz1 linearizes as minus the identity, so the "
               "exceptional curve is fixed pointwise with normal weight -1. "
               "The invariant line elsewhere keeps normal degree +1 and weight 1. "
               "Residue sum: 4, a nonzero obstruction; the unblown plane's data "
               "(same line plus an isolated point of trace -2 and weights "
               "(-1, -1)) sums to zero."),
    )


_BUILDERS = {
    "cp1": _cp1_bundle,
    "hopf": _hopf_bundle,
    "hopf-blowup": _hopf_blowup_bundle,
    "blcp2": _blcp2_bundle,
}


def registry_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def registry_get(name: str) -> ExampleBundle:
    """Return the immutable bundle registered under `name`."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise ValueError(f"unknown example '{name}'; known examples: {known}") from None
    return builder()
