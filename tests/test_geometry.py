"""Membership contracts: automorphy, deck invariance, chart consistency."""

import dataclasses
import math

import numpy as np
import pytest

from holoinv import (
    Character,
    DeckGenerator,
    DomainError,
    EvaluationError,
    IntegrationDomain,
    ManifoldSpec,
    VectorFieldSpec,
    VolumeFormSpec,
    deck_group_report,
    sample_domain_points,
    verify_automorphic,
    verify_field_transitions,
    verify_invariant_axes,
    verify_invariant_field,
    verify_volume_transitions,
)
from holoinv import geometry, jets
from holoinv.invariant import ROUTE_DENSITIES
from holoinv.quadrature import QuadratureSpec


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def _in_disc(coords):
    return np.abs(coords[..., 0]) < 1.0


# --- automorphy ------------------------------------------------------------


def test_r4_closed_form_scaling(hopf):
    # a(2z) * |det d(2 id)|^2 = a(z): with a = r^-4 both sides agree exactly
    rng = np.random.default_rng(0)
    z = rng.uniform(0.7, 1.4, (64, 2)) * np.exp(1j * rng.uniform(0, 6.28, (64, 2)))
    a = 1.0 / (_abs2(z).sum(-1)) ** 2
    a2 = 1.0 / (_abs2(2.0 * z).sum(-1)) ** 2
    assert np.max(np.abs(a2 * 16.0 - a)) < 1e-15 * np.max(a)


def test_hopf_r4_automorphic_trivial_character(hopf):
    rep = verify_automorphic(hopf.volumes["r4"], hopf.manifold, samples=256)
    assert max(rep.values()) < 1e-12


def test_hopf_lebesgue_character_sixteen(hopf):
    # |det d(2 id)|^2 = 2^4 = 16 rescales the flat volume form
    rep = verify_automorphic(hopf.volumes["lebesgue"], hopf.manifold)
    assert max(rep.values()) < 1e-12


def test_hopf_bump_automorphic(hopf):
    rep = verify_automorphic(hopf.volumes["r4-bump"], hopf.manifold)
    assert max(rep.values()) < 1e-12


def test_wrong_character_fails(hopf):
    wrong = VolumeFormSpec("flat-wrong",
                           hopf.volumes["lebesgue"].log_density,
                           Character({"double": 1.0}))
    rep = verify_automorphic(wrong, hopf.manifold)
    assert abs(max(rep.values()) - math.log(16.0)) < 1e-12


def test_trivial_deck_group_passes_with_zero_residual(cp1):
    for vol in cp1.volumes.values():
        rep = verify_automorphic(vol, cp1.manifold)
        assert rep == {}


# --- field membership ------------------------------------------------------


def test_linear_field_commutes_with_scaling(hopf):
    rep = verify_invariant_field(hopf.fields["x1"], hopf.manifold)
    assert max(rep.values()) <= 1e-8
    assert rep["deck_invariance"] < 1e-12


def test_zero_field_passes_exactly(hopf):
    zero = VectorFieldSpec("zero", {"punctured": lambda c: np.zeros_like(c)})
    rep = verify_invariant_field(zero, hopf.manifold)
    assert max(rep.values()) == 0.0


def test_antiholomorphic_component_fails(hopf):
    def bad(coords):
        # conj(z1) d/dz1, written with a coordinate mask as jets require
        return np.conj(coords) * np.array([1.0, 0.0])

    rep = verify_invariant_field(VectorFieldSpec("zbar", {"punctured": bad}),
                                 hopf.manifold)
    assert rep["cauchy_riemann"] > 1e-2


def test_field_residuals_cover_every_piece(cp1):
    # antiholomorphic only in the chart at infinity: only that piece sees it
    comps = {**cp1.fields["z-ddz"].components, "affine-inf": lambda c: np.conj(c)}
    rep = verify_invariant_field(VectorFieldSpec("zbar-at-infinity", comps), cp1.manifold)
    assert rep["cauchy_riemann"] > 1e-2


# --- character -------------------------------------------------------------


def test_character_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        Character({"g": 0.0})
    with pytest.raises(ValueError):
        Character({"g": -2.0})


# --- chart transitions -----------------------------------------------------


def test_volume_transitions_cp1(cp1):
    for vol in cp1.volumes.values():
        rep = verify_volume_transitions(vol, cp1.manifold)
        assert max(rep.values()) <= 1e-10, (vol.name, rep)


def test_field_transitions_cp1(cp1):
    for fld in cp1.fields.values():
        rep = verify_field_transitions(fld, cp1.manifold)
        assert max(rep.values()) <= 1e-10, (fld.name, rep)


def test_deck_group_report(hopf, cp1):
    rep = deck_group_report(hopf.manifold)
    assert max(rep.values()) <= 1e-8
    rep2 = deck_group_report(cp1.manifold)
    assert rep2 == {}


# --- non-finite residuals --------------------------------------------------


def _nan(coords):
    return np.full_like(coords, np.nan)


def _field_nan_at_deck_images(hopf, cp1):
    # samples have 1 <= |z|^2 <= 4 and their images under the doubling
    # |z|^2 >= 4, so only the deck-invariance residual reads a NaN
    x1 = hopf.fields["x1"].components["punctured"]

    def comps(coords):
        pts = coords.value if isinstance(coords, jets.Jet) else coords
        return x1(coords) * np.where(_abs2(pts).sum(-1) > 4.0, np.nan, 1.0)[..., None]

    return verify_invariant_field(VectorFieldSpec("nan-at-images", {"punctured": comps}),
                                  hopf.manifold)


def _deck_inverse_nan(hopf, cp1):
    g = hopf.manifold.deck_group[0]
    bad = DeckGenerator(g.name, g.apply, _nan)
    return deck_group_report(dataclasses.replace(hopf.manifold,
                                                 deck_group=(bad,)))


def _field_nan_at_infinity(hopf, cp1):
    components = {**cp1.fields["z-ddz"].components, "affine-inf": _nan}
    return verify_field_transitions(VectorFieldSpec("nan-at-infinity", components),
                                    cp1.manifold)


def _density_nan_along_t(hopf, cp1):
    def density(coords):
        return np.where(_abs2(coords).sum(-1) > 2.0, np.nan, 1.0)

    return verify_invariant_axes(lambda chart_id: density, hopf.manifold,
                                 hopf.default_quadrature)


@pytest.mark.parametrize("measure, what", [
    (_field_nan_at_deck_images, "deck invariance"), (_deck_inverse_nan, "inverse composition"),
    (_field_nan_at_infinity, "transition"), (_density_nan_along_t, "invariant axes")],
    ids=["deck-invariance", "deck-inverse", "field-transition", "invariant-axis"])
def test_nan_residual_raises(measure, what, hopf, cp1):
    # max(0.0, nan) is 0.0, so an unchecked NaN residual would read as a pass
    with pytest.raises(EvaluationError, match=f"non-finite {what}"):
        measure(hopf, cp1)


# --- invariant axes --------------------------------------------------------


def test_invariant_axis_residual_tells_invariant_densities_apart(hopf, cp1):
    # r^-4 times the measure e^{4t} cos sin is constant in t = log|z|; the
    # Lebesgue density 1 is not, and its residual is of order one
    def cone(coords):
        return _abs2(coords).sum(-1) ** -2

    def ones(coords):
        return np.ones(coords.shape[:-1])

    q = hopf.default_quadrature
    rep = verify_invariant_axes(lambda chart_id: cone, hopf.manifold, q)
    assert set(rep) == {"punctured"}
    assert max(rep.values()) < 1e-12
    assert max(verify_invariant_axes(lambda chart_id: ones, hopf.manifold, q).values()) > 1.0
    # cp1's piece declares no invariant or band-limited axis: nothing is measured
    assert verify_invariant_axes(lambda chart_id: ones, cp1.manifold,
                                 cp1.default_quadrature) == {}


@pytest.mark.parametrize("charge, aliased", [
    ((1, 0), False), ((2, -1), False), ((3, 3), False),
    ((4, 0), True), ((0, 8), True), ((4, 4), True),
    ((2, 0), True), ((2, 4), True), ((4, -2), False), ((6, -3), False)],
    ids=["(1,0)", "(2,-1)", "(3,3)", "(4,0)", "(0,8)", "(4,4)",
         "(2,0)", "(2,4)", "(4,-2)", "(6,-3)"])
def test_band_limited_residual_sees_aliased_charges(hopf, charge, aliased):
    # hopf's angles are band-limited with 2 nodes in theta1 and 4 in
    # theta2: a cone density times cos(a theta1 + b theta2) has grid means
    # that depend on the grid's offset exactly when 2 divides a and 4
    # divides b, (a, b) != 0, including (4, 0), (0, 8) and (2, 4), where
    # a/2 + b/4 is even and the level-2 stagger cannot see them. (4, -2)
    # and (6, -3) are charges 2 and 3 of the bump's (2, -1); the first
    # would alias on the transposed grid of 4 and 2 nodes
    a, b = charge

    def density(coords):
        phase = a * np.angle(coords[..., 0]) + b * np.angle(coords[..., 1])
        return _abs2(coords).sum(-1) ** -2 * (1.0 + np.cos(phase))

    rep = verify_invariant_axes(lambda chart_id: density, hopf.manifold,
                                hopf.default_quadrature)
    assert (rep["punctured"] > 1e-2) == aliased, rep


@pytest.mark.parametrize("vol_name", ["r4", "lebesgue", "r4-bump"])
def test_hopf_axis_rows_pin_the_angle_grid_orientation(hopf, vol_name):
    # the default (1, 3, 2, 4) grid integrates every charge k(2, -1),
    # 0 < |k| <= 3, to zero; its transpose (1, 3, 4, 2) aliases k = 2 as
    # (4, -2) alike on both levels, so r4-bump's bars miss the error and
    # only the axis rows see it. r4 and lebesgue do not depend on the
    # angles, so no angle grid can fail them
    bound = hopf.suites["invariance"]["axis_bound"]
    transposed = QuadratureSpec((1, 3, 4, 2), 2)
    vol = hopf.volumes[vol_name]
    for field_name, x in hopf.fields.items():
        for route, density_for in ROUTE_DENSITIES.items():
            def residuals(q):
                return verify_invariant_axes(
                    lambda chart_id: density_for(vol.log_density[chart_id],
                                                 x.components[chart_id]),
                    hopf.manifold, q)["punctured"]

            where = (field_name, route)
            assert residuals(hopf.default_quadrature) < bound, where
            assert (residuals(transposed) > bound) == (vol_name == "r4-bump"), where


# --- sampling and domains --------------------------------------------------


def test_sampling_is_deterministic(hopf):
    dom = hopf.manifold.fundamental_domain["punctured"]
    a = sample_domain_points(dom, 100, seed=3)
    b = sample_domain_points(dom, 100, seed=3)
    assert np.array_equal(a, b)
    c = sample_domain_points(dom, 100, seed=4)
    assert not np.array_equal(a, c)


def test_sampling_lands_in_annulus(hopf):
    pts = sample_domain_points(hopf.manifold.fundamental_domain["punctured"], 500, seed=0)
    r2 = _abs2(pts).sum(-1)
    assert np.all(r2 >= 1.0 - 1e-12) and np.all(r2 <= 4.0 + 1e-12)


def test_sample_count_validation(hopf, cp1):
    # refused before any array is allocated, on the sampled pieces and overlaps
    for samples in (0, geometry.MAX_SAMPLES + 1, 10**10):
        with pytest.raises(ValueError, match="samples must be"):
            sample_domain_points(hopf.manifold.fundamental_domain["punctured"], samples)
        with pytest.raises(ValueError, match="samples must be"):
            verify_volume_transitions(cp1.volumes["fs"], cp1.manifold, samples)


def test_domain_error_when_generator_leaves_chart():
    shift = DeckGenerator("shift", lambda c: c + 2.0, lambda c: c - 2.0)
    m = ManifoldSpec(
        name="disc-shift",
        dimension=1,
        atlas={"disc": _in_disc},
        deck_group=(shift,),
        fundamental_domain={"disc": IntegrationDomain(box=((-0.5, 0.5), (-0.5, 0.5)))},
    )
    flat = VolumeFormSpec("flat", {"disc": lambda c: np.zeros(c.shape[:-1])},
                          Character({"shift": 1.0}))
    with pytest.raises(DomainError):
        verify_automorphic(flat, m)


def test_manifold_validation():
    square = IntegrationDomain(box=((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="not in atlas"):
        ManifoldSpec("bad", 1, {"disc": _in_disc}, (), {"elsewhere": square})


def test_manifold_rejects_bad_piece_mappings():
    square = IntegrationDomain(box=((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="no piece"):
        ManifoldSpec("empty", 1, {"disc": _in_disc}, (), {})
    # one good piece does not excuse a second one off the atlas
    with pytest.raises(ValueError, match="'elsewhere' not in atlas"):
        ManifoldSpec("stray", 1, {"disc": _in_disc}, (),
                     {"disc": square, "elsewhere": square})
