"""Membership contracts: automorphy, deck invariance, chart consistency."""

import dataclasses
import math

import numpy as np
import pytest

from holoinv import (
    Character,
    Chart,
    DeckGenerator,
    DeckGroupSpec,
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


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


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
    assert rep.max_residual < 1e-12


def test_hopf_lebesgue_character_sixteen(hopf):
    # |det d(2 id)|^2 = 2^4 = 16 rescales the flat volume form
    rep = verify_automorphic(hopf.volumes["lebesgue"], hopf.manifold)
    assert rep.max_residual < 1e-12


def test_hopf_bump_automorphic(hopf):
    rep = verify_automorphic(hopf.volumes["r4-bump"], hopf.manifold)
    assert rep.max_residual < 1e-12


def test_wrong_character_fails(hopf):
    wrong = VolumeFormSpec("flat-wrong",
                           hopf.volumes["lebesgue"].log_density,
                           Character({"double": 1.0}))
    rep = verify_automorphic(wrong, hopf.manifold)
    assert abs(rep.max_residual - math.log(16.0)) < 1e-12


def test_trivial_deck_group_passes_with_zero_residual(cp1):
    for vol in cp1.volumes.values():
        rep = verify_automorphic(vol, cp1.manifold)
        assert rep.residuals == {}
        assert rep.max_residual == 0.0


# --- field membership ------------------------------------------------------


def test_linear_field_commutes_with_scaling(hopf):
    rep = verify_invariant_field(hopf.fields["x1"], hopf.manifold)
    assert rep.max_residual <= 1e-8
    assert rep.residuals["deck_invariance"] < 1e-12


def test_zero_field_passes_exactly(hopf):
    zero = VectorFieldSpec("zero", {"punctured": lambda c: np.zeros_like(c)})
    rep = verify_invariant_field(zero, hopf.manifold)
    assert rep.max_residual == 0.0


def test_antiholomorphic_component_fails(hopf):
    def bad(coords):
        out = np.zeros_like(coords)
        out[..., 0] = np.conj(coords[..., 0])
        return out

    rep = verify_invariant_field(VectorFieldSpec("zbar", {"punctured": bad}),
                                 hopf.manifold)
    assert rep.residuals["cauchy_riemann"] > 1e-2


def test_field_residuals_cover_every_piece(cp1):
    # antiholomorphic only in the chart at infinity: only that piece sees it
    comps = {**cp1.fields["z-ddz"].components, "affine-inf": lambda c: np.conj(c)}
    rep = verify_invariant_field(VectorFieldSpec("zbar-at-infinity", comps), cp1.manifold)
    assert rep.residuals["cauchy_riemann"] > 1e-2


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
        assert rep.max_residual <= 1e-10, (vol.name, rep.residuals)


def test_field_transitions_cp1(cp1):
    for fld in cp1.fields.values():
        rep = verify_field_transitions(fld, cp1.manifold)
        assert rep.max_residual <= 1e-10, (fld.name, rep.residuals)


def test_deck_group_report(hopf, cp1):
    rep = deck_group_report(hopf.manifold)
    assert rep.max_residual <= 1e-8
    rep2 = deck_group_report(cp1.manifold)
    assert rep2.residuals == {} and rep2.max_residual == 0.0


# --- non-finite residuals --------------------------------------------------


def _nan(coords):
    return np.full_like(coords, np.nan)


def _field_nan_at_deck_images(hopf, cp1):
    x1 = hopf.fields["x1"].components["punctured"]

    def comps(coords):
        out = np.array(x1(coords), dtype=complex)
        out[_abs2(coords).sum(-1) > 3.0] = np.nan  # samples have |z|^2 <= 2
        return out

    return verify_invariant_field(VectorFieldSpec("nan-at-images", {"punctured": comps}),
                                  hopf.manifold)


def _deck_inverse_nan(hopf, cp1):
    g = hopf.manifold.deck_group.generators[0]
    bad = DeckGenerator(g.name, g.apply, _nan, g.jacobian)
    return deck_group_report(dataclasses.replace(hopf.manifold,
                                                 deck_group=DeckGroupSpec((bad,))))


def _field_nan_at_infinity(hopf, cp1):
    components = {**cp1.fields["z-ddz"].components, "affine-inf": _nan}
    return verify_field_transitions(VectorFieldSpec("nan-at-infinity", components),
                                    cp1.manifold)


def _density_nan_along_t(hopf, cp1):
    def density(coords):
        return np.where(_abs2(coords).sum(-1) > 2.0, np.nan, 1.0)

    return verify_invariant_axes(lambda chart_id: density, hopf.manifold)


@pytest.mark.parametrize("measure", [_field_nan_at_deck_images, _deck_inverse_nan,
                                     _field_nan_at_infinity, _density_nan_along_t],
                         ids=["deck-invariance", "deck-inverse", "field-transition",
                              "invariant-axis"])
def test_nan_residual_raises(measure, hopf, cp1):
    # max(0.0, nan) is 0.0, so an unchecked NaN residual would read as a pass
    with pytest.raises(EvaluationError, match="non-finite"):
        measure(hopf, cp1)


# --- invariant axes --------------------------------------------------------


def test_invariant_axis_residual_tells_invariant_densities_apart(hopf, cp1):
    # r^-4 times the measure e^{4t} cos sin is constant in t = log|z|; the
    # Lebesgue density 1 is not, and its residual is of order one
    def cone(coords):
        return _abs2(coords).sum(-1) ** -2

    def ones(coords):
        return np.ones(coords.shape[:-1])

    rep = verify_invariant_axes(lambda chart_id: cone, hopf.manifold)
    assert set(rep.residuals) == {"punctured"}
    assert rep.max_residual < 1e-12
    assert verify_invariant_axes(lambda chart_id: ones, hopf.manifold).max_residual > 1.0
    # cp1's discs declare no invariant axis, so nothing is measured
    assert verify_invariant_axes(lambda chart_id: ones, cp1.manifold).residuals == {}


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


def test_sample_count_validation(hopf):
    with pytest.raises(ValueError):
        sample_domain_points(hopf.manifold.fundamental_domain["punctured"], 0)


def test_domain_error_when_generator_leaves_chart():
    disc = Chart("disc", 1, lambda c: np.abs(c[..., 0]) < 1.0)
    shift = DeckGenerator(
        "shift",
        lambda c: c + 2.0,
        lambda c: c - 2.0,
        lambda c: np.ones(c.shape[:-1] + (1, 1), dtype=complex),
    )
    m = ManifoldSpec(
        name="disc-shift",
        dimension=1,
        atlas=(disc,),
        deck_group=DeckGroupSpec((shift,)),
        fundamental_domain={"disc": IntegrationDomain(box=((-0.5, 0.5), (-0.5, 0.5)))},
    )
    flat = VolumeFormSpec("flat", {"disc": lambda c: np.zeros(c.shape[:-1])},
                          Character({"shift": 1.0}))
    with pytest.raises(DomainError):
        verify_automorphic(flat, m)


def test_manifold_validation():
    disc = Chart("disc", 1, lambda c: np.abs(c[..., 0]) < 1.0)
    square = IntegrationDomain(box=((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="not in atlas"):
        ManifoldSpec("bad", 1, (disc,), DeckGroupSpec(), {"elsewhere": square})
    wrong_dim = Chart("disc2", 2, lambda c: np.abs(c[..., 0]) < 1.0)
    with pytest.raises(ValueError):
        ManifoldSpec("bad2", 1, (disc, wrong_dim), DeckGroupSpec(), {"disc": square})


def test_manifold_rejects_bad_piece_mappings():
    disc = Chart("disc", 1, lambda c: np.abs(c[..., 0]) < 1.0)
    square = IntegrationDomain(box=((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="no piece"):
        ManifoldSpec("empty", 1, (disc,), DeckGroupSpec(), {})
    # one good piece does not excuse a second one off the atlas
    with pytest.raises(ValueError, match="'elsewhere' not in atlas"):
        ManifoldSpec("stray", 1, (disc,), DeckGroupSpec(),
                     {"disc": square, "elsewhere": square})
