"""Tensor-product quadrature: benchmarks, determinism, error estimates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoinv import (
    IllPosedIntegrandError,
    IntegrationDomain,
    QuadratureSpec,
    integrate,
)
from holoinv import calculus


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def ones(z):
    return np.ones(z.shape[:-1])


UNIT_BOX = IntegrationDomain(box=((0.0, 1.0), (0.0, 1.0)))


def test_unit_box_area():
    res = integrate(ones, UNIT_BOX, QuadratureSpec(4, 2))
    assert abs(res.value - 1.0) < 1e-14
    assert res.dropped_samples == 0


def test_plane_area_benchmark(cp1):
    # closed form: integral of 2/(1+|z|^2)^2 over the line is 2*pi; the
    # density reads the same in both charts, so the pieces simply add up
    def density(z):
        return 2.0 / (1.0 + _abs2(z[..., 0])) ** 2

    total = sum(integrate(density, dom, QuadratureSpec(16, 3)).value
                for dom in cp1.manifold.fundamental_domain.values())
    assert abs(total - 2.0 * math.pi) < 1e-12


def test_cp1_pieces_cover_the_line_once(cp1):
    # the Fubini-Study volume 1/(1+|z|^2)^2 of the line is pi; with a radial
    # cutoff the mass beyond it, pi/(1 + cutoff^2), would go missing
    def density(z):
        return 1.0 / (1.0 + _abs2(z[..., 0])) ** 2

    total = sum(integrate(density, dom, cp1.default_quadrature).value
                for dom in cp1.manifold.fundamental_domain.values())
    assert abs(total - math.pi) < 1e-12


def test_hopf_annulus_volume(hopf):
    # Lebesgue volume of 1 <= |z| <= 2 in R^4: pi^2/2 * (2^4 - 1); the
    # Lebesgue density is not dilation-invariant, so t goes back on
    # Gauss-Legendre to check the chart and measure maps
    dom = dataclasses.replace(hopf.manifold.fundamental_domain["punctured"],
                              rules=("gauss", "gauss", "periodic", "periodic"))
    res = integrate(ones, dom, QuadratureSpec(6, 2))
    assert abs(res.value - 7.5 * math.pi ** 2) < 1e-10


def test_hopf_domain_covers_the_quotient_once(hopf):
    # the deck-invariant volume |z|^-4 dV integrates to 2 pi^2 log 2 over
    # one period 0 <= t < log 2 of the deck map t -> t + log 2
    res = integrate(lambda z: _abs2(z).sum(-1) ** -2,
                    hopf.manifold.fundamental_domain["punctured"], hopf.default_quadrature)
    assert abs(res.value - 2.0 * math.pi ** 2 * math.log(2.0)) < 1e-12


def test_determinism_across_repeats(hopf):
    def density(z):
        return np.cos(_abs2(z).sum(-1)) + 0.3 * z[..., 0].real

    q = QuadratureSpec(5, 2)
    dom = hopf.manifold.fundamental_domain["punctured"]
    first = integrate(density, dom, q)
    again = integrate(density, dom, q)
    assert first.value == again.value
    assert first.error_estimate == again.error_estimate


def test_refinement_monotonicity_on_smooth_benchmark(cp1):
    # error estimates shrink at least 4x per level until the 1e-10 floor
    def density(z):
        return 2.0 / (1.0 + _abs2(z[..., 0])) ** 2

    dom = cp1.manifold.fundamental_domain["affine"]
    estimates = []
    for levels in (2, 3, 4):
        res = integrate(density, dom, QuadratureSpec(8, levels))
        estimates.append(res.error_estimate)
    for coarse, fine in zip(estimates, estimates[1:]):
        assert fine <= coarse / 4.0 or fine <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
    beta=st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
)
def test_linearity(alpha, beta):
    def f(z):
        return np.sin(z[..., 0].real) + z[..., 0].imag

    def g(z):
        return np.exp(-_abs2(z[..., 0]))

    def combo(z):
        return alpha * f(z) + beta * g(z)

    q = QuadratureSpec(6, 2)
    lhs = integrate(combo, UNIT_BOX, q).value
    rhs = (alpha * integrate(f, UNIT_BOX, q).value
           + beta * integrate(g, UNIT_BOX, q).value)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_ill_posed_integrand_raises():
    def mostly_nan(z):
        out = np.ones(z.shape[:-1])
        out[z[..., 0].real > 0.5] = np.nan  # half the box
        return out

    with pytest.raises(IllPosedIntegrandError):
        integrate(mostly_nan, UNIT_BOX, QuadratureSpec(8, 2))


def test_sparse_nonfinite_samples_dropped_and_counted():
    # only the finest level (32 points, 4 panels) puts a node column below
    # x = 5e-4, at x ~ 3.4e-4: 128 of 16,384 samples, dropped, not fatal
    def thin_sliver(z):
        out = np.ones(z.shape[:-1])
        out[z[..., 0].real < 5e-4] = np.nan
        return out

    res = integrate(thin_sliver, UNIT_BOX, QuadratureSpec(32, 3))
    assert res.dropped_samples == 128
    assert abs(res.value - 1.0) < 1e-2


def test_invariant_density_wrapper_hopf_degenerate(hopf):
    vol = hopf.volumes["r4"]

    def density(z):
        return calculus.ricci_top_field(vol.log_density["punctured"], z,
                                        exact=vol.exact_ricci["punctured"])

    res = integrate(density, hopf.manifold.fundamental_domain["punctured"],
                    QuadratureSpec(5, 2))
    assert abs(res.value) < 1e-12
    assert res.error_estimate < 1e-12


def test_invariant_density_wrapper_cp1_odd_integrand(cp1):
    # div X * top for z d/dz integrates to +pi/2 over the affine disc and to
    # -pi/2 over the disc at infinity, so the pieces must cancel
    vol, fld = cp1.volumes["fs"], cp1.fields["z-ddz"]

    def pieces(q):
        results = []
        for chart, dom in cp1.manifold.fundamental_domain.items():
            def density(z, chart=chart):
                div = calculus.divergence_field(fld.components[chart],
                                                vol.log_density[chart], z)
                top = calculus.ricci_top_field(vol.log_density[chart], z,
                                               exact=vol.exact_ricci[chart])
                return div * top
            results.append(integrate(density, dom, q))
        return sum(r.value for r in results), sum(r.error_estimate for r in results)

    coarse, budget = pieces(QuadratureSpec(12, 3))
    oracle, _ = pieces(QuadratureSpec(24, 3))
    assert abs(coarse) <= budget
    assert abs(coarse - oracle) <= budget


def test_zero_density_is_exact(cp1):
    res = integrate(lambda z: np.zeros(z.shape[:-1]),
                    cp1.manifold.fundamental_domain["affine"], QuadratureSpec(8, 2))
    assert res.value == 0.0
    assert res.error_estimate == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(points_per_axis=1)
    with pytest.raises(ValueError):
        QuadratureSpec(points_per_axis=(4, 1))
    with pytest.raises(ValueError):
        QuadratureSpec(refinement_levels=0)
    QuadratureSpec(points_per_axis=2, refinement_levels=1)  # smallest allowed


def test_domain_validation():
    with pytest.raises(ValueError):
        IntegrationDomain(box=((1.0, 1.0),))
    with pytest.raises(ValueError):
        IntegrationDomain(box=())
    with pytest.raises(ValueError, match="rules has 1 entries for 2 box axes"):
        IntegrationDomain(box=((0.0, 1.0), (0.0, 1.0)), rules=("periodic",))
    with pytest.raises(ValueError, match="unknown axis rule 'constant'"):
        IntegrationDomain(box=((0.0, 1.0), (0.0, 1.0)), rules=("gauss", "constant"))


def test_points_tuple_must_match_the_box():
    with pytest.raises(ValueError, match="3 counts for 2 box axes"):
        integrate(ones, UNIT_BOX, QuadratureSpec((4, 4, 4), 2))


PERIODIC_BOX = IntegrationDomain(box=((0.0, 1.0), (0.0, 2.0 * math.pi)),
                                 rules=("gauss", "periodic"))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_trapezoid_axis_integrates_low_modes_to_rounding(k):
    res = integrate(lambda z: np.cos(k * z[..., 0].imag), PERIODIC_BOX,
                    QuadratureSpec((2, 4), 2))
    assert abs(res.value) < 1e-14
    assert res.error_estimate < 1e-14


def test_trapezoid_aliasing_shows_in_the_error_estimate():
    # 4 nodes alias cos(4 theta) to 1; the 8 nodes of level 2 do not
    res = integrate(lambda z: np.cos(4.0 * z[..., 0].imag), PERIODIC_BOX,
                    QuadratureSpec((2, 4), 2))
    assert abs(res.value) < 1e-14
    assert abs(res.error_estimate - 2.0 * math.pi) < 1e-12


def test_points_tuple_sets_each_axis():
    # level 1 has 3 x 5 nodes and level 2 has 6 x 10
    sizes = []

    def counting(z):
        sizes.append(len(z))
        return np.ones(z.shape[:-1])

    res = integrate(counting, PERIODIC_BOX, QuadratureSpec((3, 5), 2))
    assert sizes == [15, 60]
    assert abs(res.value - 2.0 * math.pi) < 1e-13


INVARIANT_BOX = IntegrationDomain(box=((0.5, 3.0), (-1.0, 1.0)),
                                  rules=("invariant", "gauss"))


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("points", [2, 7])
def test_invariant_axis_takes_one_node_at_lo(levels, points):
    # at every level the invariant axis holds one node at lo weighted
    # hi - lo, whatever its point count; the other axis refines as usual
    seen = []

    def recording(z):
        seen.append(z[..., 0].copy())
        return np.ones(z.shape[:-1])

    res = integrate(recording, INVARIANT_BOX, QuadratureSpec((points, 4), levels))
    assert [len(z) for z in seen] == [4 * 2 ** k for k in range(levels)]
    assert all(np.all(z.real == 0.5) for z in seen)
    assert abs(res.value - 2.5 * 2.0) < 1e-14
    if levels > 1:
        assert res.error_estimate < 1e-14


def test_invariant_axis_weight_is_its_length():
    # a density that varies along the invariant axis is read at lo only
    res = integrate(lambda z: z[..., 0].real ** 2, INVARIANT_BOX, QuadratureSpec(4, 2))
    assert abs(res.value - 0.25 * 2.5 * 2.0) < 1e-14
    assert res.error_estimate == 0.0


def test_single_level_reports_unknown_error():
    res = integrate(ones, UNIT_BOX, QuadratureSpec(4, 1))
    assert res.error_estimate == math.inf
