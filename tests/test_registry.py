"""Registered bundles: membership contracts, datasets, cross-checks."""

import math

import numpy as np
import pytest

from holoinv import (
    QuadratureSpec,
    component_contribution_parts,
    fixed_point_data_from_dict,
    fixed_point_data_to_dict,
    integrate,
    localization_sum,
    registry_get,
    registry_names,
    sample_domain_points,
    unnormalized_invariant,
    verify_automorphic,
    verify_invariant_field,
)
from holoinv import calculus, jets


def test_names():
    names = registry_names()
    assert set(names) >= {"cp1", "hopf", "hopf-blowup"}


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown example"):
        registry_get("torus")


def test_bundles_are_cached():
    assert registry_get("cp1") is registry_get("cp1")


@pytest.mark.parametrize("name", ["cp1", "hopf"])
def test_every_volume_is_automorphic(name):
    bundle = registry_get(name)
    for vol in bundle.volumes.values():
        rep = verify_automorphic(vol, bundle.manifold, samples=256)
        # cp1's deck group has no generator, so it measures nothing
        assert max(rep.values(), default=0.0) < 1e-12, (name, vol.name, rep)


@pytest.mark.parametrize("name", ["cp1", "hopf"])
def test_every_field_is_invariant_and_holomorphic(name):
    bundle = registry_get(name)
    for fld in bundle.fields.values():
        rep = verify_invariant_field(fld, bundle.manifold, samples=256)
        assert max(rep.values()) <= 1e-8, (name, fld.name, rep)


@pytest.mark.parametrize("name", registry_names())
def test_declared_suite_bounds_are_positive_numbers(name):
    # every tolerance is declared on the bundle; no suite derives its own
    for suite, params in registry_get(name).suites.items():
        for key, value in params.items():
            if key.endswith("bound"):
                assert isinstance(value, (int, float)) and 0 < value < math.inf, \
                    (suite, key, value)


@pytest.mark.parametrize("name", ["cp1", "hopf"])
def test_invariant_axes_are_declared_with_their_check(name):
    # an invariant axis gets one quadrature node; only the invariance
    # suite's axis rows test that declaration, so they must have a bound
    bundle = registry_get(name)
    declares = any("invariant" in dom.rules
                   for dom in bundle.manifold.fundamental_domain.values())
    assert declares == (name == "hopf")
    assert ("axis_bound" in bundle.suites["invariance"]) == declares


@pytest.mark.parametrize("name", registry_names())
def test_every_named_chart_is_in_the_atlas(name):
    # ManifoldSpec checks only its pieces; a stray chart id in any other
    # mapping would show only when that chart is evaluated
    bundle = registry_get(name)
    named = {(f"volume {vol.name}", chart) for vol in bundle.volumes.values()
             for chart in [*vol.log_density, *vol.exact_ricci]}
    named |= {(f"field {fld.name}", chart) for fld in bundle.fields.values()
              for chart in fld.components}
    m = bundle.manifold
    if m is None:
        assert named == set()
        return
    named |= {(f"transition {tr.source}->{tr.target}", chart) for tr in m.transitions
              for chart in (tr.source, tr.target)}
    named |= {("domain piece", chart) for chart in m.fundamental_domain}
    assert {(what, chart) for what, chart in named if chart not in m.atlas} == set()


def _evaluators(bundle):
    for name, vol in bundle.volumes.items():
        for chart, fn in vol.log_density.items():
            yield f"log-density {name}@{chart}", chart, fn
    for name, fld in bundle.fields.items():
        for chart, fn in fld.components.items():
            yield f"field {name}@{chart}", chart, fn


@pytest.mark.parametrize("name", registry_names())
def test_every_evaluator_is_jet_safe(name):
    # the routes call every log-density and field on jets: each must return a
    # jet whose value is the plain evaluation bit for bit, or a plain numeric
    # array that is really constant (zero stencil derivative), never an
    # object array that would drop the derivatives
    bundle = registry_get(name)
    if bundle.manifold is None:
        return
    for label, chart, fn in _evaluators(bundle):
        pts = sample_domain_points(bundle.manifold.fundamental_domain[chart], 32, seed=3)
        plain = np.asarray(fn(pts))
        out = fn(jets.variables(pts, 2))
        if isinstance(out, jets.Jet):
            assert np.array_equal(out.value, plain), label
        else:
            assert isinstance(out, np.ndarray) and out.dtype != object, label
            assert np.array_equal(out, plain), label
            assert np.max(np.abs(calculus.holomorphic_derivative(fn, pts))) <= 1e-10, label


def test_exact_ricci_evaluators_match_stencils():
    # guards the closed forms shipped with the bundles
    cp1 = registry_get("cp1")
    rng = np.random.default_rng(11)
    z = rng.uniform(-2, 2, (40, 1)) + 1j * rng.uniform(-2, 2, (40, 1))
    for name in ("fs", "fs-bump"):
        vol = cp1.volumes[name]
        for chart, exact in vol.exact_ricci.items():
            numeric = calculus.ricci_from_log_density(vol.log_density[chart], z)
            assert np.max(np.abs(numeric - exact(z))) < 1e-7, (name, chart)

    hopf = registry_get("hopf")
    w = rng.uniform(0.8, 1.4, (40, 2)) * np.exp(1j * rng.uniform(0, 6.28, (40, 2)))
    for name in ("r4", "lebesgue"):
        vol = hopf.volumes[name]
        numeric = calculus.ricci_from_log_density(vol.log_density["punctured"], w)
        assert np.max(np.abs(numeric - vol.exact_ricci["punctured"](w))) < 1e-7


def test_fs_bump_ricci_at_infinity_is_the_pulled_back_form(cp1):
    # the Ricci form is a global (1,1)-form: R_inf(w) = R_aff(1/w) / |w|^4;
    # the bump is exp(-1) at infinity, where R_inf = 2 - exp(-1)
    exact = cp1.volumes["fs-bump"].exact_ricci
    rng = np.random.default_rng(5)
    w = (rng.uniform(0.05, 1.0, 512) * np.exp(1j * rng.uniform(0, 2 * np.pi, 512)))[:, None]
    at_inf = exact["affine-inf"](w)[:, 0, 0]
    pulled = exact["affine"](1.0 / w)[:, 0, 0] / np.abs(w[:, 0]) ** 4
    assert np.max(np.abs(at_inf - pulled)) < 1e-14 * np.max(np.abs(pulled))
    at_zero = exact["affine-inf"](np.zeros((1, 1), dtype=complex))[0, 0, 0]
    assert at_zero == pytest.approx(2.0 - math.exp(-1.0), rel=1e-15)


def test_r4_exact_ricci_is_hermitian_and_cancellation_free(hopf):
    # the r^-4 Ricci matrix has rank 1, so n! det R is pure rounding noise;
    # written as (2/r^4)(r^2 I - zbar z^T) with r^2 - |z_i|^2 summed from the
    # other axis, that noise stays below the bound the form
    # 2 (I/r^2 - zbar z^T / r^4) exceeds
    rng = np.random.default_rng(2024)
    z = rng.normal(size=(8192, 2)) + 1j * rng.normal(size=(8192, 2))
    z *= (rng.uniform(1.0, 2.0, 8192) / np.linalg.norm(z, axis=-1))[:, None]
    r2 = np.sum(np.abs(z) ** 2, axis=-1)
    reference = 2.0 * (np.eye(2) / r2[:, None, None]
                       - np.einsum("...i,...j->...ij", np.conj(z), z) / (r2 ** 2)[:, None, None])
    exact = hopf.volumes["r4"].exact_ricci["punctured"]
    R = exact(z)
    assert np.all(calculus.hermiticity_residual(R) == 0.0)
    scale = np.max(np.abs(R), axis=(-2, -1))
    assert np.max(np.abs(R - reference) / scale[:, None, None]) < 2e-15
    bound = 2e-15
    assert np.max(np.abs(calculus.ricci_top_field(None, z, exact=exact) * r2 ** 2)) < bound
    naive = calculus.ricci_top_field(None, z, exact=lambda c: reference)
    assert np.max(np.abs(naive * r2 ** 2)) > bound


def test_blowup_dataset_reproduces_intermediates(hopf_blowup):
    data = hopf_blowup.fixed_point_data
    isolated, curve = data.components
    assert component_contribution_parts(isolated, 2)[2] == 0
    numerator, inverted, value = component_contribution_parts(curve, 2)
    assert [int(c) for c in numerator.coeffs] == [1, -3]
    assert [int(c) for c in inverted.coeffs] == [1, 1]
    assert value == -2
    assert localization_sum(data) == -2
    assert unnormalized_invariant(data) == pytest.approx(
        -2.0 * (2.0 * math.pi) ** 2 / 3.0)


def test_blowup_dataset_exports_to_wire_format(hopf_blowup):
    payload = fixed_point_data_to_dict(hopf_blowup.fixed_point_data)
    assert payload["manifold_dim"] == 2
    assert localization_sum(fixed_point_data_from_dict(payload)) == -2


def test_cp1_localization_matches_direct(cp1):
    from holoinv import invariant_direct

    assert localization_sum(cp1.fixed_point_data) == 0
    res = invariant_direct(cp1.manifold, cp1.volumes["fs"],
                           cp1.fields[cp1.fixed_point_field],
                           q=cp1.default_quadrature)
    assert abs(res.value) <= max(1e-6, res.error_estimate)


def test_blcp2_stretch_dataset():
    bundle = registry_get("blcp2")
    assert bundle.manifold is None
    assert localization_sum(bundle.fixed_point_data) == 4


def test_hopf_radial_divergence_free(hopf):
    from holoinv import calculus, jets

    val = calculus.divergence_field(hopf.fields["radial"].components["punctured"],
                                    hopf.volumes["r4"].log_density["punctured"],
                                    np.array([[0.8, 0.9j]]))[0]
    assert abs(val) < 1e-10


def test_curvature_mass_independent_of_density(cp1):
    # both densities represent the same curvature class, whose total mass
    # over the line is 2 * (2 pi) against the conventions used here
    for name in ("fs", "fs-bump"):
        vol = cp1.volumes[name]

        def density(z, chart, _vol=vol):
            return 2.0 * calculus.ricci_top_field(
                _vol.log_density[chart], z,
                exact=_vol.exact_ricci.get(chart))

        total = sum(integrate(lambda z, c=chart: density(z, c), dom,
                              QuadratureSpec(16, 3)).value
                    for chart, dom in cp1.manifold.fundamental_domain.items())
        assert abs(total - 4.0 * math.pi) < 1e-9, name


def test_hopf_curvature_mass_vanishes(hopf):
    # the surface has no degree-four cohomology, so the squared curvature
    # form integrates to zero for every registered density
    for name in ("r4", "r4-bump"):
        vol = hopf.volumes[name]

        def density(z, _vol=vol):
            return 4.0 * calculus.ricci_top_field(
                _vol.log_density["punctured"], z,
                exact=_vol.exact_ricci.get("punctured"))

        res = integrate(density, hopf.manifold.fundamental_domain["punctured"],
                        hopf.default_quadrature)
        assert abs(res.value) < 1e-6, name


def test_localization_only_bundles_have_no_atlas(hopf_blowup):
    assert hopf_blowup.manifold is None
    assert hopf_blowup.volumes == {}
    assert hopf_blowup.fields == {}
    assert hopf_blowup.fixed_point_field == "x1"


def test_notes_present():
    for name in registry_names():
        assert registry_get(name).notes
