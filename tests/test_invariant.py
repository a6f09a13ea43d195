"""The invariant by both routes: vanishing values, agreement, independence."""

import dataclasses
import math

import numpy as np
import pytest

import holoinv
from holoinv import (
    VectorFieldSpec,
    deformation_invariant_curve,
    interpolated_volume,
    invariant_alternative,
    invariant_direct,
    localization_sum,
    sample_domain_points,
    unnormalized_invariant,
)
from holoinv import calculus, cli, jets
from holoinv import invariant as invariant_module
from holoinv import quadrature
from holoinv.quadrature import IntegrationResult, QuadratureSpec, integrate
from references import fs_bump_ricci, r4_ricci


def zero_field(*chart_ids):
    return VectorFieldSpec("zero", {chart: lambda c: np.zeros_like(c) for chart in chart_ids})


# --- direct route ----------------------------------------------------------


def test_cp1_direct_vanishes_against_residue_oracle(cp1):
    # the residue engine gives exactly zero for this field
    assert localization_sum(cp1.fixed_points["z-ddz"]) == 0
    res = invariant_direct(cp1.manifold, cp1.volumes["fs"], cp1.fields["z-ddz"],
                           q=cp1.default_quadrature)
    assert isinstance(res, IntegrationResult)
    assert abs(res.value) <= max(1e-6, res.error_estimate)


@pytest.mark.parametrize("field", ["x1", "x2"])
def test_hopf_routes_agree_with_the_residue_of_each_axis_field(hopf, field):
    # z_i d/dz_i vanishes on a flat elliptic curve with trace 1: residue 0.
    # Both quadrature routes must meet it within their bars plus the 1e-12
    # rounding floor of the hopf error-bar tests, on every volume
    data = hopf.fixed_points[field]
    assert localization_sum(data) == 0
    residue = unnormalized_invariant(data)
    for vol_name, vol in hopf.volumes.items():
        for route in (invariant_direct, invariant_alternative):
            res = route(hopf.manifold, vol, hopf.fields[field], q=hopf.default_quadrature)
            assert abs(res.value - residue) <= res.error_estimate + 1e-12, (vol_name, route)
    assert "radial" not in hopf.fixed_points


def test_hopf_direct_pointwise_degenerate(hopf):
    res = invariant_direct(hopf.manifold, hopf.volumes["r4"], hopf.fields["x1"],
                           q=hopf.default_quadrature)
    assert abs(res.value) <= 1e-6


def test_hopf_default_job_node_count(hopf, monkeypatch):
    # cost guard: t = log|z| is an invariant axis and the angles are
    # band-limited, so levels 1 and 2 of the (1, 3, 2, 4) grid hold
    # 1 x 3 x 2 x 4 and 1 x 6 x 2 x 4 nodes, all on the sphere |z| = 1, and
    # both levels go to the density in one call; a grid regression shows
    # here before any benchmark run
    nodes, radii = [], set()

    def counting_integrate(density, dom, q):
        def counted(coords):
            nodes.append(len(coords))
            radii.update(np.round(np.linalg.norm(coords, axis=-1), 12))
            return density(coords)
        return integrate(counted, dom, q)

    monkeypatch.setattr(invariant_module, "integrate", counting_integrate)
    invariant_direct(hopf.manifold, hopf.volumes["r4"], hopf.fields["radial"],
                     q=hopf.default_quadrature)
    dom = hopf.manifold.fundamental_domain["punctured"]
    starts = quadrature._node_set(dom, hopf.default_quadrature).starts
    assert starts == (0, 24, 72)
    assert nodes == [72]
    assert radii == {1.0}


def test_band_limited_aliasing_shows_in_the_bar(hopf):
    # 2 nodes per angle alias r4-bump's charge (2, -1) terms: level 1 and the
    # half-spacing stagger of level 2 alias them with opposite signs, so the
    # refinement gap bounds the wrong value instead of hiding it
    res = invariant_direct(hopf.manifold, hopf.volumes["r4-bump"], hopf.fields["x1"],
                           q=QuadratureSpec((1, 3, 2, 2), 2))
    assert abs(res.value) > 1e-3
    assert abs(res.value) <= res.error_estimate


@pytest.mark.parametrize("route", [invariant_direct, invariant_alternative],
                         ids=["invariant_direct", "invariant_alternative"])
@pytest.mark.parametrize("field", ["x1", "x2", "radial"])
@pytest.mark.parametrize("vol", ["r4", "lebesgue", "r4-bump"])
def test_hopf_default_grid_is_exact(hopf, vol, field, route):
    # the angle average of every registered integrand is a polynomial in u
    # of degree <= 4, which 3 Gauss-Legendre nodes per panel integrate
    # exactly on both levels, so each bar is rounding and still bounds the
    # error within the 1e-12 rounding floor
    res = route(hopf.manifold, hopf.volumes[vol], hopf.fields[field],
                q=hopf.default_quadrature)
    assert res.error_estimate <= 1e-13
    assert abs(res.value) <= res.error_estimate + 1e-12
    if vol == "lebesgue":
        # a flat log-density has R exactly 0 (calculus's unchecked zero path)
        assert res == (0.0, 0.0)


def test_under_resolved_u_axis_shows_in_the_bar(hopf):
    # 2 Gauss-Legendre nodes per panel in u miss r4-bump's degree-4 terms;
    # the refinement gap sees it and bounds the wrong value
    res = invariant_direct(hopf.manifold, hopf.volumes["r4-bump"], hopf.fields["x1"],
                           q=QuadratureSpec((1, 2, 2, 4), 2))
    assert abs(res.value) > 1e-3
    assert abs(res.value) <= res.error_estimate
    assert res.error_estimate >= 0.1


def _cp1_job_nodes(q):
    # cp1's one piece, the (mu, theta) box: p Gauss points in mu and t
    # trapezoid nodes in theta at level 1, both doubled at level 2
    mu, theta = q.points_per_axis
    return mu * theta + (2 * mu) * (2 * theta)


def test_cp1_default_job_node_count(cp1, monkeypatch):
    # cost guard: the (mu, theta) box takes 10 x 16 nodes at level 1 and
    # 20 x 32 at level 2, both levels in one call with one row, since the
    # one piece covers the whole line
    calls = []

    def counting_integrate(density, dom, q):
        def counted(coords):
            rows = density(coords)
            calls.append((len(coords), len(rows)))
            return rows
        return integrate(counted, dom, q)

    monkeypatch.setattr(invariant_module, "integrate", counting_integrate)
    invariant_direct(cp1.manifold, cp1.volumes["fs"], cp1.fields["z-ddz"],
                     q=cp1.default_quadrature)
    assert _cp1_job_nodes(cp1.default_quadrature) == 800
    assert calls == [(800, 1)]


@pytest.mark.parametrize("route", [invariant_direct, invariant_alternative],
                         ids=["invariant_direct", "invariant_alternative"])
@pytest.mark.parametrize("field", ["ddz", "z-ddz", "z2-ddz"])
def test_cp1_fs_bump_bars_do_not_depend_on_the_radial_points(cp1, route, field):
    # theta's aliasing at level 1 sets cp1's bars, not mu: 10 Gauss points
    # per mu panel give each fs-bump bar to within 1 % of 20 points'.
    # fs is left out: its bars are rounding, about 1e-16, and move freely
    vol, x = cp1.volumes["fs-bump"], cp1.fields[field]
    trimmed = route(cp1.manifold, vol, x, q=cp1.default_quadrature)
    wide = route(cp1.manifold, vol, x, q=QuadratureSpec((20, 16), 2))
    assert cp1.default_quadrature.points_per_axis[0] < 20
    assert trimmed.error_estimate == pytest.approx(wide.error_estimate, rel=1e-2)


@pytest.mark.parametrize("route", [invariant_direct, invariant_alternative],
                         ids=["invariant_direct", "invariant_alternative"])
@pytest.mark.parametrize("field", ["ddz", "z-ddz", "z2-ddz"])
@pytest.mark.parametrize("vol", ["fs", "fs-bump"])
def test_cp1_default_bar_bounds_the_value_with_no_floor(cp1, vol, field, route):
    # every default cp1 job: the one (mu, theta) piece keeps each bar at or
    # below the 4.6e-11 that fs-bump's theta aliasing sets, and the bar
    # bounds |value|, the error, since every true value is 0, with no floor
    res = route(cp1.manifold, cp1.volumes[vol], cp1.fields[field], q=cp1.default_quadrature)
    assert res.error_estimate <= 4.6e-11
    assert abs(res.value) <= res.error_estimate


@pytest.mark.parametrize("q", [None, QuadratureSpec(32, 4)], ids=["default", "32x4"])
def test_cp1_chart_and_measure_are_finite_at_every_node(cp1, q):
    # the chart map sqrt(mu/(1-mu)) e^{i theta} and the measure
    # 1/(2(1-mu)^2) blow up at mu = 1, the point at infinity, which no
    # Gauss node reaches however fine the grid
    dom = cp1.manifold.fundamental_domain["affine"]
    nodes = quadrature._node_set(dom, q or cp1.default_quadrature)
    assert np.all(np.isfinite(nodes.chart_pts))
    assert np.all(np.isfinite(nodes.weights)) and np.all(nodes.weights > 0.0)


def _density_calls(monkeypatch, job):
    # node counts of each density call made while `job` runs
    calls = []

    def counting_integrate(density, dom, q):
        def counted(coords):
            calls.append(len(coords))
            return density(coords)
        return integrate(counted, dom, q)

    monkeypatch.setattr(invariant_module, "integrate", counting_integrate)
    job()
    return calls


def test_cp1_default_job_calls_the_density_once_for_both_pieces(cp1_two_discs, monkeypatch):
    # cost guard: both levels, 240 + 960 nodes, go in one call, and both
    # pieces share it since they share the unit disc
    cp1 = cp1_two_discs
    calls = _density_calls(monkeypatch, lambda: invariant_direct(
        cp1.manifold, cp1.volumes["fs"], cp1.fields["z-ddz"], q=cp1.default_quadrature))
    assert calls == [1_200]


def test_hopf_default_job_calls_the_density_once(hopf, monkeypatch):
    calls = _density_calls(monkeypatch, lambda: invariant_alternative(
        hopf.manifold, hopf.volumes["r4"], hopf.fields["x1"], q=hopf.default_quadrature))
    assert calls == [72]


def test_cp1_deformation_suite_density_calls(cp1, monkeypatch, capsys):
    # five t values, one field, one piece: one call, five rows, and one
    # Ricci density per slice
    riccis = []
    ricci_top_field = calculus.ricci_top_field
    monkeypatch.setattr(calculus, "ricci_top_field",
                        lambda *args: riccis.append(1) or ricci_top_field(*args))
    calls = _density_calls(monkeypatch, lambda: cli.main(
        ["check", "--example", "cp1", "--suite", "deformation"]))
    assert "suite deformation on cp1: pass" in capsys.readouterr().out
    assert calls == [_cp1_job_nodes(cp1.default_quadrature)]
    assert len(riccis) == len(cp1.suites["deformation"]["t_grid"])


def _counted(fn, calls, label):
    def counted(coords):
        calls.append((label, len(coords)))
        return fn(coords)
    return counted


@pytest.mark.parametrize("route", [invariant_direct, invariant_alternative],
                         ids=["invariant_direct", "invariant_alternative"])
def test_cp1_job_calls_each_evaluator_once_per_node(cp1, route):
    # cost guard: one piece, in the affine chart, so the log-density and the
    # field are called there once on all the job's nodes, and the chart at
    # infinity's evaluators not at all
    calls = []
    vol, x = cp1.volumes["fs"], cp1.fields["z-ddz"]
    vol = dataclasses.replace(vol, log_density={
        c: _counted(fn, calls, ("log_density", c)) for c, fn in vol.log_density.items()})
    x = VectorFieldSpec(x.name, {c: _counted(fn, calls, ("field", c))
                                 for c, fn in x.components.items()})
    route(cp1.manifold, vol, x, q=cp1.default_quadrature)
    nodes = _cp1_job_nodes(cp1.default_quadrature)
    assert sorted(calls) == [(("field", "affine"), nodes), (("log_density", "affine"), nodes)]


def test_cp1_direct_job_calls_the_shared_log_density_once_per_block(cp1_two_discs):
    # cost guard: both charts carry one log-density evaluator, so one jet
    # serves both pieces' rows; each chart's field gets one jet of its own
    cp1 = cp1_two_discs
    calls = []
    fs = cp1.volumes["fs"]
    shared = _counted(fs.log_density["affine"], calls, "log_density")
    vol = dataclasses.replace(fs, log_density={c: shared for c in fs.log_density})
    x = cp1.fields["z-ddz"]
    x = VectorFieldSpec(x.name, {c: _counted(fn, calls, c) for c, fn in x.components.items()})
    invariant_direct(cp1.manifold, vol, x, q=cp1.default_quadrature)
    assert sorted(calls) == [("affine", 1_200), ("affine-inf", 1_200), ("log_density", 1_200)]


def test_cp1_alternative_job_calls_the_shared_log_density_once_per_block(cp1_two_discs):
    # cost guard: both charts carry one log-density evaluator, so its nested
    # jet serves both pieces' rows, each contracting its own chart's field;
    # each chart's field gets one jet of its own
    cp1 = cp1_two_discs
    calls = []
    fs = cp1.volumes["fs"]
    shared = _counted(fs.log_density["affine"], calls, "log_density")
    vol = dataclasses.replace(fs, log_density={c: shared for c in fs.log_density})
    x = cp1.fields["z-ddz"]
    x = VectorFieldSpec(x.name, {c: _counted(fn, calls, c) for c, fn in x.components.items()})
    invariant_alternative(cp1.manifold, vol, x, q=cp1.default_quadrature)
    assert sorted(calls) == [("affine", 1_200), ("affine-inf", 1_200), ("log_density", 1_200)]


def test_cp1_deformation_suite_calls_each_evaluator_once_per_chart_per_block(cp1_two_discs):
    # cost guard: every evaluator wrapped per chart, as the benchmark's tracer
    # wraps them; the slices blend the endpoints' jets, so each endpoint and
    # the field are called once per chart, whatever the t-grid
    cp1 = cp1_two_discs
    calls = []
    p = cp1.suites["deformation"]
    volumes = {name: dataclasses.replace(vol, log_density={
                   c: _counted(fn, calls, (name, c)) for c, fn in vol.log_density.items()})
               for name, vol in cp1.volumes.items()}
    fields = {name: VectorFieldSpec(name, {c: _counted(fn, calls, (name, c))
                                           for c, fn in x.components.items()})
              for name, x in cp1.fields.items()}
    bundle = dataclasses.replace(cp1, volumes=volumes, fields=fields)
    rows, ok = cli.run_suite(bundle, "deformation", samples=0, seed=0,
                             q=cp1.default_quadrature)
    assert ok and len(rows) == len(p["fields"])
    charts = ("affine", "affine-inf")
    expected = [((name, c), 1_200) for name in (*p["volumes"], *p["fields"]) for c in charts]
    assert sorted(calls) == sorted(expected)


def test_grid_beyond_one_block_is_cut_into_bounded_calls(hopf, monkeypatch):
    # 16 band-limited nodes per angle: levels of 3,072 + 6,144 + 12,288
    # nodes, the finest beyond one block; no call holds more than _CELL_NODES
    q = QuadratureSpec((2, 12, 16, 16), 3)
    calls = _density_calls(monkeypatch, lambda: invariant_direct(
        hopf.manifold, hopf.volumes["r4"], hopf.fields["x1"], q=q))
    assert sum(calls) == 3_072 + 6_144 + 12_288
    assert len(calls) > 1
    assert max(calls) <= quadrature._CELL_NODES


def _chart_map_counted(m):
    # the manifold with each distinct piece's chart map counting its calls;
    # pieces that shared a domain still share one
    calls = []
    replaced = {}

    def counted(chart_map):
        def chart(pts):
            calls.append(len(pts))
            return chart_map(pts)
        return chart

    for dom in m.fundamental_domain.values():
        if id(dom) not in replaced:
            replaced[id(dom)] = dataclasses.replace(dom, chart_map=counted(dom.chart_map))
    domains = {c: replaced[id(dom)] for c, dom in m.fundamental_domain.items()}
    return dataclasses.replace(m, fundamental_domain=domains), calls


def test_cp1_job_maps_its_nodes_to_the_chart_once(cp1_two_discs):
    # cost guard: both pieces are the unit disc, so one node set serves both
    cp1 = cp1_two_discs
    m, calls = _chart_map_counted(cp1.manifold)
    invariant_direct(m, cp1.volumes["fs"], cp1.fields["z-ddz"], q=cp1.default_quadrature)
    assert calls == [1_200]


def test_deformation_suite_maps_its_nodes_to_the_chart_once(cp1):
    m, calls = _chart_map_counted(cp1.manifold)
    rows, ok = cli.run_suite(dataclasses.replace(cp1, manifold=m), "deformation",
                             samples=0, seed=0, q=cp1.default_quadrature)
    assert ok and rows
    assert calls == [_cp1_job_nodes(cp1.default_quadrature)]


def test_one_piece_result_is_the_piece_integral(hopf, monkeypatch):
    # the sum over pieces starts from the first piece, so a one-piece
    # manifold reports its integral as it is, signed zeros included
    piece = IntegrationResult(complex(-0.0, -0.0), 0.0)
    monkeypatch.setattr(invariant_module, "integrate", lambda density, dom, q: [piece])
    res = invariant_direct(hopf.manifold, hopf.volumes["r4"], hopf.fields["x1"],
                           q=hopf.default_quadrature)
    assert math.copysign(1.0, res.value.real) == math.copysign(1.0, res.value.imag) == -1.0


def _points_per_node(monkeypatch, vol, slot, route, hopf, field):
    # points handed to one evaluator of `vol` per quadrature node of one job
    nodes, points = [], []

    def counting_integrate(density, dom, q):
        def counted(coords):
            nodes.append(len(coords))
            return density(coords)
        return integrate(counted, dom, q)

    def counted_evaluator(fn):
        def counted(coords):
            points.append(len(coords))
            return fn(coords)
        return counted

    evaluators = getattr(vol, slot)
    vol = dataclasses.replace(vol, **{slot: {c: counted_evaluator(fn)
                                             for c, fn in evaluators.items()}})
    monkeypatch.setattr(invariant_module, "integrate", counting_integrate)
    route(hopf.manifold, vol, hopf.fields[field], q=hopf.default_quadrature)
    assert sum(points) % sum(nodes) == 0
    return sum(points) // sum(nodes)


def test_hopf_stencil_direct_job_log_density_calls_per_node(hopf, monkeypatch):
    # cost guard: one order-2 jet call gives the Ricci matrix and X(log a)
    assert _points_per_node(monkeypatch, hopf.volumes["r4-bump"], "log_density",
                            invariant_direct, hopf, "x1") == 1


def test_hopf_stencil_alternative_job_log_density_calls_per_node(hopf, monkeypatch):
    # cost guard: one nested jet call per node gives R, X(R) and X(log a)
    assert _points_per_node(monkeypatch, hopf.volumes["r4-bump"], "log_density",
                            invariant_alternative, hopf, "x1") == 1


def test_hopf_exact_alternative_job_exact_ricci_calls_per_node(hopf, monkeypatch):
    # cost guard: no route calls a closed-form Ricci evaluator, even where a
    # volume declares one
    declared = dataclasses.replace(hopf.volumes["r4"], exact_ricci={"punctured": r4_ricci})
    for route in (invariant_direct, invariant_alternative):
        assert _points_per_node(monkeypatch, declared, "exact_ricci", route, hopf,
                                "radial") == 0


def _innermost(coords):
    while isinstance(coords, jets.Jet):
        coords = coords.value
    return coords


@pytest.mark.parametrize("route", [invariant_direct, invariant_alternative],
                         ids=["invariant_direct", "invariant_alternative"])
def test_hopf_stencil_nodes_stay_in_the_chart(hopf, route):
    # neither route takes a step: every evaluator call, on a jet or a nested
    # jet, gets exactly the nodes of the density call it serves, so no
    # evaluation can leave the punctured chart
    contains = hopf.manifold.atlas["punctured"]
    block, moves = [], []

    def counting_integrate(density, dom, q):
        def tracked(coords):
            block[:] = [coords]
            return density(coords)
        return integrate(tracked, dom, q)

    def guarded(fn):
        def inside(coords):
            points = _innermost(coords)
            assert np.all(contains(points))
            moves.append(np.max(np.linalg.norm(points - block[0], axis=-1)))
            return fn(coords)
        return inside

    logd = hopf.volumes["r4-bump"].log_density["punctured"]
    vol = dataclasses.replace(hopf.volumes["r4-bump"], log_density={"punctured": guarded(logd)})
    x = VectorFieldSpec("x1", {"punctured": guarded(hopf.fields["x1"].components["punctured"])})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariant_module, "integrate", counting_integrate)
        route(hopf.manifold, vol, x, q=hopf.default_quadrature)
    assert moves and max(moves) == 0.0


def test_zero_field_gives_exact_zero(cp1, hopf):
    res = invariant_direct(cp1.manifold, cp1.volumes["fs"],
                           zero_field("affine", "affine-inf"), q=cp1.default_quadrature)
    assert res.value == 0.0
    res2 = invariant_direct(hopf.manifold, hopf.volumes["r4-bump"],
                            zero_field("punctured"), q=hopf.default_quadrature)
    assert res2.value == 0.0


@pytest.mark.parametrize("field", ["x1", "x2", "radial"])
def test_hopf_stencil_error_bar_bounds_the_value(hopf, field):
    # the true value is 0, so |value| is the error; the 1e-12 rounding floor
    # is the benchmark's; a noisier Hessian stencil breaks this for radial
    res = invariant_direct(hopf.manifold, hopf.volumes["r4-bump"], hopf.fields[field],
                           q=hopf.default_quadrature)
    assert abs(res.value) <= res.error_estimate + 1e-12


# --- alternative route -----------------------------------------------------


@pytest.mark.parametrize("field", ["x1", "x2", "radial"])
def test_hopf_stencil_alternative_error_bar_bounds_the_value(hopf, field):
    # the bar of the alternative route must bound |value| (true value 0) up
    # to the benchmark's 1e-12 rounding floor
    res = invariant_alternative(hopf.manifold, hopf.volumes["r4-bump"], hopf.fields[field],
                                q=hopf.default_quadrature)
    assert abs(res.value) <= res.error_estimate + 1e-12


@pytest.mark.parametrize("field", ["ddz", "z2-ddz"])
def test_cp1_fs_alternative_error_bar_bounds_the_value_with_no_floor(cp1, field):
    # for fs the ratio n! det R / a is the constant 2, so the integrand is
    # rounding alone: the nested jet keeps it below the bar, with no floor
    res = invariant_alternative(cp1.manifold, cp1.volumes["fs"], cp1.fields[field],
                                q=cp1.default_quadrature)
    assert abs(res.value) <= res.error_estimate


def test_no_route_reaches_a_stencil_or_a_closed_form(cp1, hopf, monkeypatch):
    # every registered job of both routes completes with the stencil
    # primitives and every closed-form Ricci evaluator raising
    def refuse(*args, **kwargs):
        raise AssertionError("a route reached a stencil or a closed form")

    monkeypatch.setattr(calculus, "holomorphic_derivative", refuse)
    monkeypatch.setattr(calculus, "mixed_hessian", refuse)
    jobs = 0
    for bundle in (cp1, hopf):
        for vol in bundle.volumes.values():
            vol = dataclasses.replace(vol, exact_ricci={c: refuse for c in vol.log_density})
            for x in bundle.fields.values():
                for route in (invariant_direct, invariant_alternative):
                    res = route(bundle.manifold, vol, x, q=bundle.default_quadrature)
                    assert np.isfinite(res.value), (vol.name, x.name, route.__name__)
                    jobs += 1
    assert jobs == 30


def test_cp1_alternative_agrees_with_direct(cp1):
    direct = invariant_direct(cp1.manifold, cp1.volumes["fs"], cp1.fields["z-ddz"],
                              q=cp1.default_quadrature)
    alt = invariant_alternative(cp1.manifold, cp1.volumes["fs"], cp1.fields["z-ddz"],
                                q=cp1.default_quadrature)
    assert abs(alt.value) <= 1e-4
    assert abs(direct.value - alt.value) <= 1e-4


def test_alternative_zero_field_exact(cp1):
    res = invariant_alternative(cp1.manifold, cp1.volumes["fs"],
                                zero_field("affine", "affine-inf"),
                                q=cp1.default_quadrature)
    assert res.value == 0.0


def test_hopf_alternative_ratio_degenerate(hopf):
    # n! det R / a vanishes identically for the cone density
    for name in ("x1", "x2", "radial"):
        res = invariant_alternative(hopf.manifold, hopf.volumes["r4"],
                                    hopf.fields[name], q=hopf.default_quadrature)
        assert abs(res.value) <= 1e-6


def test_method_agreement_on_cp1_examples(cp1):
    for vol_name in ("fs", "fs-bump"):
        for field_name in ("z-ddz", "ddz", "z2-ddz"):
            direct = invariant_direct(cp1.manifold, cp1.volumes[vol_name],
                                      cp1.fields[field_name],
                                      q=cp1.default_quadrature)
            alt = invariant_alternative(cp1.manifold, cp1.volumes[vol_name],
                                        cp1.fields[field_name],
                                        q=cp1.default_quadrature)
            assert abs(direct.value - alt.value) <= 1e-4, (vol_name, field_name)


@pytest.mark.parametrize("route", [invariant_direct, invariant_alternative])
@pytest.mark.parametrize("field_name", ["z-ddz", "ddz", "z2-ddz"])
def test_fs_bump_vanishes_within_its_bar(cp1, route, field_name):
    # the bump is real-analytic on both charts, so the stencils see no flat
    # point and every fs-bump value lands at rounding level with a bar that
    # bounds it
    res = route(cp1.manifold, cp1.volumes["fs-bump"], cp1.fields[field_name],
                q=cp1.default_quadrature)
    assert abs(res.value) + res.error_estimate <= 1e-9


# --- linearity -------------------------------------------------------------


def test_linearity_in_the_field(cp1):
    a, b = 0.7 - 1.3j, -0.4 + 2.1j
    x, y = cp1.fields["z-ddz"], cp1.fields["z2-ddz"]
    combo = VectorFieldSpec("combo", {
        chart: lambda c, chart=chart: (a * x.components[chart](c)
                                       + b * y.components[chart](c))
        for chart in ("affine", "affine-inf")})
    vol = cp1.volumes["fs-bump"]
    q = cp1.default_quadrature
    fx = invariant_direct(cp1.manifold, vol, x, q=q)
    fy = invariant_direct(cp1.manifold, vol, y, q=q)
    fc = invariant_direct(cp1.manifold, vol, combo, q=q)
    budget = (fc.error_estimate + abs(a) * fx.error_estimate
              + abs(b) * fy.error_estimate + 1e-9)
    assert abs(fc.value - (a * fx.value + b * fy.value)) <= budget


@pytest.mark.parametrize("route", [invariant_direct, invariant_alternative],
                         ids=["invariant_direct", "invariant_alternative"])
def test_linearity_in_the_field_hopf(hopf, route):
    # radial = x1 + x2, so f(radial) = f(x1) + f(x2) within the three bars
    vol, q = hopf.volumes["r4-bump"], hopf.default_quadrature
    f = {name: route(hopf.manifold, vol, hopf.fields[name], q=q)
         for name in ("x1", "x2", "radial")}
    budget = sum(res.error_estimate for res in f.values())
    assert abs(f["radial"].value - (f["x1"].value + f["x2"].value)) <= budget


def test_alternative_rows_of_n_fields_share_one_nested_jet_on_the_axes(hopf):
    # x1, x2 and radial on one route call: three fields >= n = 2, so the
    # log-density's one nested jet is over the coordinate axes and each row
    # contracts sum_i X^i d[i]. Each value agrees with its one-field job,
    # whose jet is along X itself, and radial = x1 + x2 holds within the bars.
    # The bars are refinement gaps and blind to rounding (ROADMAP item 4):
    # the two jets differ by a few ulps of the integrand terms at each node,
    # which no bar need cover, so the agreement allows `rounding` beyond them
    rounding = 1e-13
    vol, q = hopf.volumes["r4-bump"], hopf.default_quadrature
    names = ("x1", "x2", "radial")
    calls = []
    counted = dataclasses.replace(vol, log_density={
        c: _counted(fn, calls, c) for c, fn in vol.log_density.items()})
    shared = dict(zip(names, invariant_module._integrate_route(
        hopf.manifold, [(counted, hopf.fields[name]) for name in names],
        invariant_module._alternative_row, q)))
    assert calls == [("punctured", 72)]
    for name in names:
        alone = invariant_alternative(hopf.manifold, vol, hopf.fields[name], q=q)
        budget = shared[name].error_estimate + alone.error_estimate + rounding
        assert abs(shared[name].value - alone.value) <= budget, name
    budget = sum(res.error_estimate for res in shared.values())
    assert abs(shared["radial"].value - (shared["x1"].value + shared["x2"].value)) <= budget


def _hex(res):
    value = complex(res.value)
    return value.real.hex(), value.imag.hex(), float(res.error_estimate).hex()


@pytest.mark.parametrize("example", ["cp1", "hopf"])
def test_direct_pairs_are_the_one_pair_calls_bit_for_bit(example, request):
    # every (volume, field) pair of the bundle in one direct-route call: each
    # row's value and bar are those of its own invariant_direct call
    bundle = request.getfixturevalue(example)
    m, q = bundle.manifold, bundle.default_quadrature
    pairs = [(bundle.volumes[v], bundle.fields[f])
             for v in sorted(bundle.volumes) for f in sorted(bundle.fields)]
    shared = holoinv.invariant_direct_pairs(m, iter(pairs), q=q)
    assert len(shared) == len(pairs)
    for (vol, fld), res in zip(pairs, shared):
        alone = invariant_direct(m, vol, fld, q=q)
        assert _hex(res) == _hex(alone), (vol.name, fld.name)


# --- choice independence ---------------------------------------------------


def test_choice_independence_cp1(cp1):
    q = cp1.default_quadrature
    for field_name in ("z-ddz", "ddz", "z2-ddz"):
        f0 = invariant_direct(cp1.manifold, cp1.volumes["fs"],
                              cp1.fields[field_name], q=q)
        f1 = invariant_direct(cp1.manifold, cp1.volumes["fs-bump"],
                              cp1.fields[field_name], q=q)
        assert abs(f0.value - f1.value) <= 2.0 * (f0.error_estimate + f1.error_estimate)


def test_choice_independence_hopf(hopf):
    q = hopf.default_quadrature
    names = sorted(hopf.volumes)
    for i, n0 in enumerate(names):
        for n1 in names[i + 1:]:
            f0 = invariant_direct(hopf.manifold, hopf.volumes[n0],
                                  hopf.fields["x1"], q=q)
            f1 = invariant_direct(hopf.manifold, hopf.volumes[n1],
                                  hopf.fields["x1"], q=q)
            assert abs(f0.value - f1.value) <= max(
                2.0 * (f0.error_estimate + f1.error_estimate), 1e-6), (n0, n1)


# --- pointwise degeneracy on the Hopf surface -------------------------------


def test_vaisman_pointwise_determinant(hopf):
    pts = sample_domain_points(hopf.manifold.fundamental_domain["punctured"], 10_000, seed=0)
    # the jet's n! det R, as the routes take it, against the closed form's
    top = calculus.ricci_top_field(hopf.volumes["r4"].log_density["punctured"], pts)
    assert float(np.max(np.abs(top))) / 2.0 <= 1e-8
    assert float(np.max(np.abs(np.linalg.det(r4_ricci(pts))))) <= 1e-8


def test_perturbed_density_is_not_degenerate_pointwise(hopf):
    from holoinv import calculus

    pts = sample_domain_points(hopf.manifold.fundamental_domain["punctured"], 200, seed=1)
    ricci = calculus.ricci_from_log_density(
        hopf.volumes["r4-bump"].log_density["punctured"], pts)
    assert float(np.max(np.abs(np.linalg.det(ricci)))) > 1e-3


# --- deformation families ---------------------------------------------------


def test_deformation_curve_spread_cp1(cp1):
    curve = deformation_invariant_curve(
        cp1.manifold, cp1.volumes["fs"], cp1.volumes["fs-bump"],
        cp1.fields["z-ddz"], (0.0, 0.5, 1.0), q=cp1.default_quadrature)
    values = [r.value for _, r in curve]
    spread = max(abs(u - v) for u in values for v in values)
    assert spread <= 2.0 * max(r.error_estimate for _, r in curve)


def test_deformation_row_bar_sums_the_two_largest_bars(cp1):
    # the row's value is a difference f(s) - f(t), whose error can reach
    # err_s + err_t, so one bar alone does not bound it
    p = cp1.suites["deformation"]
    (row,), ok = cli.run_suite(cp1, "deformation", samples=0, seed=0,
                               q=cp1.default_quadrature)
    curve = deformation_invariant_curve(
        cp1.manifold, *(cp1.volumes[v] for v in p["volumes"]),
        cp1.fields["z-ddz"], p["t_grid"], q=cp1.default_quadrature)
    largest, second = sorted((r.error_estimate for _, r in curve), reverse=True)[:2]
    assert ok and second > 0.0
    assert row["error"] == largest + second


def test_deformation_trivial_family_is_constant(cp1):
    curve = deformation_invariant_curve(
        cp1.manifold, cp1.volumes["fs"], cp1.volumes["fs"],
        cp1.fields["z-ddz"], (0.0, 0.3, 1.0), q=cp1.default_quadrature)
    values = [r.value for _, r in curve]
    assert values[0] == values[1] == values[2]
    fs = cp1.volumes["fs"]
    assert interpolated_volume(fs, fs, 0.3) is fs


def test_blended_log_density_jet_is_the_blended_ricci(cp1):
    # blend passes the endpoints' jets through, so the blended log-density's
    # jet Hessian is the blend of the closed-form Ricci matrices
    fs = cp1.volumes["fs"]
    vol = interpolated_volume(fs, cp1.volumes["fs-bump"], 0.25)
    assert vol.exact_ricci == {}
    rng = np.random.default_rng(17)
    pts = rng.uniform(-2, 2, (200, 1)) + 1j * rng.uniform(-2, 2, (200, 1))
    for chart in ("affine", "affine-inf"):
        jet = jets.evaluate(vol.log_density[chart], pts, 2)
        assert isinstance(jet, jets.Jet)
        blended = (0.75 * fs.exact_ricci[chart](pts) + 0.25 * fs_bump_ricci(pts))[:, 0, 0]
        assert np.max(np.abs(-jet.dd[0][0] - blended) / np.abs(blended)) <= 1e-13, chart


def _bits(res):
    return res.value.real.hex(), res.value.imag.hex(), res.error_estimate.hex()


def _opaque(vol):
    # the volume with each chart's evaluator behind a plain function, which
    # the route cannot see into: a slice's jet is then the blend evaluator's
    # own call on the coordinates' jet
    return dataclasses.replace(vol, log_density={
        c: (lambda coords, fn=fn: fn(coords)) for c, fn in vol.log_density.items()})


@pytest.mark.parametrize("case", ["cp1", "hopf", "trivial", "wrapped"])
def test_deformation_curve_is_the_slices_bit_for_bit(cp1, hopf, case):
    # one route call over every slice gives each slice's value and bar as
    # invariant_direct on that slice alone, and as the blend evaluator's
    # own arithmetic on jets
    if case == "hopf":
        bundle, names, t_grid = hopf, ("r4", "lebesgue"), (0.0, 0.5, 1.0)
    else:
        bundle, names, t_grid = cp1, ("fs", "fs-bump"), cp1.suites["deformation"]["t_grid"]
    vol0, vol1 = (bundle.volumes[name] for name in names)
    if case == "trivial":
        vol1 = vol0
    if case == "wrapped":
        # a distinct wrapper per chart around the one evaluator both charts
        # share, as the benchmark's tracer wraps them
        vol0, vol1 = _opaque(vol0), _opaque(vol1)
    m, q = bundle.manifold, bundle.default_quadrature
    for x in bundle.fields.values():
        curve = deformation_invariant_curve(m, vol0, vol1, x, t_grid, q=q)
        assert [t for t, _ in curve] == list(t_grid)
        for t, res in curve:
            vol = interpolated_volume(vol0, vol1, t)
            alone = invariant_direct(m, vol, x, q=q)
            opaque = invariant_direct(m, _opaque(vol), x, q=q)
            assert _bits(res) == _bits(alone) == _bits(opaque), (case, x.name, t)


def test_deformation_hopf_cross_character(hopf):
    curve = deformation_invariant_curve(
        hopf.manifold, hopf.volumes["r4"], hopf.volumes["lebesgue"],
        hopf.fields["x1"], (0.0, 1.0), q=hopf.default_quadrature)
    for _, res in curve:
        assert abs(res.value) <= 1e-6


def test_deformation_character_interpolation(hopf):
    r4, lebesgue = hopf.volumes["r4"], hopf.volumes["lebesgue"]
    assert interpolated_volume(r4, lebesgue, 0.0) is r4
    assert interpolated_volume(r4, lebesgue, 1.0) is lebesgue
    vol = interpolated_volume(r4, lebesgue, 0.5)
    assert vol.character.generator_values["double"] == pytest.approx(4.0)
    # the slice must itself be automorphic for the interpolated character
    from holoinv import verify_automorphic

    assert max(verify_automorphic(vol, hopf.manifold).values()) <= 1e-8


def test_deformation_family_validation(cp1, hopf):
    with pytest.raises(ValueError):
        interpolated_volume(cp1.volumes["fs"], hopf.volumes["r4"], 0.5)
    with pytest.raises(ValueError):
        interpolated_volume(cp1.volumes["fs"], cp1.volumes["fs-bump"], 1.5)


def test_normalization_recorded():
    assert "2^n" in holoinv.NORMALIZATION or "2 dx" in holoinv.NORMALIZATION
