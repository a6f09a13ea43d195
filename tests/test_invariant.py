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


def test_hopf_direct_pointwise_degenerate(hopf):
    res = invariant_direct(hopf.manifold, hopf.volumes["r4"], hopf.fields["x1"],
                           q=hopf.default_quadrature)
    assert abs(res.value) <= 1e-6


def test_hopf_default_job_node_count(hopf, monkeypatch):
    # cost guard: t = log|z| is an invariant axis, so levels 1 and 2 of the
    # (2, 12, 4, 4) grid hold 1 x 12 x 4 x 4 and 1 x 24 x 8 x 8 nodes, all on
    # the sphere |z| = 1, and both levels go to the density in one call; a
    # grid regression shows here before any benchmark run
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
    assert starts == (0, 1 * 12 * 4 * 4, 1 * 12 * 4 * 4 + 1 * 24 * 8 * 8)
    assert nodes == [1_728]
    assert radii == {1.0}


def test_cp1_default_job_node_count(cp1, monkeypatch):
    # cost guard: each unit disc takes 20 x 16 nodes at level 1 and 40 x 32
    # at level 2, and a job integrates both discs: one row per disc on the
    # one node set they share
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
    assert calls == [(1_600, 2)]


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


def test_cp1_default_job_calls_the_density_once_for_both_pieces(cp1, monkeypatch):
    # cost guard: both levels, 320 + 1,280 nodes, go in one call, and both
    # pieces share it since they share the unit disc
    calls = _density_calls(monkeypatch, lambda: invariant_direct(
        cp1.manifold, cp1.volumes["fs"], cp1.fields["z-ddz"], q=cp1.default_quadrature))
    assert calls == [1_600]


def test_hopf_default_job_calls_the_density_once(hopf, monkeypatch):
    calls = _density_calls(monkeypatch, lambda: invariant_alternative(
        hopf.manifold, hopf.volumes["r4"], hopf.fields["x1"], q=hopf.default_quadrature))
    assert calls == [1_728]


def test_cp1_deformation_suite_density_calls(cp1, monkeypatch, capsys):
    # five t values, one field, two pieces on one node set: one call, ten rows
    calls = _density_calls(monkeypatch, lambda: cli.main(
        ["check", "--example", "cp1", "--suite", "deformation"]))
    assert "suite deformation on cp1: pass" in capsys.readouterr().out
    assert calls == [1_600]


def _counted(fn, calls, label):
    def counted(coords):
        calls.append((label, len(coords)))
        return fn(coords)
    return counted


def test_cp1_direct_job_calls_the_shared_log_density_once_per_block(cp1):
    # cost guard: both charts carry one log-density evaluator, so one jet
    # serves both pieces' rows; each chart's field gets one jet of its own
    calls = []
    fs = cp1.volumes["fs"]
    shared = _counted(fs.log_density["affine"], calls, "log_density")
    vol = dataclasses.replace(fs, log_density={c: shared for c in fs.log_density})
    x = cp1.fields["z-ddz"]
    x = VectorFieldSpec(x.name, {c: _counted(fn, calls, c) for c, fn in x.components.items()})
    invariant_direct(cp1.manifold, vol, x, q=cp1.default_quadrature)
    assert sorted(calls) == [("affine", 1_600), ("affine-inf", 1_600), ("log_density", 1_600)]


def test_cp1_deformation_suite_calls_each_evaluator_once_per_chart_per_block(cp1):
    # cost guard: every evaluator wrapped per chart, as the benchmark's tracer
    # wraps them; the slices blend the endpoints' jets, so each endpoint and
    # the field are called once per chart, whatever the t-grid
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
    expected = [((name, c), 1_600) for name in (*p["volumes"], *p["fields"]) for c in charts]
    assert sorted(calls) == sorted(expected)


def test_grid_beyond_one_block_is_cut_into_bounded_calls(hopf, monkeypatch):
    # levels of 192 + 1,536 + 12,288 nodes: no call holds more than _CELL_NODES
    q = QuadratureSpec((2, 12, 4, 4), 3)
    calls = _density_calls(monkeypatch, lambda: invariant_direct(
        hopf.manifold, hopf.volumes["r4"], hopf.fields["x1"], q=q))
    assert sum(calls) == 192 + 1_536 + 12_288
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


def test_cp1_job_maps_its_nodes_to_the_chart_once(cp1):
    # cost guard: both pieces are the unit disc, so one node set serves both
    m, calls = _chart_map_counted(cp1.manifold)
    invariant_direct(m, cp1.volumes["fs"], cp1.fields["z-ddz"], q=cp1.default_quadrature)
    assert calls == [1_600]


def test_deformation_suite_maps_its_nodes_to_the_chart_once(cp1):
    m, calls = _chart_map_counted(cp1.manifold)
    rows, ok = cli.run_suite(dataclasses.replace(cp1, manifold=m), "deformation",
                             samples=0, seed=0, q=cp1.default_quadrature)
    assert ok and rows
    assert calls == [1_600]


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
    # every registered job of both routes completes with the stencil core
    # and every closed-form Ricci evaluator raising
    def refuse(*args, **kwargs):
        raise AssertionError("a route reached a stencil or a closed form")

    monkeypatch.setattr(calculus, "directional_derivative", refuse)
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
