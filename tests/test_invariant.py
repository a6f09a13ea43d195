"""The invariant by both routes: vanishing values, agreement, independence."""

import dataclasses
import math

import numpy as np
import pytest

from holoinv import (
    InvariantResult,
    VectorFieldSpec,
    deformation_invariant_curve,
    interpolated_volume,
    invariant_alternative,
    invariant_direct,
    localization_sum,
    sample_domain_points,
)
from holoinv import cli, jets
from holoinv import invariant as invariant_module
from holoinv import quadrature
from holoinv.calculus import DEFAULT_STEP
from holoinv.quadrature import IntegrationResult, QuadratureSpec, integrate


def zero_field(*chart_ids):
    return VectorFieldSpec("zero", {chart: lambda c: np.zeros_like(c) for chart in chart_ids})


# --- direct route ----------------------------------------------------------


def test_cp1_direct_vanishes_against_residue_oracle(cp1):
    # the residue engine gives exactly zero for this field
    assert localization_sum(cp1.fixed_point_data) == 0
    res = invariant_direct(cp1.manifold, cp1.volumes["fs"], cp1.fields["z-ddz"],
                           q=cp1.default_quadrature)
    assert abs(res.value) <= max(1e-6, res.error_estimate)
    assert res.method == "direct"


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
    # at level 2, and a job integrates both discs
    nodes = []

    def counting_integrate(density, dom, q):
        def counted(coords):
            nodes.append(len(coords))
            return density(coords)
        return integrate(counted, dom, q)

    monkeypatch.setattr(invariant_module, "integrate", counting_integrate)
    invariant_direct(cp1.manifold, cp1.volumes["fs"], cp1.fields["z-ddz"],
                     q=cp1.default_quadrature)
    assert sum(nodes) == 3_200


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


def test_cp1_default_job_calls_the_density_once_per_piece(cp1, monkeypatch):
    # cost guard: both levels of a piece, 320 + 1,280 nodes, go in one call
    calls = _density_calls(monkeypatch, lambda: invariant_direct(
        cp1.manifold, cp1.volumes["fs"], cp1.fields["z-ddz"], q=cp1.default_quadrature))
    assert calls == [1_600, 1_600]


def test_hopf_default_job_calls_the_density_once(hopf, monkeypatch):
    calls = _density_calls(monkeypatch, lambda: invariant_alternative(
        hopf.manifold, hopf.volumes["r4"], hopf.fields["x1"], q=hopf.default_quadrature))
    assert calls == [1_728]


def test_cp1_deformation_suite_density_calls(cp1, monkeypatch, capsys):
    # five t values, one field, two pieces: one call each
    calls = _density_calls(monkeypatch, lambda: cli.main(
        ["check", "--example", "cp1", "--suite", "deformation"]))
    assert "suite deformation on cp1: pass" in capsys.readouterr().out
    assert len(calls) == 10


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
    monkeypatch.setattr(invariant_module, "integrate", lambda density, dom, q: piece)
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
    # cost guard: X(n! det R / a) is 8 ratio calls, each one order-2 jet that
    # gives both R and 1 / a, and the weight a is one more: 8 + 1
    assert _points_per_node(monkeypatch, hopf.volumes["r4-bump"], "log_density",
                            invariant_alternative, hopf, "x1") == 9


def test_hopf_exact_alternative_job_exact_ricci_calls_per_node(hopf, monkeypatch):
    # cost guard: X(n! det R / a) is one directional stencil, 8 ratio calls
    assert _points_per_node(monkeypatch, hopf.volumes["r4"], "exact_ricci",
                            invariant_alternative, hopf, "radial") == 8


@pytest.mark.parametrize("route, reach", [(invariant_direct, 0.0),
                                          (invariant_alternative, 2.0 * DEFAULT_STEP)],
                         ids=["invariant_direct", "invariant_alternative"])
def test_hopf_stencil_nodes_stay_in_the_chart(hopf, route, reach):
    # the direct route takes no step: every evaluator call gets exactly the
    # nodes of the density call it serves. The alternative route's one
    # stencil, the directional one along X, moves at most 2h from a node, so
    # no evaluation may leave the punctured chart: the piece keeps |z| >= 1
    contains = hopf.manifold.atlas["punctured"]
    block, moves = [], []

    def counting_integrate(density, dom, q):
        def tracked(coords):
            block[:] = [coords]
            return density(coords)
        return integrate(tracked, dom, q)

    def guarded(fn):
        def inside(coords):
            points = np.asarray(getattr(coords, "value", coords))
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
    assert moves and max(moves) <= reach * (1.0 + 1e-12)


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
    # the alternative route's third derivatives make it the noisier one;
    # its bar must still bound |value| (true value 0) up to the benchmark's
    # 1e-12 rounding floor
    res = invariant_alternative(hopf.manifold, hopf.volumes["r4-bump"], hopf.fields[field],
                                q=hopf.default_quadrature)
    assert abs(res.value) <= res.error_estimate + 1e-12


def test_cp1_alternative_agrees_with_direct(cp1):
    direct = invariant_direct(cp1.manifold, cp1.volumes["fs"], cp1.fields["z-ddz"],
                              q=cp1.default_quadrature)
    alt = invariant_alternative(cp1.manifold, cp1.volumes["fs"], cp1.fields["z-ddz"],
                                q=cp1.default_quadrature)
    assert abs(alt.value) <= 1e-4
    assert abs(direct.value - alt.value) <= 1e-4
    assert alt.method == "alternative"


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
    ricci = hopf.volumes["r4"].exact_ricci["punctured"](pts)
    assert float(np.max(np.abs(np.linalg.det(ricci)))) <= 1e-8


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
    vol = interpolated_volume(cp1.volumes["fs"], cp1.volumes["fs-bump"], 0.25)
    rng = np.random.default_rng(17)
    pts = rng.uniform(-2, 2, (200, 1)) + 1j * rng.uniform(-2, 2, (200, 1))
    for chart in ("affine", "affine-inf"):
        jet = jets.evaluate(vol.log_density[chart], pts, 2)
        assert isinstance(jet, jets.Jet)
        blended = vol.exact_ricci[chart](pts)[:, 0, 0]
        assert np.max(np.abs(-jet.dd[0][0] - blended) / np.abs(blended)) <= 1e-13, chart


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


def test_result_validation():
    with pytest.raises(ValueError):
        InvariantResult(0.0, -1.0, "direct")


def test_normalization_recorded(cp1):
    res = invariant_direct(cp1.manifold, cp1.volumes["fs"], cp1.fields["ddz"],
                           q=cp1.default_quadrature)
    assert "2^n" in res.normalization or "2 dx" in res.normalization
