"""Tensor-product quadrature: benchmarks, determinism, error estimates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holoinv import (
    IllPosedIntegrandError,
    IntegrationDomain,
    QuadratureSpec,
    integrate,
    invariant_alternative,
)
from holoinv import calculus, quadrature


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def ones(z):
    return np.ones(z.shape[:-1])


UNIT_BOX = IntegrationDomain(box=((0.0, 1.0), (0.0, 1.0)))


def test_unit_box_area():
    res = integrate(ones, UNIT_BOX, QuadratureSpec(4, 2))
    assert abs(res.value - 1.0) < 1e-14


def test_plane_area_benchmark(cp1):
    # closed form: integral of 2/(1+|z|^2)^2 over the line is 2*pi, whatever
    # the pieces: they add up
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
    # error estimates shrink at least 4x per level until the 1e-10 floor.
    # The integral of exp(-|z|^2) over the plane is pi; on the moment box it
    # reads exp(-mu/(1-mu)) / (2(1-mu)^2), smooth but not a polynomial, so
    # every level's bar is quadrature error, not rounding. The Fubini-Study
    # density would not do: times the box's measure it is the constant 1.
    def density(z):
        return np.exp(-_abs2(z[..., 0]))

    dom = cp1.manifold.fundamental_domain["affine"]
    estimates = []
    for levels in (2, 3, 4):
        res = integrate(density, dom, QuadratureSpec(8, levels))
        assert abs(res.value - math.pi) <= res.error_estimate
        estimates.append(res.error_estimate)
    assert estimates[-1] > 1e-10
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


def test_one_nonfinite_sample_is_refused():
    # only the finest level (32 points, 4 panels) puts a node column below
    # x = 5e-4, at x ~ 3.4e-4: 128 of 16,384 samples, under 1 %, still refused
    def thin_sliver(z):
        out = np.ones(z.shape[:-1])
        out[z[..., 0].real < 5e-4] = np.nan
        return out

    with pytest.raises(IllPosedIntegrandError,
                       match="128 of 16384 samples non-finite at level 3"):
        integrate(thin_sliver, UNIT_BOX, QuadratureSpec(32, 3))


# every finite double: integer significands up to 2^53 - 1 times 2^-1074 ..
# 2^970, so the values' exponents run from -1074 to 1023, subnormals included
_DOUBLES = st.one_of(st.builds(math.ldexp, st.integers(-(2 ** 53 - 1), 2 ** 53 - 1),
                               st.integers(-1074, 970)),
                     st.sampled_from([0.0, -0.0]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(_DOUBLES, _DOUBLES), min_size=2, max_size=40),
       cancel=st.booleans())
@example(pairs=[(0.0, -0.0), (-0.0, -0.0)], cancel=False)
@example(pairs=[(1e16, 3.0), (1.0, 1e-3), (-1e16, -1e16), (3.0, 1e16)], cancel=False)
@example(pairs=[(math.ldexp(1, -1074), -0.0), (-0.0, math.ldexp(1, -1074))], cancel=False)
def test_a_level_sums_to_the_exactly_rounded_sum_of_its_values(pairs, cancel):
    # one level of p nodes x = 0 .. p - 1 on the periodic box (0, p), each
    # weighted exactly 1, so the level's weighted values are the drawn
    # doubles; with `cancel`, every pair's negation and a smallest subnormal
    if cancel:
        tiny = math.ldexp(1.0, -1074)
        pairs = pairs + [(-re, -im) for re, im in reversed(pairs)] + [(tiny, tiny)]
    re, im = ([pair[k] for pair in pairs] for k in (0, 1))
    values = np.array(re, dtype=complex)
    values.imag = im
    dom = IntegrationDomain(((0.0, float(len(values))),), chart_map=lambda pts: pts + 0j,
                            rules=("periodic",))

    def run():
        return integrate(lambda z: values[z[:, 0].real.astype(int)], dom,
                         QuadratureSpec(len(values), 1))

    try:
        expected = complex(math.fsum(re), math.fsum(im))
    except OverflowError:
        with pytest.raises(IllPosedIntegrandError,
                           match="the weighted sum overflows at level 1$"):
            run()
        return
    value = run().value
    assert (value.real.hex(), value.imag.hex()) == (expected.real.hex(), expected.imag.hex())


@pytest.mark.parametrize("value, box, q, level", [
    # finite weighted values (at most 1.06e308) whose level-1 sum is 1e309
    (1e307, ((0.0, 10.0), (0.0, 10.0)), QuadratureSpec(4, 2), 1),
    # weighted values beyond the float range: 1.7e308 times weights above 1
    (1.7e308, ((0.0, 10.0), (0.0, 10.0)), QuadratureSpec(4, 2), 1),
    # large only on the sliver x < 0.5 (1e-3 of the box), which only
    # level 3's node columns reach, with weights up to about 11 there
    ("sliver", ((0.0, 1e3), (0.0, 1e3)), QuadratureSpec(32, 3), 3),
    # 2 x 2 Gauss nodes each weighted exactly 1: weighted values 1e308,
    # 1e308, -1e308, 0 in node order, whose exact sum 1e308 is finite but
    # whose running sum is not, which math.fsum refuses
    ("running", ((0.0, 2.0), (0.0, 2.0)), QuadratureSpec(2, 1), 1),
])
def test_overflow_is_ill_posed_at_its_level(value, box, q, level):
    def density(z):
        x, y = z[..., 0].real, z[..., 0].imag
        if value == "sliver":
            return np.where(x < 0.5, 1.7e308, 1.0)
        if value == "running":
            return np.where(x < 1.0, 1e308, np.where(y < 1.0, -1e308, 0.0))
        return np.full(z.shape[:-1], value)

    with pytest.raises(IllPosedIntegrandError,
                       match=f"the weighted sum overflows at level {level}$"):
        integrate(density, IntegrationDomain(box), q)



def test_invariant_density_wrapper_hopf_degenerate(hopf):
    vol = hopf.volumes["r4"]

    def density(z):
        return calculus.ricci_top_field(vol.log_density["punctured"], z)

    res = integrate(density, hopf.manifold.fundamental_domain["punctured"],
                    QuadratureSpec(5, 2))
    assert abs(res.value) < 1e-12
    assert res.error_estimate < 1e-12


def test_invariant_density_wrapper_cp1_odd_integrand(cp1_two_discs):
    # div X * top for z d/dz integrates to +pi/2 over the affine disc and to
    # -pi/2 over the disc at infinity, so the pieces must cancel
    cp1 = cp1_two_discs
    vol, fld = cp1.volumes["fs"], cp1.fields["z-ddz"]

    def pieces(q):
        results = []
        for chart, dom in cp1.manifold.fundamental_domain.items():
            def density(z, chart=chart):
                div = calculus.divergence_field(fld.components[chart],
                                                vol.log_density[chart], z)
                top = calculus.ricci_top_field(vol.log_density[chart], z)
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


@pytest.mark.parametrize("kwargs, field", [
    ({"points_per_axis": [16, 16]}, "points_per_axis"),
    ({"points_per_axis": 2.5}, "points_per_axis"),
    ({"points_per_axis": (16, 16.0)}, "points_per_axis"),
    ({"points_per_axis": True}, "points_per_axis"),
    ({"points_per_axis": (4, np.True_)}, "points_per_axis"),
    ({"refinement_levels": 2.0}, "refinement_levels"),
    ({"refinement_levels": True}, "refinement_levels"),
    ({"refinement_levels": "3"}, "refinement_levels"),
], ids=["list", "float-count", "float-in-tuple", "bool-count", "numpy-bool-in-tuple",
        "float-levels", "bool-levels", "str-levels"])
def test_spec_refuses_what_is_not_an_integer(kwargs, field):
    # each used to fail later inside numpy, raise a bare TypeError, or (True)
    # pass for one level; numpy integers stay accepted
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        QuadratureSpec(**kwargs)
    assert QuadratureSpec(np.int64(4), np.int32(2)) == QuadratureSpec(4, 2)
    QuadratureSpec((np.int16(4), 3), 2)


def test_spec_validation():
    # the spec does not know the axis rules: a count of 1 is refused per axis
    # when the nodes are built (test_single_point_is_refused_...)
    with pytest.raises(ValueError, match="must be >= 1"):
        QuadratureSpec(points_per_axis=0)
    with pytest.raises(ValueError, match="must be >= 1"):
        QuadratureSpec(points_per_axis=(4, 0))
    with pytest.raises(ValueError):
        QuadratureSpec(refinement_levels=0)
    QuadratureSpec(points_per_axis=1, refinement_levels=1)  # smallest allowed


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
    seen = []

    def recording(z):
        seen.append(z[..., 0].copy())
        return np.ones(z.shape[:-1])

    res = integrate(recording, PERIODIC_BOX, QuadratureSpec((3, 5), 2))
    z = np.concatenate(seen)
    assert len(z) == 15 + 60
    level1, level2 = z[:15], z[15:]
    assert (len(set(level1.real)), len(set(level1.imag))) == (3, 5)
    assert (len(set(level2.real)), len(set(level2.imag))) == (6, 10)
    assert abs(res.value - 2.0 * math.pi) < 1e-13


INVARIANT_BOX = IntegrationDomain(box=((0.5, 3.0), (-1.0, 1.0)),
                                  rules=("invariant", "gauss"))


BANDED_BOX = IntegrationDomain(box=((0.0, 1.0), (0.0, 2.0 * math.pi)),
                               rules=("gauss", "band-limited"))


@pytest.mark.parametrize("dom, points, axis, rule", [
    (UNIT_BOX, 1, 0, "gauss"),
    (UNIT_BOX, (4, 1), 1, "gauss"),
    (PERIODIC_BOX, (4, 1), 1, "periodic"),
    (BANDED_BOX, (4, 1), 1, "band-limited"),
    (INVARIANT_BOX, (1, 1), 1, "gauss"),
], ids=["gauss-all", "gauss", "periodic", "band-limited", "gauss-beside-invariant"])
def test_single_point_is_refused_on_every_axis_but_an_invariant_one(dom, points, axis, rule):
    with pytest.raises(ValueError, match=rf"^box axis {axis} \({rule}\) needs >= 2 "
                                         "points_per_axis, got 1$"):
        integrate(ones, dom, QuadratureSpec(points, 2))


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("points", [1, 2, 7])
def test_invariant_axis_takes_one_node_at_lo(levels, points):
    # at every level the invariant axis holds one node at lo weighted
    # hi - lo, whatever its point count, 1 included; the other axis refines
    # as usual
    seen = []

    def recording(z):
        seen.append(z[..., 0].copy())
        return np.ones(z.shape[:-1])

    q = QuadratureSpec((points, 4), levels)
    res = integrate(recording, INVARIANT_BOX, q)
    z = np.concatenate(seen)
    counts = [4 * 2 ** k for k in range(levels)]
    starts = quadrature._node_set(INVARIANT_BOX, q).starts
    assert [hi - lo for lo, hi in zip(starts, starts[1:])] == counts
    assert len(z) == sum(counts)
    for lo, hi, count in zip(starts, starts[1:], counts):
        assert len(set(z[lo:hi].imag)) == count
    assert np.all(z.real == 0.5)
    assert abs(res.value - 2.5 * 2.0) < 1e-14
    if levels > 1:
        assert res.error_estimate < 1e-14


@pytest.mark.parametrize("limit, refused", [(28, False), (27, True)])
def test_node_limit_counts_every_level_before_building(monkeypatch, limit, refused):
    # (7, 4) over 3 levels on INVARIANT_BOX: the invariant axis counts once
    # per level, so 4 + 8 + 16 = 28 nodes
    monkeypatch.setattr(quadrature, "_MAX_NODES", limit)
    quadrature._node_set.cache_clear()
    q = QuadratureSpec((7, 4), 3)
    if refused:
        with pytest.raises(ValueError, match="has more than 27 nodes over its levels"):
            integrate(lambda z: np.ones(z.shape[:-1]), INVARIANT_BOX, q)
    else:
        assert len(quadrature._node_set(INVARIANT_BOX, q).weights) == 28


def test_invariant_axis_weight_is_its_length():
    # a density that varies along the invariant axis is read at lo only
    res = integrate(lambda z: z[..., 0].real ** 2, INVARIANT_BOX, QuadratureSpec(4, 2))
    assert abs(res.value - 0.25 * 2.5 * 2.0) < 1e-14
    assert res.error_estimate == 0.0


def test_single_level_reports_unknown_error():
    res = integrate(ones, UNIT_BOX, QuadratureSpec(4, 1))
    assert res.error_estimate == math.inf


# --- one node set, density calls across levels, one exact sum per level -----


def _gauss_axis(lo, hi, level, p):
    x, w = np.polynomial.legendre.leggauss(p)
    ref_x, ref_w = 0.5 * (x + 1.0), 0.5 * w
    edges = np.linspace(lo, hi, 2 ** (level - 1) + 1)
    widths = np.diff(edges)
    return ((edges[:-1, None] + widths[:, None] * ref_x[None, :]).ravel(),
            (widths[:, None] * ref_w[None, :]).ravel())


def _periodic_axis(lo, hi, level, p):
    count = p * 2 ** (level - 1)
    return lo + (hi - lo) * np.arange(count) / count, np.full(count, (hi - lo) / count)


def _band_limited_axis(lo, hi, level, p):
    shift = 0.0 if level % 2 else 0.5
    return lo + (hi - lo) * (np.arange(p) + shift) / p, np.full(p, (hi - lo) / p)


def _invariant_axis(lo, hi, level, p):
    return np.array([lo]), np.array([hi - lo])


# the reference's own implementation of every axis rule, by name
_REFERENCE_AXES = {"gauss": _gauss_axis, "periodic": _periodic_axis,
                   "band-limited": _band_limited_axis, "invariant": _invariant_axis}


def _per_level_integrate(density, dom, q):
    """Frozen reference: every level built and integrated on its own, one
    density call per at most 8,192 nodes of that level, and one math.fsum
    per level of its weighted values' real parts and one of their
    imaginary parts."""
    counts = q.points_per_axis
    points = counts if isinstance(counts, tuple) else (counts,) * len(dom.box)
    rules = dom.rules or ("gauss",) * len(dom.box)

    def evaluate_level(level):
        per_axis = [_REFERENCE_AXES[rule](lo, hi, level, p)
                    for (lo, hi), p, rule in zip(dom.box, points, rules)]
        mesh = np.meshgrid(*[n for n, _ in per_axis], indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        weights = np.ones(pts.shape[0])
        for w in np.meshgrid(*[w for _, w in per_axis], indexing="ij"):
            weights = weights * w.ravel()
        chart_pts = dom.to_chart(pts)
        if dom.measure_map is not None:
            weights = weights * np.asarray(dom.measure_map(pts), dtype=float)
        contrib = np.concatenate([weights[start:start + 8192]
                                  * np.asarray(density(chart_pts[start:start + 8192]))
                                  for start in range(0, len(weights), 8192)])
        return complex(math.fsum(np.real(contrib).tolist()),
                       math.fsum(np.imag(contrib).tolist()))

    levels = [evaluate_level(level) for level in range(1, q.refinement_levels + 1)]
    error = abs(levels[-1] - levels[-2]) if len(levels) >= 2 else math.inf
    return levels[-1], error


def _bits(res):
    value, error = res
    value = complex(value)
    return value.real.hex(), value.imag.hex(), float(error).hex()


def _hopf_wave(z):
    # complex-valued, with a chart map, a measure map and the invariant,
    # gauss and band-limited rules
    return np.exp(1j * z[..., 0].real) * _abs2(z).sum(-1) ** -2 + z[..., 1].imag


@pytest.mark.parametrize("case", ["multi-block", "complex", "rows"])
def test_integrate_matches_the_per_level_reference_bit_for_bit(case, hopf, cp1):
    # levels of 3,072, 6,144 and 12,288 nodes: the finest spans two density
    # calls and is still one exactly rounded sum
    multi_block = (hopf.manifold.fundamental_domain["punctured"],
                   QuadratureSpec((2, 12, 16, 16), 3))
    if case == "rows":
        # one complex and one real row in one call: each row's result is its
        # own one-row call's and the per-level reference's, bit for bit
        rows = (_hopf_wave, lambda z: _abs2(z).sum(-1) ** -2)
        dom, q = multi_block
        results = integrate(lambda z: np.stack([row(z) for row in rows]), dom, q)
        assert ([_bits(res) for res in results]
                == [_bits(integrate(row, dom, q)) for row in rows]
                == [_bits(_per_level_integrate(row, dom, q)) for row in rows])
        return
    if case == "multi-block":
        density, (dom, q) = _hopf_wave, multi_block
    else:
        density, dom, q = (lambda z: (1.0 + 2.0j * z[..., 0]) / (1.0 + _abs2(z[..., 0])) ** 2,
                           cp1.manifold.fundamental_domain["affine"], QuadratureSpec(64, 3))
    expected = _per_level_integrate(density, dom, q)
    assert _bits(integrate(density, dom, q)) == _bits(expected)


def test_results_do_not_depend_on_the_density_call_size(hopf, monkeypatch):
    # 97 nodes per density call cut every level of this grid into many
    # calls; a complex integrand with cancellation and a route's row keep
    # the bits of their value and bar
    dom = hopf.manifold.fundamental_domain["punctured"]
    q = QuadratureSpec((2, 12, 16, 16), 3)
    jobs = (lambda: integrate(_hopf_wave, dom, q),
            lambda: invariant_alternative(hopf.manifold, hopf.volumes["r4-bump"],
                                          hopf.fields["x1"], q=q))
    quadrature._node_set.cache_clear()
    expected = [_bits(job()) for job in jobs]
    monkeypatch.setattr(quadrature, "_CELL_NODES", 97)
    quadrature._node_set.cache_clear()
    try:
        assert [_bits(job()) for job in jobs] == expected
    finally:
        quadrature._node_set.cache_clear()


def test_every_rule_has_an_independent_reference():
    # a rule cannot land in quadrature without its own implementation in
    # the per-level reference
    assert set(_REFERENCE_AXES) == set(quadrature.RULES)


@pytest.mark.parametrize("rule", quadrature.RULES)
def test_every_rule_matches_the_per_level_reference_bit_for_bit(rule):
    # the rule on the second axis of a small complex-valued integrand, over
    # four levels so that a band-limited axis is met at both offsets twice
    dom = IntegrationDomain(box=((0.0, 1.0), (0.5, 2.0)), rules=("gauss", rule))

    def density(z):
        return np.exp(1j * z[..., 0].imag) * (1.0 + z[..., 0].real) ** -2

    q = QuadratureSpec((3, 5), 4)
    assert _bits(integrate(density, dom, q)) == _bits(_per_level_integrate(density, dom, q))


def test_band_limited_axis_is_staggered_between_levels():
    # level 1 at lo + (hi - lo) j / p, level 2 half a spacing above, level 3
    # back at level 1's nodes; every level keeps p nodes weighted (hi - lo)/p
    lo, hi, p = 0.5, 2.0, 5
    dom = IntegrationDomain(box=((lo, hi),), chart_map=lambda pts: pts + 0j,
                            rules=("band-limited",))
    nodes = quadrature._node_set(dom, QuadratureSpec(p, 3))
    assert nodes.starts == (0, p, 2 * p, 3 * p)
    levels = [nodes.chart_pts[a:b, 0].real for a, b in zip(nodes.starts, nodes.starts[1:])]
    j = np.arange(p)
    np.testing.assert_allclose(levels[0], lo + (hi - lo) * j / p, rtol=0, atol=1e-15)
    np.testing.assert_allclose(levels[1], lo + (hi - lo) * (j + 0.5) / p, rtol=0, atol=1e-15)
    assert levels[2].tolist() == levels[0].tolist()
    np.testing.assert_allclose(nodes.weights, (hi - lo) / p, rtol=1e-15)


def test_ill_posed_level_one_is_named():
    # non-finite on the 8 x 8 Gauss-Legendre nodes of level 1, which no node
    # of level 2 meets, and on level 2's first node column (16 of 256); both
    # levels are ill-posed, and level 1 is checked first
    x, _ = np.polynomial.legendre.leggauss(8)
    level_one = 0.5 * (x + 1.0)

    def level_one_nan(z):
        out = np.ones(z.shape[:-1])
        out[np.isin(z[..., 0].real, level_one) | (z[..., 0].real < 0.015)] = np.nan
        return out

    with pytest.raises(IllPosedIntegrandError, match="64 of 64 samples non-finite at level 1"):
        integrate(level_one_nan, UNIT_BOX, QuadratureSpec(8, 2))


def test_every_row_gets_the_finiteness_check():
    # the first row is finite; the second is non-finite on level 2 only
    def rows(z):
        second = np.where(z[..., 0].real < 0.15, np.inf, 1.0)
        return np.stack([np.ones(z.shape[:-1]), second])

    with pytest.raises(IllPosedIntegrandError, match="4 of 16 samples non-finite at level 2"):
        integrate(rows, UNIT_BOX, QuadratureSpec(2, 2))


def test_cached_nodes_are_read_only_and_stay_intact():
    q = QuadratureSpec(7, 2)

    def writer(z):
        z[...] = 0.0
        return np.ones(z.shape[:-1])

    def density(z):
        return np.cos(z[..., 0].real) * z[..., 0].imag

    with pytest.raises(ValueError, match="read-only"):
        integrate(writer, UNIT_BOX, q)
    assert _bits(integrate(density, UNIT_BOX, q)) == _bits(
        _per_level_integrate(density, UNIT_BOX, q))


def test_density_of_the_wrong_shape_is_refused():
    with pytest.raises(ValueError, match=r"shape \(16, 1\) for 16 nodes"):
        integrate(lambda z: np.ones(z.shape), UNIT_BOX, QuadratureSpec(4, 1))
