"""Exact residue arithmetic: ring laws, contributions, wire format."""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from holoinv import localization
from holoinv import (
    CohomologyClass,
    FixedPointData,
    HoloinvError,
    NonInvertibleClassError,
    NonsingularityError,
    ZeroComponent,
    class_inverse,
    class_mul,
    class_pow,
    component_contribution,
    component_contribution_parts,
    fixed_point_data_from_dict,
    fixed_point_data_to_dict,
    load_fixed_point_data,
    localization_sum,
    rescale_field,
    unnormalized_invariant,
)


def cls(*coeffs):
    return CohomologyClass(tuple(Fraction(c) for c in coeffs))


# --- truncated ring --------------------------------------------------------


def test_mul_truncates_top_degree():
    assert class_mul(cls(1, -1), cls(1, 1)) == cls(1, 0)


def test_cube_of_one_minus_t():
    # (1 - t)^3 = 1 - 3t in the degree-1 ring
    assert class_pow(cls(1, -1), 3) == cls(1, -3)


def test_mul_by_constant():
    assert class_mul(cls(1, 2), cls(3, 0)) == cls(3, 6)


def test_inverse_of_one_minus_t():
    assert class_inverse(cls(1, -1)) == cls(1, 1)


def test_inverse_of_one():
    assert class_inverse(cls(1, 0)) == cls(1, 0)


def test_inverse_verified_by_multiplication():
    a = cls(2, 4)
    inv = class_inverse(a)
    assert class_mul(a, inv) == cls(1, 0)
    assert inv == cls(Fraction(1, 2), -1)


def test_inverse_requires_unit_constant_term():
    with pytest.raises(NonInvertibleClassError):
        class_inverse(cls(0, 1))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        class_mul(cls(1, 0), cls(1, 0, 0))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def classes(dim=None):
    dims = st.just(dim) if dim is not None else st.integers(0, 4)
    return dims.flatmap(lambda d: st.lists(
        rationals, min_size=d + 1, max_size=d + 1).map(
            lambda c: CohomologyClass(tuple(c))))


@given(st.integers(0, 3).flatmap(lambda d: st.tuples(classes(d), classes(d))))
def test_mul_commutative(pair):
    a, b = pair
    assert class_mul(a, b) == class_mul(b, a)


@given(st.integers(0, 3).flatmap(lambda d: st.tuples(classes(d), classes(d), classes(d))))
def test_mul_associative(triple):
    a, b, c = triple
    assert class_mul(class_mul(a, b), c) == class_mul(a, class_mul(b, c))


@given(classes())
def test_inverse_round_trip(a):
    if a.coeffs[0] == 0:
        return
    one = CohomologyClass.constant(1, a.dim)
    assert class_mul(a, class_inverse(a)) == one
    assert class_inverse(class_inverse(a)) == a


# --- component contributions -----------------------------------------------


def test_isolated_zero_with_traceless_linearization_does_not_contribute():
    comp = ZeroComponent("isolated", 0, Fraction(0), (Fraction(1), Fraction(-1)))
    assert component_contribution(comp, 2) == 0


def test_curve_component_value_minus_two():
    comp = ZeroComponent("curve", 1, Fraction(1), (Fraction(1),),
                         Fraction(0), (Fraction(-1),))
    numerator, inverted, value = component_contribution_parts(comp, 2)
    assert numerator == cls(1, -3)
    assert inverted == cls(1, 1)
    assert value == -2


def test_simple_point_residue():
    # hand residue for the linear field on the line fixing the origin
    comp = ZeroComponent("origin", 0, Fraction(1), (Fraction(1),))
    assert component_contribution(comp, 1) == 1


def test_zero_numerator_guard():
    comp = ZeroComponent("guard", 0, Fraction(0), (Fraction(1), Fraction(1)))
    assert component_contribution(comp, 2) == 0


def test_ambient_dimension_guard():
    comp = ZeroComponent("curve", 1, Fraction(1), ())
    with pytest.raises(ValueError):
        component_contribution(comp, 0)


def _linear_class(c0, c1, dim):
    """c0 + c1 t in the ring truncated above t^dim."""
    coeffs = (Fraction(c0), Fraction(c1), *[Fraction(0)] * (dim - 1))
    return CohomologyClass(coeffs[:dim + 1])


def _ring_reference_parts(comp, n):
    """The contribution expanded with the general truncated-ring helpers."""
    chern = comp.c1_tangent_deg + sum(comp.normal_line_degrees, Fraction(0))
    numerator = class_pow(_linear_class(comp.trace_L, chern, comp.dim), n + 1)
    denominator = CohomologyClass.constant(1, comp.dim)
    for w, g in zip(comp.normal_weights, comp.normal_line_degrees):
        denominator = class_mul(denominator, _linear_class(w, g, comp.dim))
    inverted = class_inverse(denominator)
    return numerator, inverted, class_mul(numerator, inverted).coeffs[comp.dim]


def _ring_helper_called(*args):
    raise AssertionError("the closed form must not call the truncated-ring helpers")


NONZERO = rationals.filter(bool)


@st.composite
def ambient_and_component(draw):
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(0, 1))
    weights = draw(st.lists(NONZERO, min_size=n - dim, max_size=n - dim))
    if dim == 0:
        return n, ZeroComponent("p", 0, draw(rationals), tuple(weights))
    degrees = draw(st.lists(rationals, min_size=n - 1, max_size=n - 1))
    return n, ZeroComponent("curve", 1, draw(rationals), tuple(weights),
                            draw(rationals), tuple(degrees))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=ambient_and_component())
@example(case=(3, ZeroComponent("p", 0, 0, (-2, 3, Fraction(-1, 5)))))
@example(case=(4, ZeroComponent("curve", 1, 0, (-3, Fraction(1, 2), -1), -2, (1, 0, -4))))
@example(case=(1, ZeroComponent("curve", 1, Fraction(-3, 2), (), 2)))
def test_closed_form_contribution_matches_the_ring_reference(case):
    n, comp = case
    expected = _ring_reference_parts(comp, n)
    with pytest.MonkeyPatch.context() as patch:
        for helper in ("class_mul", "class_pow", "class_inverse"):
            patch.setattr(localization, helper, _ring_helper_called)
        parts = component_contribution_parts(comp, n)
    assert parts == expected
    numerator, inverted, value = parts
    assert all(type(x) is Fraction for x in (*numerator.coeffs, *inverted.coeffs, value))


BIG = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))
BIG_NONZERO = BIG.filter(bool)


@st.composite
def large_fixed_point_data(draw):
    n = draw(st.integers(1, 6))
    components = []
    for k in range(draw(st.integers(1, 4))):
        dim = draw(st.integers(0, 1))
        weights = tuple(draw(st.lists(BIG_NONZERO, min_size=n - dim, max_size=n - dim)))
        if dim == 0:
            components.append(ZeroComponent(f"p{k}", 0, draw(BIG), weights))
        else:
            degrees = draw(st.lists(BIG, min_size=n - 1, max_size=n - 1))
            components.append(ZeroComponent(f"c{k}", 1, draw(BIG), weights, draw(BIG),
                                            tuple(degrees)))
    return FixedPointData("large", n, tuple(components))


def _lowest_terms(x):
    return type(x) is Fraction and x.denominator > 0 and math.gcd(x.numerator,
                                                                  x.denominator) == 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=large_fixed_point_data(), factor=BIG_NONZERO)
def test_integer_pair_kernel_matches_the_ring_reference_on_large_entries(data, factor):
    n = data.manifold_dim
    values = []
    for comp in data.components:
        value = component_contribution(comp, n)
        assert value == _ring_reference_parts(comp, n)[2]
        assert _lowest_terms(value)
        # the budget's estimate bounds the integers it is checked against
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        assert bits <= localization._residue_bits(comp, n)
        values.append(value)
    total = localization_sum(data)
    assert total == sum(values, Fraction(0))
    assert _lowest_terms(total)
    assert localization_sum(rescale_field(data, factor)) == factor * total


def test_unnormalized_invariant_sums_through_the_module_once(hopf_blowup, monkeypatch):
    # the benchmark counts residue components at localization.localization_sum,
    # so f(X) must reach the sum through that attribute, once
    calls = []
    exact_sum = localization.localization_sum

    def counted(data):
        calls.append(data.label)
        return exact_sum(data)

    monkeypatch.setattr(localization, "localization_sum", counted)
    data = hopf_blowup.fixed_points["x1"]
    unnormalized_invariant(data)
    assert calls == [data.label]


# --- result size budget ----------------------------------------------------


def _power_payload(n):
    return {"label": "power", "manifold_dim": n, "components": [
        {"name": "p", "dim": 0, "trace_L": "3e10000", "normal_weights": ["7e-10000"] * n}]}


@pytest.mark.parametrize("n", [200, 800])
def test_bit_budget_refuses_large_powers_from_the_entries(n):
    # (3e10000)^(n+1) alone has millions of digits; the estimate needs no power
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"budget of {localization.MAX_RESIDUE_BITS}"):
        fixed_point_data_from_dict(_power_payload(n))
    assert time.perf_counter() - start < 1.0


def test_bit_budget_covers_rescaling():
    data = FixedPointData("unit", 3, (ZeroComponent("p", 0, 1, (1, 1, 1)),))
    assert localization_sum(rescale_field(data, Fraction(10**1000))) == 10**1000
    with pytest.raises(ValueError, match="budget"):
        rescale_field(data, Fraction(10**10000))


def test_bit_budget_accepts_entries_at_the_decimal_exponent_bound():
    # a point and a curve with 10,000-digit entries in the plane, as in the
    # large-exponent timing payloads, stay within the budget
    k = localization.MAX_DECIMAL_EXPONENT
    data = fixed_point_data_from_dict({"label": "large exponents", "manifold_dim": 2,
                                       "components": [
        {"name": "p", "dim": 0, "trace_L": f"1e-{k}",
         "normal_weights": [f"3e-{k - 1}", f"-2e{k}"]},
        {"name": "c", "dim": 1, "trace_L": f"1.5e{k}", "normal_weights": [f"5e-{k}"],
         "c1_tangent_deg": 2, "normal_line_degrees": [f"1e-{k}"]}]})
    assert max(localization._residue_bits(c, 2) for c in data.components) > (
        localization.MAX_RESIDUE_BITS * 3 // 4)
    expected = sum((_ring_reference_parts(c, 2)[2] for c in data.components), Fraction(0))
    assert localization_sum(data) == expected


def _unrelated_points(count):
    # n = 1 point components whose trace and weight are p/q with unrelated
    # 4,300-digit p and q, the most digits an int string may have: each is
    # far inside the per-component budget
    rng = random.Random(7)

    def entry():
        return f"{rng.randrange(10**4299, 10**4300)}/{rng.randrange(10**4299, 10**4300)}"

    return {"label": "unrelated", "manifold_dim": 1, "components": [
        {"name": f"p{k}", "dim": 0, "trace_L": entry(), "normal_weights": [entry()]}
        for k in range(count)]}


def test_bit_budget_bounds_the_sum_of_the_components():
    # their denominators multiply into the running sum's, so ten of them
    # would ask for a sum of over a million bits
    payload = _unrelated_points(10)
    one = fixed_point_data_from_dict({**payload, "components": payload["components"][:1]})
    assert localization._residue_bits(one.components[0], 1) < localization.MAX_RESIDUE_BITS // 2
    with pytest.raises(ValueError, match=f"budget of {localization.MAX_RESIDUE_SUM_BITS}"):
        fixed_point_data_from_dict(payload)
    # the sum's estimate adds the bit length of the count to the components'
    data = fixed_point_data_from_dict({**payload, "components": payload["components"][:4]})
    estimate = sum(localization._residue_bits(c, 1) for c in data.components) + 3
    assert estimate <= localization.MAX_RESIDUE_SUM_BITS
    total = localization_sum(data)
    assert max(total.numerator.bit_length(), total.denominator.bit_length()) <= estimate


# --- toric vertex residues -------------------------------------------------

# Smooth reflexive polygons, vertices in cyclic order. At a vertex v the
# torus fixed point has weights <xi, e> over the primitive edge vectors e
# from v to its two neighbours, and trace their sum.
POLYGONS = {
    "cp2": ((-1, -1), (2, -1), (-1, 2)),
    "cp1xcp1": ((-1, -1), (1, -1), (1, 1), (-1, 1)),
    "f1": ((-1, -1), (2, -1), (0, 1), (-1, 1)),
    "dp7": ((-1, -1), (1, -1), (1, 0), (0, 1), (-1, 1)),
    "dp6": ((-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)),
}
XIS = ((2, 3), (-5, 7), (3, -1), (1, 4))
VERTEX_RESIDUES = {
    "cp2": (0, 0, 0, 0),
    "cp1xcp1": (0, 0, 0, 0),
    "f1": (8, 38, -10, 14),
    "dp7": (10, 4, 4, 10),
    "dp6": (0, 0, 0, 0),
}


def _vertex_fixed_point_data(polygon, xi):
    components = []
    for k, vertex in enumerate(polygon):
        weights = []
        for neighbour in (polygon[k - 1], polygon[(k + 1) % len(polygon)]):
            edge = (neighbour[0] - vertex[0], neighbour[1] - vertex[1])
            g = math.gcd(*edge)
            weights.append(Fraction(xi[0] * edge[0] + xi[1] * edge[1], g))
        components.append(ZeroComponent(f"vertex {vertex}", 0, sum(weights), tuple(weights)))
    return FixedPointData(f"polygon, xi = {xi}", 2, tuple(components))


@pytest.mark.parametrize("name, xi, expected", [
    (name, xi, value) for name, values in VERTEX_RESIDUES.items()
    for xi, value in zip(XIS, values)])
def test_toric_vertex_residues(name, xi, expected):
    assert localization_sum(_vertex_fixed_point_data(POLYGONS[name], xi)) == expected


# --- fixed point data ------------------------------------------------------


def test_blowup_dataset_headline(hopf_blowup):
    assert localization_sum(hopf_blowup.fixed_points["x1"]) == -2


def test_unnormalized_value(hopf_blowup):
    expected = -2.0 * (2.0 * math.pi) ** 2 / 3.0
    assert unnormalized_invariant(hopf_blowup.fixed_points["x1"]) == pytest.approx(
        expected, abs=1e-12)


@pytest.mark.parametrize("dim, trace", [(2, 10**200), (2, "1e400"), (400, 1), (1, 10**154)],
                         ids=["sum-1e600", "trace-string-1e400", "dim-400", "product-pi-1e308"])
def test_unnormalized_value_beyond_float_range_raises(dim, trace):
    # the exact sum stays available; only its float image f(X) overflows
    data = fixed_point_data_from_dict({"label": "huge", "manifold_dim": dim, "components": [
        {"name": "p", "dim": 0, "trace_L": trace, "normal_weights": [1] * dim}]})
    assert localization_sum(data) == Fraction(trace) ** (dim + 1)
    with pytest.raises(ValueError, match="exact residue sum"):
        unnormalized_invariant(data)


def test_unnormalized_zero_sum_is_zero_beyond_float_range():
    # (2pi)^400 overflows a float, but f(X) = 0 is exact
    data = fixed_point_data_from_dict({"label": "zero", "manifold_dim": 400, "components": [
        {"name": "p", "dim": 0, "trace_L": 0, "normal_weights": [1] * 400}]})
    assert unnormalized_invariant(data) == 0.0


def test_projective_line_dataset_cancels(cp1):
    assert localization_sum(cp1.fixed_points["z-ddz"]) == 0


def test_unblown_plane_dataset_cancels():
    # the plane carries a canonical metric of constant curvature, so the
    # residues of any of its global fields must cancel: line contributes 8,
    # the remaining isolated point -8
    line = ZeroComponent("line", 1, Fraction(1), (Fraction(1),),
                         Fraction(2), (Fraction(1),))
    point = ZeroComponent("point", 0, Fraction(-2), (Fraction(-1), Fraction(-1)))
    data = FixedPointData("plane, linear field", 2, (line, point))
    assert component_contribution(line, 2) == 8
    assert component_contribution(point, 2) == -8
    assert localization_sum(data) == 0


def test_residue_sum_is_linear_in_the_field(hopf_blowup, cp1):
    # scaling the field scales traces and normal weights; the residue sum
    # is degree-one homogeneous (numerator degree n+1 minus n-d from the
    # denominator minus d from the pairing)
    for data in (hopf_blowup.fixed_points["x1"], cp1.fixed_points["z-ddz"]):
        base = localization_sum(data)
        for c in (Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-5, 7)):
            assert localization_sum(rescale_field(data, c)) == c * base


def test_rescale_rejects_zero():
    comp = ZeroComponent("p", 0, Fraction(1), (Fraction(1),))
    data = FixedPointData("d", 1, (comp,))
    with pytest.raises(ValueError):
        rescale_field(data, 0)


# --- validation ------------------------------------------------------------


def test_zero_weight_rejected_with_nonsingularity_message():
    with pytest.raises(NonsingularityError, match="nonsingular"):
        ZeroComponent("bad", 0, Fraction(1), (Fraction(0),))


def test_high_dimensional_component_rejected():
    with pytest.raises(ValueError, match="dimension"):
        ZeroComponent("surface", 2, Fraction(1), (Fraction(1),))


def test_weight_count_must_match_codimension():
    comp = ZeroComponent("p", 0, Fraction(1), (Fraction(1),))
    with pytest.raises(ValueError, match="normal weights"):
        FixedPointData("d", 2, (comp,))


def test_point_component_rejects_curvature_data():
    with pytest.raises(ValueError):
        ZeroComponent("p", 0, Fraction(1), (Fraction(1),), Fraction(1))
    with pytest.raises(ValueError):
        ZeroComponent("p", 0, Fraction(1), (Fraction(1),),
                      Fraction(0), (Fraction(2),))


def test_empty_components_rejected():
    with pytest.raises(ValueError):
        FixedPointData("d", 2, ())


# --- wire format -----------------------------------------------------------


def test_json_round_trip(hopf_blowup):
    payload = fixed_point_data_to_dict(hopf_blowup.fixed_points["x1"])
    text = json.dumps(payload)
    back = fixed_point_data_from_dict(json.loads(text))
    assert back == hopf_blowup.fixed_points["x1"]
    assert localization_sum(back) == -2


def test_json_parses_fraction_strings_and_integers():
    data = fixed_point_data_from_dict({
        "label": "mixed",
        "manifold_dim": 1,
        "components": [{"name": "p", "dim": 0, "trace_L": "1/2",
                        "normal_weights": [2]}],
    })
    assert data.components[0].trace_L == Fraction(1, 2)
    assert localization_sum(data) == Fraction(1, 8)


def test_json_rejects_floats():
    with pytest.raises(ValueError, match="rationals"):
        fixed_point_data_from_dict({
            "label": "bad", "manifold_dim": 1,
            "components": [{"name": "p", "dim": 0, "trace_L": 0.5,
                            "normal_weights": [1]}],
        })


def test_json_zero_weight_message(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "label": "bad", "manifold_dim": 1,
        "components": [{"name": "p", "dim": 0, "trace_L": 1,
                        "normal_weights": ["0/3"]}],
    }))
    with pytest.raises(NonsingularityError, match="nonsingular"):
        load_fixed_point_data(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
RATIONAL = st.integers(-2, 2) | st.sampled_from(["1/2", "-3/2", "0/5", "1/0", "x"])


def _or_junk(valid):
    return valid | JSON_VALUES


COMPONENT_JSON = st.fixed_dictionaries({}, optional={
    "name": _or_junk(st.text(max_size=3)),
    "dim": _or_junk(st.integers(-1, 2)),
    "trace_L": _or_junk(RATIONAL),
    "normal_weights": _or_junk(st.lists(RATIONAL, max_size=3)),
    "c1_tangent_deg": _or_junk(RATIONAL),
    "normal_line_degrees": _or_junk(st.lists(RATIONAL, max_size=3)),
})
PAYLOAD_JSON = _or_junk(st.fixed_dictionaries({}, optional={
    "label": _or_junk(st.text(max_size=4)),
    "manifold_dim": _or_junk(st.integers(0, 3)),
    "components": _or_junk(st.lists(_or_junk(COMPONENT_JSON), max_size=3)),
}))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(payload=PAYLOAD_JSON)
def test_json_parse_raises_only_typed_errors(payload):
    # any JSON value, malformed at any depth, is either parsed into data whose
    # residue sum evaluates, or rejected with ValueError / HoloinvError
    try:
        data = fixed_point_data_from_dict(payload)
    except (ValueError, HoloinvError):
        return
    localization_sum(data)


def test_load_from_file(tmp_path, hopf_blowup):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(fixed_point_data_to_dict(hopf_blowup.fixed_points["x1"])))
    assert localization_sum(load_fixed_point_data(path)) == -2
