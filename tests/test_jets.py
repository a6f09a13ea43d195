"""Wirtinger jets against closed forms, stencils and the plain evaluators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoinv import DifferentiationQualityError, registry_get
from holoinv import calculus, jets
from holoinv.invariant import alternative_density
from references import closed_form_ricci


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def _hopf_points(rng, m):
    return rng.uniform(0.8, 1.4, (m, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (m, 2)))


def _plane_points(rng, m, n):
    return rng.uniform(-2, 2, (m, n)) + 1j * rng.uniform(-2, 2, (m, n))


def jet_ricci(log_density, pts):
    """R = -(mixed second derivatives of one order-2 jet), shape (m, n, n)."""
    dd = jets.evaluate(log_density, pts, 2).dd
    return -np.stack([np.stack([calculus._batch(h, pts.shape[:-1]) for h in row], axis=-1)
                      for row in dd], axis=-2)


def _relative_gap(a, b):
    """Per-point max-entry gap of two matrix batches, relative to b's largest entry."""
    return np.max(np.abs(a - b), axis=(-2, -1)) / np.max(np.abs(b), axis=(-2, -1))


@pytest.mark.parametrize("example, volume, chart", [
    ("cp1", "fs", "affine"), ("cp1", "fs", "affine-inf"),
    ("cp1", "fs-bump", "affine"), ("cp1", "fs-bump", "affine-inf"),
    ("hopf", "r4", "punctured")])
def test_jet_ricci_matches_the_closed_form(example, volume, chart):
    # the stencil's floor is about 4e-10 relative; the jet has none
    bundle = registry_get(example)
    vol = bundle.volumes[volume]
    rng = np.random.default_rng(21)
    pts = (_hopf_points(rng, 400) if example == "hopf"
           else _plane_points(rng, 400, 1))
    exact = closed_form_ricci(bundle, volume, chart)
    gap = _relative_gap(jet_ricci(vol.log_density[chart], pts), exact(pts))
    assert np.max(gap) <= 1e-13


def _log_one_plus_norm(coords):
    return np.log1p(sum(_abs2(coords[..., k]) for k in range(coords.shape[-1])))


def test_jet_top_density_at_n3_matches_the_closed_form():
    # log(1 + |z|^2) on C^3: H_ij = (S delta_ij - zbar_i z_j) / S^2, S = 1 + |z|^2,
    # and 3! det(-H) = -6 / S^4, through the cofactor determinant
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1, 1, (200, 3)) + 1j * rng.uniform(-1, 1, (200, 3))
    s = 1.0 + _abs2(pts).sum(axis=-1)
    closed = ((s[:, None, None] * np.eye(3) - np.conj(pts)[:, :, None] * pts[:, None, :])
              / (s ** 2)[:, None, None])
    assert np.max(_relative_gap(jet_ricci(_log_one_plus_norm, pts), -closed)) <= 1e-13
    top = calculus.ricci_top_field(_log_one_plus_norm, pts)
    assert np.max(np.abs(top * s ** 4 + 6.0)) <= 1e-13 * 6.0


def test_alternative_density_at_n3_matches_a_stencil_of_its_jet_ratio():
    # the nested jet's X(n! det R / a) a against the order-4 stencil
    # gradient, contracted with X, of the ratio that order-2 jets give, on
    # log(1 + |z|^2) over C^3
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1, 1, (200, 3)) + 1j * rng.uniform(-1, 1, (200, 3))

    def field(coords):
        return coords * np.array([1.0, -2.0j, 0.5]) + np.array([0.3, 0.0, -1.0j])

    def ratio(coords):
        return calculus.ricci_top_field(_log_one_plus_norm, coords) * np.exp(
            -_log_one_plus_norm(coords))

    along = np.sum(calculus.holomorphic_derivative(ratio, pts) * field(pts), axis=-1)
    stencil = -along * np.exp(_log_one_plus_norm(pts))
    nested = alternative_density(_log_one_plus_norm, field)(pts)
    assert np.max(np.abs(nested - stencil)) <= 1e-8


def test_nested_jets_read_through_to_the_coordinates():
    # shape, ndim and dtype of the order-2 jet over an order-1 jet are the
    # coordinates', also through np.shape and np.ndim, so plain constants
    # built from them keep their form
    pts = _hopf_points(np.random.default_rng(5), 7)
    nested = jets.variables(jets.along(pts, [np.conj(pts)]), 2)
    assert isinstance(nested.value, jets.Jet)
    assert nested.shape == np.shape(nested) == pts.shape
    assert nested.ndim == np.ndim(nested) == 2
    assert nested.dtype == pts.dtype
    flat = jets.evaluate(lambda c: np.zeros(c.shape[:-1]), jets.along(pts, [pts]), 2)
    assert type(flat.value) is np.ndarray and flat.value.shape == (7,)
    assert all(h is None for row in flat.dd for h in row)


def _log_densities():
    for example in ("cp1", "hopf"):
        bundle = registry_get(example)
        for name, vol in bundle.volumes.items():
            for chart, fn in vol.log_density.items():
                yield f"{example}:{name}:{chart}", example, fn


def _fields():
    for example in ("cp1", "hopf"):
        bundle = registry_get(example)
        for name, fld in bundle.fields.items():
            for chart, fn in fld.components.items():
                yield f"{example}:{name}:{chart}", example, fn


def _points_for(example):
    rng = np.random.default_rng(31)
    return _hopf_points(rng, 64) if example == "hopf" else _plane_points(rng, 64, 1)


@pytest.mark.parametrize("label, example, fn", list(_log_densities()),
                         ids=[label for label, *_ in _log_densities()])
def test_jet_gradient_matches_the_stencil(label, example, fn):
    # d and dbar of a real log-density, at both orders, against the stencil
    # gradient and its conjugate
    pts = _points_for(example)
    stencil = calculus.holomorphic_derivative(fn, pts)
    for order in (1, 2):
        jet = jets.evaluate(fn, pts, order)
        for j in range(pts.shape[-1]):
            d = calculus._batch(jet.d[j], pts.shape[:-1])
            dbar = calculus._batch(jet.dbar[j], pts.shape[:-1])
            assert np.max(np.abs(d - stencil[:, j])) <= 1e-8, (label, order, j)
            assert np.max(np.abs(dbar - np.conj(stencil[:, j]))) <= 1e-8, (label, order, j)


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("label, example, fn", list(_log_densities()),
                         ids=[label for label, *_ in _log_densities()])
def test_along_several_directions_is_each_direction_bit_for_bit(label, example, fn):
    # the order-2 jet over along(coords, [u, v, w]): at every outer part, the
    # inner value and the inner parts r are those of the jet along the r-th
    # direction alone, bit for bit, so a route may share one nested jet
    # between the rows of several fields without moving any row
    pts = _points_for(example)
    rng = np.random.default_rng(37)
    directions = [_plane_points(rng, len(pts), pts.shape[-1]) for _ in range(3)]
    several = jets.evaluate(fn, jets.along(pts, directions), 2)
    for r, v in enumerate(directions):
        one = jets.evaluate(fn, jets.along(pts, [v]), 2)
        pairs = [(several.value, one.value), *zip(several.d, one.d),
                 *zip(several.dbar, one.dbar),
                 *((a, b) for ra, rb in zip(several.dd, one.dd) for a, b in zip(ra, rb))]
        for k, (a, b) in enumerate(pairs):
            assert isinstance(a, jets.Jet) == isinstance(b, jets.Jet), (label, r, k)
            if not isinstance(a, jets.Jet):
                assert _same_bits(a, b), (label, r, k)
                continue
            assert len(a.d) == len(a.dbar) == 3 and len(b.d) == 1, (label, r, k)
            assert _same_bits(a.value, b.value), (label, r, k)
            assert _same_bits(a.d[r], b.d[0]), (label, r, k)
            assert _same_bits(a.dbar[r], b.dbar[0]), (label, r, k)


@pytest.mark.parametrize("label, example, fn", list(_fields()),
                         ids=[label for label, *_ in _fields()])
def test_jet_field_jacobian_matches_the_stencil(label, example, fn):
    # a holomorphic field's order-1 jet: its Jacobian d X^k / dz^j against
    # the stencil's, and no dbar at all
    pts = _points_for(example)
    stencil = calculus.holomorphic_derivative(fn, pts)
    jet = jets.evaluate(fn, pts, 1)
    n = pts.shape[-1]
    for k in range(n):
        component = jet[..., k]
        for j in range(n):
            d = calculus._batch(component.d[j], pts.shape[:-1])
            assert np.max(np.abs(d - stencil[:, k, j])) <= 1e-8, (label, k, j)
            assert component.dbar[j] is None, (label, k, j)


def test_plain_array_evaluators_are_constants():
    # np.zeros(shape) and np.zeros_like / np.ones_like on a jet give plain
    # arrays; the calculus layer reads them as constants with zero derivatives
    pts = _hopf_points(np.random.default_rng(4), 5)
    coords = jets.variables(pts, 2)
    for like, fill in ((np.zeros_like, 0.0), (np.ones_like, 1.0)):
        out = like(coords)
        assert type(out) is np.ndarray and out.shape == pts.shape and np.all(out == fill)
        assert out.dtype == pts.dtype
    flat = jets.evaluate(lambda c: np.zeros(c.shape[:-1]), pts, 2)
    assert all(p is None for p in flat.d + flat.dbar)
    assert all(h is None for row in flat.dd for h in row)
    assert np.all(calculus.ricci_top_field(lambda c: np.zeros(c.shape[:-1]), pts) == 0.0)
    div = calculus.divergence_field(np.ones_like, lambda c: np.zeros(c.shape[:-1]), pts)
    assert np.all(div == 0.0)


def test_jet_unsafe_evaluators_fail_loudly():
    # item assignment, np.asarray and unsupported ufuncs would drop the
    # derivatives, and indexing off the last axis is not supported: all raise
    pts = _hopf_points(np.random.default_rng(6), 3)

    def assigned(coords):
        out = np.zeros_like(coords)
        out[..., 0] = coords[..., 0]
        return out

    for fn in (assigned, np.asarray, np.abs, lambda c: np.sin(c[..., 0]), lambda c: c[:, 0]):
        with pytest.raises(TypeError):
            jets.evaluate(fn, pts, 1)
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        jets.variables(pts, 3)


def test_jet_arithmetic_matches_closed_forms():
    # quotient, square root, power and exp rules, with d and the mixed
    # second derivative written out by hand for f = g(|z|^2), t = |z|^2:
    # f_z = g'(t) zbar, f_{z zbar} = g''(t) t + g'(t)
    rng = np.random.default_rng(8)
    pts = _plane_points(rng, 50, 1)
    z = pts[:, 0]
    t = _abs2(z)
    cases = [
        (lambda c: 1.0 / (1.0 + _abs2(c[..., 0])),
         -1.0 / (1 + t) ** 2, 2.0 / (1 + t) ** 3),
        (lambda c: np.sqrt(1.0 + _abs2(c[..., 0])),
         0.5 / np.sqrt(1 + t), -0.25 / (1 + t) ** 1.5),
        (lambda c: (1.0 + _abs2(c[..., 0])) ** 1.5,
         1.5 * np.sqrt(1 + t), 0.75 / np.sqrt(1 + t)),
        (lambda c: np.exp(-_abs2(c[..., 0])), -np.exp(-t), np.exp(-t)),
        (lambda c: -np.log(c[..., 0] * np.conj(c[..., 0])).real, -1.0 / t, 1.0 / t ** 2),
    ]
    for k, (fn, g1, g2) in enumerate(cases):
        jet = jets.evaluate(fn, pts, 2)
        assert np.array_equal(jet.value, fn(pts)), k
        assert np.max(np.abs(jet.d[0] - g1 * np.conj(z)) / np.abs(g1)) <= 1e-14, k
        mixed = calculus._batch(jet.dd[0][0], z.shape)
        # relative to the terms, whose sum vanishes for the harmonic log|z|^2
        scale = np.abs(g2 * t) + np.abs(g1)
        assert np.max(np.abs(mixed - (g2 * t + g1)) / scale) <= 1e-14, k


def _parts(jet):
    """Every array a jet carries, through nested jets; exact zeros (None) skipped."""
    if not isinstance(jet, jets.Jet):
        return [] if jet is None else [np.asarray(jet)]
    rows = () if jet.dd is None else jet.dd
    return [a for part in (jet.value, *jet.d, *jet.dbar, *(h for row in rows for h in row))
            for a in _parts(part)]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("k", [0, 1])
def test_powers_0_and_1_are_exact_at_the_origin(k, order):
    # c ** 0 is the constant 1 and c ** 1 is c: no p v^(p - 1) or
    # p (p - 1) v^(p - 2), which are 0 * inf at v = 0. f = Re zbar for
    # k = 0 and |z|^2 for k = 1, at the origin and one other point
    pts = np.array([[0.0], [0.5 - 1.0j]])
    z = pts[:, 0]
    jet = jets.evaluate(lambda c: (c[..., 0] ** k * np.conj(c[..., 0])).real, pts, order)
    assert np.array_equal(jet.value, (z ** k * np.conj(z)).real)
    d, dbar = [(np.full(2, 0.5), np.full(2, 0.5)), (np.conj(z), z)][k]
    assert np.array_equal(calculus._batch(jet.d[0], z.shape), d)
    assert np.array_equal(calculus._batch(jet.dbar[0], z.shape), dbar)
    if order == 2:
        assert np.array_equal(calculus._batch(jet.dd[0][0], z.shape), np.full(2, float(k)))
    power = jets.evaluate(lambda c: c[..., 0] ** k, pts, order)
    assert np.array_equal(power.value, z ** k)
    assert power.d[0] == (None, 1.0)[k] and power.dbar[0] is None


@pytest.mark.parametrize("k", [0, 1])
def test_powers_0_and_1_on_the_nested_jet_are_finite_at_the_origin(k):
    pts = np.array([[0.0], [0.5 - 1.0j]])
    nested = jets.evaluate(lambda c: (c[..., 0] ** k * np.conj(c[..., 0])).real,
                           jets.variables(pts, 1), 2)
    assert all(np.all(np.isfinite(a)) for a in _parts(nested))
    # the inner d of f_{z zbar} is the third derivative, 0
    mixed = nested.dd[0][0]
    assert np.array_equal(calculus._batch(calculus._value(mixed), (2,)), np.full(2, float(k)))
    assert not isinstance(mixed, jets.Jet) or all(p is None or np.all(p == 0) for p in mixed.d)


def test_holomorphic_products_and_conjugates():
    # z1^2 conj(z2): d/dz1 = 2 z1 conj(z2), d/dzbar2 = z1^2, and its only
    # mixed second derivative is d^2/dz1 dzbar2 = 2 z1; the imaginary part
    # takes half of each with the conjugate's
    rng = np.random.default_rng(9)
    pts = _hopf_points(rng, 20)
    z1, z2 = pts[:, 0], pts[:, 1]
    jet = jets.evaluate(lambda c: c[..., 0] ** 2 * np.conj(c[..., 1]), pts, 2)
    assert np.allclose(jet.d[0], 2 * z1 * np.conj(z2), rtol=1e-15, atol=0)
    assert jet.d[1] is None and jet.dbar[0] is None
    assert np.allclose(jet.dbar[1], z1 ** 2, rtol=1e-15, atol=0)
    assert np.allclose(jet.dd[0][1], 2 * z1, rtol=1e-15, atol=0)
    assert jet.dd[1][0] is None and jet.dd[0][0] is None and jet.dd[1][1] is None
    im = jet.imag
    assert np.allclose(im.d[0], -0.5j * 2 * z1 * np.conj(z2), rtol=1e-15, atol=0)
    assert np.allclose(im.dd[1][0], 0.5j * np.conj(2 * z1), rtol=1e-15, atol=0)


def test_non_real_log_density_trips_the_hermiticity_gate():
    # a jet Hessian is Hermitian to rounding only for a real log-density
    pts = _hopf_points(np.random.default_rng(10), 4)
    with pytest.raises(DifferentiationQualityError, match="log-density is not real-valued"):
        calculus.ricci_top_field(lambda c: c[..., 0] ** 2 * np.conj(c[..., 1]), pts)


def test_jet_top_density_is_the_closed_form_one():
    # the Ricci density from the jet against n! det of the closed form, on
    # hopf r4 (degenerate) and cp1 fs-bump
    rng = np.random.default_rng(12)
    hopf, cp1 = registry_get("hopf"), registry_get("cp1")
    for bundle, volume, chart, pts in ((hopf, "r4", "punctured", _hopf_points(rng, 100)),
                                       (cp1, "fs-bump", "affine", _plane_points(rng, 100, 1))):
        n = pts.shape[-1]
        jet_top = calculus.ricci_top_field(bundle.volumes[volume].log_density[chart], pts)
        exact = closed_form_ricci(bundle, volume, chart)(pts)
        exact_top = math.factorial(n) * np.linalg.det(exact).real
        scale = math.factorial(n) * np.max(np.abs(exact), axis=(-2, -1)) ** n
        assert np.max(np.abs(jet_top - exact_top) / scale) <= 1e-13


# --- the rules, byte for byte ------------------------------------------------
#
# Each rule's parts against its docstring's per-part formula, evaluated with
# plain numpy (or, on nested jets, the order-1 rules) in the documented
# operand order, with None as an exact zero through the three helpers below.


def _sum(p, q):
    return q if p is None else p if q is None else p + q


def _diff(p, q):
    return (None if q is None else -q) if p is None else p if q is None else p - q


def _prod(p, q):
    return None if p is None or q is None else p * q


def _conj(p):
    return None if p is None else np.conj(p)


def _leaf(rng, inner, m=4):
    """A nonzero complex batch, or an order-1 jet over `inner` directions of one."""
    value = rng.normal(size=m) + 1j * rng.normal(size=m)
    if inner is None:
        return value
    parts = [None if rng.random() < 0.3 else rng.normal(size=m) + 1j * rng.normal(size=m)
             for _ in range(2 * inner)]
    return jets.Jet(_leaf(rng, None, m), tuple(parts[:inner]), tuple(parts[inner:]))


def _random_jet(rng, n, order, inner, zeros):
    """A jet of `order` in n variables whose parts are None with probability `zeros`."""
    def part():
        return None if rng.random() < zeros else _leaf(rng, inner)
    d = tuple(part() for _ in range(n))
    dbar = tuple(part() for _ in range(n))
    dd = tuple(tuple(part() for _ in range(n)) for _ in range(n)) if order == 2 else None
    return jets.Jet(_leaf(rng, inner), d, dbar, dd)


def _blob(x):
    """Every byte a part carries, through nested jets, with None marked."""
    if x is None:
        return [None]
    if not isinstance(x, jets.Jet):
        x = np.asarray(x)
        return [(x.dtype.str, x.shape, x.tobytes())]
    rows = () if x.dd is None else x.dd
    return [len(x.d), x.dd is None,
            *(b for part in (x.value, *x.d, *x.dbar, *(h for row in rows for h in row))
              for b in _blob(part))]


def _expected(value, d, dbar, dd):
    return jets.Jet(value, tuple(d), tuple(dbar),
                    None if dd is None else tuple(tuple(row) for row in dd))


def _pairwise_formula(a, b, value, combine):
    # p + q or p - q, part by part
    dd = None
    if a.dd is not None and b.dd is not None:
        dd = [list(map(combine, ra, rb)) for ra, rb in zip(a.dd, b.dd)]
    return _expected(value, map(combine, a.d, b.d), map(combine, a.dbar, b.dbar), dd)


def _product_formula(a, b):
    # (ab)_i = a_i b + a b_i; (ab)_{i jbar} = (a_{i jbar} b + (a_i b_jbar + a_jbar b_i)) + a b_{i jbar}
    av, bv, n = a.value, b.value, len(a.d)
    dd = None
    if a.dd is not None and b.dd is not None:
        dd = [[_sum(_sum(_prod(a.dd[i][j], bv), _sum(_prod(a.d[i], b.dbar[j]),
                                                     _prod(a.dbar[j], b.d[i]))),
                     _prod(av, b.dd[i][j])) for j in range(n)] for i in range(n)]
    return _expected(av * bv, [_sum(_prod(p, bv), _prod(av, q)) for p, q in zip(a.d, b.d)],
                     [_sum(_prod(p, bv), _prod(av, q)) for p, q in zip(a.dbar, b.dbar)], dd)


def _quotient_formula(a, b):
    # q_i = (a_i - q b_i) inv; q_{i jbar} = ((a_{i jbar} - (q_i b_jbar + q_jbar b_i)) - q b_{i jbar}) inv
    q, inv, n = a.value / b.value, 1.0 / b.value, len(a.d)
    d = [_prod(_diff(p, _prod(q, r)), inv) for p, r in zip(a.d, b.d)]
    dbar = [_prod(_diff(p, _prod(q, r)), inv) for p, r in zip(a.dbar, b.dbar)]
    dd = None
    if a.dd is not None and b.dd is not None:
        dd = [[_prod(_diff(_diff(a.dd[i][j], _sum(_prod(d[i], b.dbar[j]),
                                                  _prod(dbar[j], b.d[i]))),
                           _prod(q, b.dd[i][j])), inv) for j in range(n)] for i in range(n)]
    return _expected(q, d, dbar, dd)


def _scaled_formula(u, c, value):
    # every part times the plain c, part first
    dd = None if u.dd is None else [[_prod(h, c) for h in row] for row in u.dd]
    return _expected(value, [_prod(p, c) for p in u.d], [_prod(p, c) for p in u.dbar], dd)


def _composed_formula(u, value, first, second):
    # g' u_i; (g'' u_i) u_jbar + g' u_{i jbar}
    dd = None if u.dd is None else [
        [_sum(_prod(_prod(second, u.d[i]), q), _prod(first, h)) for q, h in zip(u.dbar, row)]
        for i, row in enumerate(u.dd)]
    return _expected(value, [_prod(first, p) for p in u.d], [_prod(first, p) for p in u.dbar],
                     dd)


def _log_formula(u, value, base):
    # inv u_i; inv (u_{i jbar} - (inv u_i) u_jbar), inv = 1 / base
    inv = 1.0 / base
    dd = None if u.dd is None else [
        [_prod(inv, _diff(h, _prod(_prod(inv, u.d[i]), q))) for q, h in zip(u.dbar, row)]
        for i, row in enumerate(u.dd)]
    return _expected(value, [_prod(inv, p) for p in u.d], [_prod(inv, p) for p in u.dbar], dd)


def _conj_formula(u):
    # conj swaps d and dbar and transposes dd
    n = len(u.d)
    dd = None if u.dd is None else [[_conj(u.dd[j][i]) for j in range(n)] for i in range(n)]
    return _expected(np.conj(u.value), map(_conj, u.dbar), map(_conj, u.d), dd)


def _half_formula(u, value, factor, combine):
    # factor * (p combine conj q), q the part of conj f at p's place
    n = len(u.d)
    dd = None if u.dd is None else [
        [_prod(factor, combine(u.dd[i][j], _conj(u.dd[j][i]))) for j in range(n)]
        for i in range(n)]
    return _expected(value,
                     [_prod(factor, combine(p, _conj(q))) for p, q in zip(u.d, u.dbar)],
                     [_prod(factor, combine(p, _conj(q))) for p, q in zip(u.dbar, u.d)], dd)


def _cases(a, b, plain):
    """(label, rule output, formula) for every rule the test covers."""
    v = a.value
    p = 1.5
    s = np.sqrt(v)
    yield "add", a + b, _pairwise_formula(a, b, a.value + b.value, _sum)
    yield "subtract", a - b, _pairwise_formula(a, b, a.value - b.value, _diff)
    yield "multiply", a * b, _product_formula(a, b)
    yield "divide", a / b, _quotient_formula(a, b)
    yield "multiply by plain", a * plain, _scaled_formula(a, plain, v * plain)
    yield "plain times", plain * a, _scaled_formula(a, plain, plain * v)
    yield "divide by plain", a / plain, _scaled_formula(a, 1.0 / plain, v / plain)
    none = (None,) * len(b.d)
    constant = jets.Jet(plain, none, none, None if b.dd is None else (none,) * len(b.d))
    yield "plain over", plain / b, _quotient_formula(constant, b)
    yield "log", np.log(a), _log_formula(a, np.log(v), v)
    yield "log1p", np.log1p(a), _log_formula(a, np.log1p(v), 1.0 + v)
    e = np.exp(v)
    yield "exp", np.exp(a), _composed_formula(a, e, e, e)
    yield "sqrt", np.sqrt(a), _composed_formula(a, s, 0.5 / s, -0.5 * (0.5 / s) / v)
    yield "power", a ** p, _composed_formula(a, v ** p, p * v ** (p - 1),
                                             p * (p - 1) * v ** (p - 2))
    yield "conj", np.conj(a), _conj_formula(a)
    yield "real", a.real, _half_formula(a, v.real, 0.5, _sum)
    yield "imag", a.imag, _half_formula(a, v.imag, -0.5j, _diff)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2, 3]),
       orders=st.sampled_from([(1, 1), (2, 2), (2, 1)]), nested=st.booleans(),
       zeros=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_rules_are_their_per_part_formulas_byte_for_byte(seed, n, orders, nested, zeros):
    rng = np.random.default_rng(seed)
    inner = 2 if nested else None
    a = _random_jet(rng, n, orders[0], inner, zeros)
    b = _random_jet(rng, n, orders[1], inner, zeros)
    plain = rng.normal(size=4) + 1j * rng.normal(size=4)
    with np.errstate(all="ignore"):
        for label, got, formula in _cases(a, b, plain):
            assert isinstance(got, jets.Jet), label
            assert _blob(got) == _blob(formula), label


def test_unit_rows_are_shared_and_read_only():
    rng = np.random.default_rng(14)
    first, second = _plane_points(rng, 5, 2), _plane_points(rng, 7, 2)
    one, two = jets.variables(first, 1), jets.variables(second, 2)
    assert all(p is q for p, q in zip(one.d, two.d))
    assert jets.variables(jets.variables(first, 1), 2).d[0] is one.d[0]
    assert not one.d[0].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        one.d[0][0] = 2.0
    assert np.array_equal(np.stack(one.d), np.eye(2))
