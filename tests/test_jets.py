"""Wirtinger jets against closed forms, stencils and the plain evaluators."""

import math

import numpy as np
import pytest

from holoinv import DifferentiationQualityError, registry_get
from holoinv import calculus, jets


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
    gap = _relative_gap(jet_ricci(vol.log_density[chart], pts), vol.exact_ricci[chart](pts))
    assert np.max(gap) <= 1e-13


def _log_one_plus_norm(coords):
    return np.log1p(sum(_abs2(coords[..., k]) for k in range(coords.shape[-1])))


def test_jet_ricci_at_n3_goes_through_lapack(monkeypatch):
    # log(1 + |z|^2) on C^3: H_ij = (S delta_ij - zbar_i z_j) / S^2, S = 1 + |z|^2,
    # and 3! det(-H) = -6 / S^4
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1, 1, (200, 3)) + 1j * rng.uniform(-1, 1, (200, 3))
    s = 1.0 + _abs2(pts).sum(axis=-1)
    closed = ((s[:, None, None] * np.eye(3) - np.conj(pts)[:, :, None] * pts[:, None, :])
              / (s ** 2)[:, None, None])
    assert np.max(_relative_gap(jet_ricci(_log_one_plus_norm, pts), -closed)) <= 1e-13
    lapack_det = np.linalg.det
    lapack_calls = []

    def det(m):
        lapack_calls.append(m.shape)
        return lapack_det(m)

    monkeypatch.setattr(np.linalg, "det", det)
    top = calculus.ricci_top_field(_log_one_plus_norm, pts)
    assert lapack_calls == [(200, 3, 3)]
    assert np.max(np.abs(top * s ** 4 + 6.0)) <= 1e-13 * 6.0


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
    # the direct route's Ricci density without exact_ricci, against the one
    # from the closed form, on hopf r4 (degenerate) and cp1 fs-bump
    rng = np.random.default_rng(12)
    hopf, cp1 = registry_get("hopf"), registry_get("cp1")
    for vol, chart, pts in ((hopf.volumes["r4"], "punctured", _hopf_points(rng, 100)),
                            (cp1.volumes["fs-bump"], "affine", _plane_points(rng, 100, 1))):
        n = pts.shape[-1]
        jet_top = calculus.ricci_top_field(vol.log_density[chart], pts)
        exact_top = calculus.ricci_top_field(None, pts, exact=vol.exact_ricci[chart])
        scale = math.factorial(n) * np.max(np.abs(vol.exact_ricci[chart](pts)),
                                            axis=(-2, -1)) ** n
        assert np.max(np.abs(jet_top - exact_top) / scale) <= 1e-13
