"""Wirtinger stencils, Ricci matrices, divergences and their quality gates."""

import math

import numpy as np
import pytest

from holoinv import (
    DifferentiationQualityError,
    VectorFieldSpec,
)
from holoinv import calculus
from holoinv.calculus import DEFAULT_STEP


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def mod_squared(coords):
    return _abs2(coords[..., 0])


def log_one_plus(coords):
    return np.log1p(_abs2(coords[..., 0]))


def flat(coords):
    return np.zeros(coords.shape[:-1])


def point(*coords):
    """One-point batch of chart coordinates, shape (1, n)."""
    return np.array([coords], dtype=complex)


def top_density_at(vol, chart_id, *coords):
    """n! det(R) at one point, from the closed form when one is registered."""
    exact = vol.exact_ricci.get(chart_id)
    return calculus.ricci_top_field(vol.log_density[chart_id], point(*coords),
                                    exact=exact)[0]


def divergence_at(fld, vol, chart_id, *coords):
    return calculus.divergence_field(fld.components[chart_id], vol.log_density[chart_id],
                                     point(*coords))[0]


# --- holomorphic_derivative ------------------------------------------------


def test_gradient_of_modulus_squared_is_conjugate():
    # d|z|^2/dz = zbar; exact for polynomials up to rounding
    g = calculus.holomorphic_derivative(mod_squared, point(1.0))[0]
    assert abs(g[0] - 1.0) < 1e-12
    g2 = calculus.holomorphic_derivative(mod_squared, point(0.5 + 2.0j))[0]
    assert abs(g2[0] - (0.5 - 2.0j)) < 1e-11


def test_gradient_critical_point():
    g = calculus.holomorphic_derivative(log_one_plus, point(0.0))[0]
    assert abs(g[0]) < 1e-13


def test_gradient_log_closed_form():
    # d log(1+|z|^2)/dz = zbar/(1+|z|^2) = 0.5 at z = 1
    g = calculus.holomorphic_derivative(log_one_plus, point(1.0))[0]
    assert abs(g[0] - 0.5) < 1e-11


@pytest.mark.parametrize("n", [1, 2])
def test_vector_evaluator_is_called_8n_times(n):
    # one call differentiates every component along every axis: the Jacobian
    # of a 3-component evaluator has shape (..., 3, n), and its row k is
    # bit-equal to differentiating component k alone
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, (5, n)) + 1j * rng.uniform(-1, 1, (5, n))
    calls = []

    def field(c):
        calls.append(c.shape)
        return np.stack([c[..., 0] ** (k + 2) * np.conj(c[..., -1]) + k for k in range(3)],
                        axis=-1)

    jac = calculus.holomorphic_derivative(field, pts)
    assert jac.shape == (5, 3, n)
    assert len(calls) == 8 * n
    for k in range(3):
        alone = calculus.holomorphic_derivative(lambda c, _k=k: field(c)[..., _k], pts)
        assert np.array_equal(jac[:, k], alone), k


def _per_axis_holomorphic_derivative(fn, coords, step):
    # reference: real central differences along the x- and y-part of one
    # complex axis at a time, shifting only that coordinate
    offsets, weights = ((-2.0, -1.0, 1.0, 2.0),
                        (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0))

    def real_derivative(axis, direction):
        acc = None
        for o, w in zip(offsets, weights):
            shifted = np.array(coords)
            shifted[..., axis] = shifted[..., axis] + (o * step) * direction
            values = np.asarray(fn(shifted))
            weight = np.reshape(w / step, np.shape(step) + (1,) * (values.ndim - np.ndim(step)))
            acc = weight * values if acc is None else acc + weight * values
        return acc

    return np.stack([0.5 * (real_derivative(j, 1.0) - 1.0j * real_derivative(j, 1.0j))
                     for j in range(coords.shape[-1])], axis=-1)


@pytest.mark.parametrize("step", [DEFAULT_STEP])
def test_holomorphic_derivative_is_bit_equal_to_the_per_axis_loop(hopf, step):
    rng = np.random.default_rng(5)
    pts = rng.uniform(1.0, 2.0, (4096, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (4096, 2)))
    evaluators = [hopf.volumes["r4-bump"].log_density["punctured"],
                  hopf.fields["x1"].components["punctured"]]
    for fn in evaluators:
        new = calculus.holomorphic_derivative(fn, pts, step)
        assert np.array_equal(new, _per_axis_holomorphic_derivative(fn, pts, step))


def _smooth(coords):
    z = coords
    return np.log1p(_abs2(z).sum(-1)) + (z[..., 0] ** 2 * np.conj(z[..., -1])).real


@pytest.mark.parametrize("n", [1, 2, 3])
def test_directional_derivative_is_the_contracted_gradient(n):
    rng = np.random.default_rng(20 + n)
    pts = rng.uniform(-1, 1, (64, n)) + 1j * rng.uniform(-1, 1, (64, n))
    v = rng.uniform(-2, 2, (64, n)) + 1j * rng.uniform(-2, 2, (64, n))
    grad = calculus.holomorphic_derivative(_smooth, pts)
    along = calculus.directional_derivative(_smooth, pts, v)
    assert along.shape == (64,)
    assert np.max(np.abs(along - np.sum(v * grad, axis=-1))) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_directional_derivative_is_exact_on_quartic_polynomials(n):
    # along a line a polynomial of degree <= 4 in z and zbar is a quartic in
    # the line parameter, where the order-4 stencil has no truncation error,
    # so even a coarse step leaves only rounding
    rng = np.random.default_rng(30 + n)
    terms = []
    for _ in range(6):
        holo, anti = rng.integers(0, 3, n), rng.integers(0, 3, n)
        while holo.sum() + anti.sum() > 4:
            holo, anti = rng.integers(0, 3, n), rng.integers(0, 3, n)
        terms.append((complex(*rng.normal(size=2)), holo, anti))

    def poly(c):
        return sum(k * np.prod(c ** a * np.conj(c) ** b, axis=-1) for k, a, b in terms)

    def d_poly(c, i):
        return sum(k * a[i] * np.prod(c ** (a - np.eye(n, dtype=int)[i]) * np.conj(c) ** b,
                                      axis=-1)
                   for k, a, b in terms if a[i])

    pts = rng.uniform(-1, 1, (32, n)) + 1j * rng.uniform(-1, 1, (32, n))
    v = rng.uniform(-1, 1, (32, n)) + 1j * rng.uniform(-1, 1, (32, n))
    exact = sum(v[..., i] * d_poly(pts, i) for i in range(n))
    along = calculus.directional_derivative(poly, pts, v, step=0.25)
    assert np.max(np.abs(along - exact)) < 1e-13


def test_directional_derivative_vanishes_where_the_direction_does():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (6, 2)) + 1j * rng.uniform(-1, 1, (6, 2))
    v = rng.uniform(-1, 1, (6, 2)) + 1j * rng.uniform(-1, 1, (6, 2))
    v[::2] = 0.0
    along = calculus.directional_derivative(_smooth, pts, v)
    assert np.all(along[::2] == 0.0)
    assert np.all(along[1::2] != 0.0)
    assert np.all(calculus.directional_derivative(_smooth, pts, np.zeros(2)) == 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_directional_derivative_calls_the_evaluator_8_times(n):
    rng = np.random.default_rng(n)
    pts = rng.uniform(-1, 1, (5, n)) + 1j * rng.uniform(-1, 1, (5, n))
    calls = []

    def counted(c):
        calls.append(c.shape)
        return _smooth(c)

    calculus.directional_derivative(counted, pts, np.conj(pts))
    assert calls == [(5, n)] * 8


# --- ricci_from_log_density ------------------------------------------------


def test_fs_ricci_at_origin(cp1):
    # -d dbar log a = 2/(1+|z|^2)^2 = 2 at z = 0
    R = calculus.ricci_from_log_density(cp1.volumes["fs"].log_density["affine"], point(0.0))
    assert R.shape == (1, 1, 1)
    assert abs(R[0, 0, 0] - 2.0) < 1e-9
    assert calculus.hermiticity_residual(R)[0] < 1e-10


def test_flat_density_has_zero_ricci():
    R = calculus.ricci_from_log_density(flat, point(0.3 + 0.4j))[0]
    assert np.max(np.abs(R)) < 1e-10


def test_hopf_ricci_hand_value(hopf):
    # d_i d_jbar log r^2 = delta_ij/r^2 - zbar_i z_j / r^4; at (1, 0) the
    # r^-4 density gives 2*diag(0, 1) with vanishing determinant
    R = calculus.ricci_from_log_density(hopf.volumes["r4"].log_density["punctured"],
                                        point(1.0, 0.0))[0]
    assert np.max(np.abs(R - np.diag([0.0, 2.0]))) < 1e-9
    assert abs(np.linalg.det(R)) < 1e-9


def test_hopf_numeric_matches_hand_formula(hopf):
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.8, 1.4, (40, 2)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (40, 2)))
    numeric = calculus.ricci_from_log_density(
        hopf.volumes["r4"].log_density["punctured"], pts)
    r2 = _abs2(pts).sum(-1)
    hand = 2.0 * (np.eye(2) / r2[..., None, None]
                  - np.einsum("...i,...j->...ij", np.conj(pts), pts)
                  / (r2 ** 2)[..., None, None])
    assert np.max(np.abs(numeric - hand)) < 1e-8


def test_exact_ricci_short_circuits_scheme(cp1):
    # with a closed form registered the stencil never calls the log-density
    def untouchable(coords):
        raise AssertionError("log-density evaluated despite the closed form")

    vol = cp1.volumes["fs"]
    top = calculus.ricci_top_field(untouchable, point(1.0),
                                   exact=vol.exact_ricci["affine"])[0]
    assert abs(top - 0.5) < 1e-14  # 1! * 2/(1+1)^2


def test_numeric_matches_exact_fs(cp1):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, (100, 1)) + 1j * rng.uniform(-2, 2, (100, 1))
    logd = cp1.volumes["fs"].log_density["affine"]
    numeric = calculus.ricci_from_log_density(logd, pts, 1e-3)
    exact = cp1.volumes["fs"].exact_ricci["affine"](pts)
    assert np.max(np.abs(numeric - exact)) < 1e-7


def test_convergence_order_at_least_3_5(cp1):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, (50, 1)) + 1j * rng.uniform(-2, 2, (50, 1))
    logd = cp1.volumes["fs"].log_density["affine"]
    exact = cp1.volumes["fs"].exact_ricci["affine"](pts)
    errors = []
    for h in (0.04, 0.02, 0.01):
        numeric = calculus.ricci_from_log_density(logd, pts, h)
        errors.append(np.max(np.abs(numeric - exact)))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5


def test_hermiticity_of_builtin_densities(cp1, hopf):
    rng = np.random.default_rng(2)
    z = rng.uniform(-2, 2, (50, 1)) + 1j * rng.uniform(-2, 2, (50, 1))
    for name in ("fs", "fs-bump"):
        R = calculus.ricci_from_log_density(cp1.volumes[name].log_density["affine"], z)
        assert np.max(calculus.hermiticity_residual(R)) < 1e-8
    w = rng.uniform(0.8, 1.4, (50, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (50, 2)))
    for name in ("r4", "r4-bump"):
        R = calculus.ricci_from_log_density(hopf.volumes[name].log_density["punctured"], w)
        assert np.max(calculus.hermiticity_residual(R)) < 1e-8


@pytest.mark.parametrize("n, evaluations", [(1, 17), (2, 97), (3, 241)])
def test_mixed_hessian_evaluates_each_node_once(n, evaluations):
    # order 4: the base point, 8 more nodes per real axis, 16 per real pair
    # (x_j, x_i), (y_j, y_i), (y_j, x_i), (x_j, y_i) for each i < j; the
    # in-plane pairs (x_i, y_i) cancel out of H and are not evaluated
    pts = np.full((7, n), 0.9 + 0.3j)
    shapes = []

    def counted(c):
        shapes.append(c.shape)
        return np.log1p(_abs2(c).sum(axis=-1))

    calculus.mixed_hessian(counted, pts)
    assert shapes == [(7, n)] * evaluations


def _real_table_mixed_hessian(fn, coords, step):
    # reference: the full real 2n x 2n Hessian, every real pair including the
    # in-plane (x_i, y_i) products, and H read off its rows
    n = coords.shape[-1]
    offsets, weights = calculus._STENCIL
    real_axes = [(axis, direction) for axis in range(n) for direction in (1.0, 1.0j)]

    def at(*shifts):
        return np.asarray(fn(calculus._shifted(
            coords, [(*real_axes[a], o) for a, o in shifts], step)))

    inv_h2 = 1.0 / (step * step)
    base = at()
    real = [[None] * (2 * n) for _ in range(2 * n)]
    for a in range(2 * n):
        real[a][a] = inv_h2 * sum(w * (base if o == 0.0 else at((a, o)))
                                  for o, w in zip(*calculus._DIAGONAL_STENCIL))
        for b in range(a):
            real[a][b] = real[b][a] = inv_h2 * sum(
                (wa * wb) * at((a, oa), (b, ob))
                for oa, wa in zip(offsets, weights) for ob, wb in zip(offsets, weights))
    rows = []
    for i in range(n):
        xi, yi = real[2 * i], real[2 * i + 1]
        rows.append(np.stack([
            0.25 * ((xi[2 * j] + yi[2 * j + 1]) + 1.0j * (xi[2 * j + 1] - yi[2 * j]))
            for j in range(n)], axis=-1))
    return np.stack(rows, axis=-2)


def _log_one_plus_norm(coords):
    return np.log1p(sum(_abs2(coords[..., k]) for k in range(coords.shape[-1])))


@pytest.mark.parametrize("step", [DEFAULT_STEP, 3e-3])
def test_mixed_hessian_is_bit_equal_to_the_real_table(cp1, hopf, step):
    rng = np.random.default_rng(12)
    m = 600
    hopf_pts = rng.uniform(1.0, 2.0, (m, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (m, 2)))
    cp1_pts = rng.uniform(-1, 1, (m, 1)) + 1j * rng.uniform(-1, 1, (m, 1))
    c3_pts = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
    # at the origin f_xiyj == f_yixj exactly: the mirror entry keeps its +0
    # imaginary part, which conj(H_ij) would turn into -0
    c3_pts[0] = 0.0
    cases = [(hopf.volumes["r4-bump"].log_density["punctured"], hopf_pts),
             (cp1.volumes["fs-bump"].log_density["affine"], cp1_pts),
             (_log_one_plus_norm, c3_pts)]
    for fn, pts in cases:
        new = calculus.mixed_hessian(fn, pts, step)
        ref = _real_table_mixed_hessian(fn, pts, step)
        assert np.array_equal(new, ref)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(new)), np.signbit(part(ref)))


def test_stencil_ricci_at_n3_matches_the_closed_form():
    # log(1 + |z|^2) on C^3: H_ij = (S delta_ij - zbar_i z_j) / S^2, S = 1 + |z|^2
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1, 1, (200, 3)) + 1j * rng.uniform(-1, 1, (200, 3))
    s = 1.0 + _abs2(pts).sum(axis=-1)
    closed = ((s[:, None, None] * np.eye(3) - np.conj(pts)[:, :, None] * pts[:, None, :])
              / (s ** 2)[:, None, None])
    H = calculus.mixed_hessian(_log_one_plus_norm, pts)
    assert np.max(np.abs(H - closed)) <= 1e-7
    assert np.all(calculus.hermiticity_residual(H) == 0.0)


def test_stencil_hessian_is_exactly_hermitian(hopf):
    rng = np.random.default_rng(8)
    w = rng.uniform(0.8, 1.4, (50, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (50, 2)))
    H = calculus.mixed_hessian(hopf.volumes["r4-bump"].log_density["punctured"], w)
    assert np.all(calculus.hermiticity_residual(H) == 0.0)


@pytest.mark.parametrize("order", [4])
def test_diagonal_stencil_is_the_first_derivative_stencil_squared(order):
    offsets, weights = calculus._STENCIL
    # exact on polynomials of degree <= order: sum w o^k is 1 for k = 1, else 0
    assert [math.fsum(w * o ** k for o, w in zip(offsets, weights))
            for k in range(order + 1)] == [float(k == 1) for k in range(order + 1)]
    merged = {}
    for oa, wa in zip(offsets, weights):
        for ob, wb in zip(offsets, weights):
            merged[oa + ob] = merged.get(oa + ob, 0.0) + wa * wb
    diag_offsets, diag_weights = calculus._DIAGONAL_STENCIL
    assert list(diag_offsets) == sorted(merged)
    assert list(diag_weights) == pytest.approx([merged[o] for o in diag_offsets],
                                               rel=1e-15, abs=1e-17)


def _random_hermitian(rng, points, n):
    a = rng.normal(size=(points, n, n)) + 1j * rng.normal(size=(points, n, n))
    return a @ np.conj(np.swapaxes(a, -1, -2)) + np.eye(n)


@pytest.mark.filterwarnings("ignore:invalid value encountered in det")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_top_density_determinant(monkeypatch, n):
    # closed form for n <= 2, LAPACK beyond; a NaN entry gives NaN, no error
    rng = np.random.default_rng(9)
    R = _random_hermitian(rng, 200, n)
    lapack_det = np.linalg.det
    lapack = math.factorial(n) * lapack_det(R).real
    lapack_calls = []

    def det(m):
        lapack_calls.append(m.shape)
        return lapack_det(m)

    monkeypatch.setattr(np.linalg, "det", det)
    coords = np.zeros((200, n), dtype=complex)
    top = calculus.ricci_top_field(flat, coords, exact=lambda c: R)
    assert np.max(np.abs(top - lapack) / np.abs(lapack)) < 1e-13
    assert len(lapack_calls) == (n >= 3)
    R[3, 0, n - 1] = np.nan
    top = calculus.ricci_top_field(flat, coords, exact=lambda c: R)
    assert np.isnan(top[3])
    assert np.all(np.isfinite(np.delete(top, 3)))


def test_hermiticity_gate_raises():
    def skew(c):
        return np.broadcast_to(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                               c.shape[:-1] + (2, 2))

    with pytest.raises(DifferentiationQualityError,
                       match="closed-form exact_ricci evaluator returned a non-Hermitian"):
        calculus.ricci_top_field(flat, point(0.0, 0.0), exact=skew)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermiticity_residual_matches_the_reference_reduction(n):
    # the entrywise fold is bit-equal to the trailing-axis max, NaN and inf included
    rng = np.random.default_rng(11 + n)
    M = rng.normal(size=(64, n, n)) + 1j * rng.normal(size=(64, n, n))
    M[1, 0, n - 1] = np.nan
    M[2, n - 1, 0] = complex(np.inf, 1.0)
    M[3, 0, 0] = complex(-np.inf, np.inf)
    M[4, n - 1, n - 1] = complex(1.0, np.nan)
    M[5] = _random_hermitian(rng, 1, n)[0]
    with np.errstate(invalid="ignore"):
        reference = np.abs(M - np.conj(np.swapaxes(M, -1, -2))).max(axis=(-2, -1))
        residual = calculus.hermiticity_residual(M)
    assert residual.tobytes() == reference.tobytes()
    assert np.isnan(residual[1]) and np.isnan(residual[4])


def test_hermiticity_tolerance_scales_with_the_largest_entry():
    # residual 1 against entries near 1e8 is a relative residual of 5e-9
    def near_hermitian(c):
        R = np.array([[1e8, 2e7 + 1.0], [2e7, 1e8]], dtype=complex)
        return np.broadcast_to(R, c.shape[:-1] + (2, 2))

    top = calculus.ricci_top_field(flat, point(0.0, 0.0), exact=near_hermitian)
    assert np.all(np.isfinite(top))


def test_hermiticity_gate_names_the_finite_point_beside_a_nan_point():
    def batch(skew):
        def exact(c):
            R = np.zeros(c.shape[:-1] + (2, 2), dtype=complex)
            R[..., 0, 0] = R[..., 1, 1] = 1.0
            R[0, 0, 1] = np.nan
            R[1, 0, 1] = skew
            return R
        return exact

    coords = np.zeros((3, 2), dtype=complex)
    with pytest.raises(DifferentiationQualityError, match="residual 2.500e-01"):
        calculus.ricci_top_field(flat, coords, exact=batch(0.25))
    top = calculus.ricci_top_field(flat, coords, exact=batch(0.0))
    assert np.isnan(top[0])
    assert np.all(top[1:] == 2.0)


# --- divergence_field ------------------------------------------------------


def test_divergence_cp1_origin(cp1):
    # 1 + z * (-2 zbar/(1+|z|^2)) = 1 at z = 0
    val = divergence_at(cp1.fields["z-ddz"], cp1.volumes["fs"], "affine", 0.0)
    assert abs(val - 1.0) < 1e-11


def test_divergence_cp1_unit_circle(cp1):
    # 1 - 2|z|^2/(1+|z|^2) vanishes on |z| = 1
    for z in (1.0, 1.0j, np.exp(0.7j)):
        val = divergence_at(cp1.fields["z-ddz"], cp1.volumes["fs"], "affine", z)
        assert abs(val) < 1e-11


def test_divergence_hopf_radial_identically_zero(hopf):
    # 2 + X log r^-4 = 2 - 2 = 0
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = rng.uniform(0.7, 1.5, 2) * np.exp(1j * rng.uniform(0, 6.28, 2))
        val = divergence_at(hopf.fields["radial"], hopf.volumes["r4"], "punctured", *z)
        assert abs(val) < 1e-10


@pytest.mark.parametrize("step", [DEFAULT_STEP])
def test_divergence_holomorphic_part_is_the_jacobian_trace(hopf, step):
    # against a flat density the divergence is sum_i dX^i/dz^i alone: the
    # field jet's trace, exact for these linear fields, which the stencil
    # Jacobian's diagonal matches to within its own error
    rng = np.random.default_rng(8)
    pts = rng.uniform(1.0, 2.0, (64, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (64, 2)))
    for name, trace in (("x1", 1.0), ("x2", 1.0), ("radial", 2.0)):
        comps = hopf.fields[name].components["punctured"]
        jac = calculus.holomorphic_derivative(comps, pts, step)
        div = calculus.divergence_field(comps, flat, pts)
        assert np.all(div == trace), name
        assert np.max(np.abs(div - (jac[:, 0, 0] + jac[:, 1, 1]))) <= 1e-8, name


def test_divergence_additivity(cp1):
    x, y = cp1.fields["z-ddz"], cp1.fields["z2-ddz"]
    combined = VectorFieldSpec("x+y", {
        "affine": lambda c: x.components["affine"](c) + y.components["affine"](c)})
    vol = cp1.volumes["fs-bump"]
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = divergence_at(combined, vol, "affine", z)
        rhs = divergence_at(x, vol, "affine", z) + divergence_at(y, vol, "affine", z)
        assert abs(lhs - rhs) < 1e-10


def test_dbar_of_divergence_matches_contraction(cp1):
    # dbar(div X) equals the field contracted into the mixed Hessian of log a
    vol = cp1.volumes["fs-bump"]
    logd = vol.log_density["affine"]
    comps = cp1.fields["z-ddz"].components["affine"]
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, (20, 1)) + 1j * rng.uniform(-1.5, 1.5, (20, 1))

    def div_fn(c):
        return calculus.divergence_field(comps, logd, c)

    # d/dzbar = conj(d/dz of the conjugate)
    lhs = np.conj(calculus.holomorphic_derivative(lambda c: np.conj(div_fn(c)), pts))[..., 0]
    hessian = calculus.mixed_hessian(logd, pts)
    rhs = np.einsum("...i,...ij->...j", np.asarray(comps(pts)), hessian)[..., 0]
    assert np.max(np.abs(lhs - rhs)) < 1e-5


# --- ricci_top_field -------------------------------------------------------


def test_top_density_cp1_origin(cp1):
    assert abs(top_density_at(cp1.volumes["fs"], "affine", 0.0) - 2.0) < 1e-9


def test_top_density_hopf_degenerate(hopf):
    val = top_density_at(hopf.volumes["r4"], "punctured", 0.9, 0.7j)
    assert abs(val) < 1e-12


def test_top_density_flat_zero():
    assert abs(calculus.ricci_top_field(flat, point(1.0))[0]) < 1e-10


# --- batches ---------------------------------------------------------------


def test_batched_operators_match_one_point_calls(hopf):
    # every operator is elementwise over the batch: a batch equals its points
    # one at a time, bit for bit, at the one scalar step
    logd = hopf.volumes["r4-bump"].log_density["punctured"]
    comps = hopf.fields["x1"].components["punctured"]
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.8, 1.4, (9, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (9, 2)))
    operators = {
        "mixed_hessian": lambda c: calculus.mixed_hessian(logd, c),
        "holomorphic_derivative": lambda c: calculus.holomorphic_derivative(logd, c),
        "holomorphic_derivative:x1": lambda c: calculus.holomorphic_derivative(comps, c),
        "directional_derivative": lambda c: calculus.directional_derivative(logd, c, comps(c)),
        "divergence_field": lambda c: calculus.divergence_field(comps, logd, c),
        "ricci_top_field": lambda c: calculus.ricci_top_field(logd, c),
    }
    # a 2-point batch of 2-component values: per-point directions that
    # broadcast along the component axis would go unnoticed there without a
    # shape error
    for batch in (2, 9):
        for name, op in operators.items():
            one_point = np.concatenate([op(pts[k:k + 1]) for k in range(batch)])
            assert np.array_equal(op(pts[:batch]), one_point), (batch, name)
