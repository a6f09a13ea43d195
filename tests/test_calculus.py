"""Wirtinger stencils, Ricci matrices, divergences and their quality gates."""

import math

import numpy as np
import pytest

from holoinv import (
    DifferentiationQualityError,
    VectorFieldSpec,
)
from holoinv import calculus, jets
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
    """n! det(R) at one point, from the log-density's jet."""
    return calculus.ricci_top_field(vol.log_density[chart_id], point(*coords))[0]


def hermiticity_residual(matrix):
    """Per-point max-entry deviation |M_ij - conj(M_ji)| of a matrix batch."""
    return np.abs(matrix - np.conj(np.swapaxes(matrix, -1, -2))).max(axis=(-2, -1))


def with_ricci(R):
    """A function whose jet Ricci matrix is R (m, n, n), entry for entry, at
    any m points: -sum_ij R_ij z^i zbar^j, whose mixed second derivatives
    are the products R_ij * 1, exact."""
    n = R.shape[-1]

    def fn(coords):
        return -sum(R[..., i, j] * coords[..., i] * np.conj(coords[..., j])
                    for i in range(n) for j in range(n))
    return fn


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


# --- ricci_from_log_density ------------------------------------------------


def test_fs_ricci_at_origin(cp1):
    # -d dbar log a = 2/(1+|z|^2)^2 = 2 at z = 0
    R = calculus.ricci_from_log_density(cp1.volumes["fs"].log_density["affine"], point(0.0))
    assert R.shape == (1, 1, 1)
    assert abs(R[0, 0, 0] - 2.0) < 1e-9
    assert hermiticity_residual(R)[0] < 1e-10


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


@pytest.mark.parametrize("step", [0.04, 0.02, 0.01, DEFAULT_STEP])
def test_mixed_hessian_is_the_nested_per_axis_loop(cp1, step):
    # gate 5's inputs: at every step the convergence suite takes, the fs
    # Hessian is bit for bit the per-axis reference applied to the
    # conjugated per-axis gradient, symmetrized as (H + H^H) / 2, at the
    # suite's own points for its default seed 0
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, (100, 1)) + 1j * rng.uniform(-2, 2, (100, 1))
    logd = cp1.volumes["fs"].log_density["affine"]

    def dbar(c):
        return np.conj(_per_axis_holomorphic_derivative(logd, c, step))

    H = np.swapaxes(_per_axis_holomorphic_derivative(dbar, pts, step), -1, -2)
    reference = 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))
    assert calculus.mixed_hessian(logd, pts, step).tobytes() == reference.tobytes()
    assert calculus.ricci_from_log_density(logd, pts, step).tobytes() == (-reference).tobytes()


def test_hermiticity_of_builtin_densities(cp1, hopf):
    rng = np.random.default_rng(2)
    z = rng.uniform(-2, 2, (50, 1)) + 1j * rng.uniform(-2, 2, (50, 1))
    for name in ("fs", "fs-bump"):
        R = calculus.ricci_from_log_density(cp1.volumes[name].log_density["affine"], z)
        assert np.max(hermiticity_residual(R)) < 1e-8
    w = rng.uniform(0.8, 1.4, (50, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (50, 2)))
    for name in ("r4", "r4-bump"):
        R = calculus.ricci_from_log_density(hopf.volumes[name].log_density["punctured"], w)
        assert np.max(hermiticity_residual(R)) < 1e-8


@pytest.mark.parametrize("n, calls", [(1, 64), (2, 256), (3, 576)])
def test_mixed_hessian_calls_the_nested_stencil(n, calls):
    # holomorphic_derivative of the conjugated gradient: 8n outer nodes, each
    # an inner gradient of 8n calls, every call on the batch shape
    pts = np.full((7, n), 0.9 + 0.3j)
    shapes = []

    def counted(c):
        shapes.append(c.shape)
        return np.log1p(_abs2(c).sum(axis=-1))

    calculus.mixed_hessian(counted, pts)
    assert shapes == [(7, n)] * calls


def _log_one_plus_norm(coords):
    return np.log1p(sum(_abs2(coords[..., k]) for k in range(coords.shape[-1])))


def _real_quartic(coords):
    # |z1|^4 + sum_k Re(z1^2 zbar_k) + |z1|^2 |z_k|^2: real, degree 4
    z1 = coords[..., 0]
    total = _abs2(z1) * _abs2(z1)
    for k in range(coords.shape[-1]):
        zk = coords[..., k]
        total = total + (z1 * z1 * np.conj(zk)).real + _abs2(z1) * _abs2(zk)
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mixed_hessian_is_exact_on_a_real_quartic(n):
    # the order-4 stencil, nested, is exact on polynomials of degree 4 even
    # at a coarse step: only rounding separates it from the jet Hessian
    rng = np.random.default_rng(14)
    pts = rng.uniform(-1, 1, (50, n)) + 1j * rng.uniform(-1, 1, (50, n))
    H = calculus.mixed_hessian(_real_quartic, pts, 0.25)
    dd = jets.evaluate(_real_quartic, pts, 2).dd
    exact = np.stack([np.stack([calculus._batch(h, pts.shape[:-1]) for h in row], axis=-1)
                      for row in dd], axis=-2)
    assert np.max(np.abs(H - exact)) <= 1e-12


def test_stencil_ricci_at_n3_matches_the_closed_form():
    # log(1 + |z|^2) on C^3: H_ij = (S delta_ij - zbar_i z_j) / S^2, S = 1 + |z|^2
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1, 1, (200, 3)) + 1j * rng.uniform(-1, 1, (200, 3))
    s = 1.0 + _abs2(pts).sum(axis=-1)
    closed = ((s[:, None, None] * np.eye(3) - np.conj(pts)[:, :, None] * pts[:, None, :])
              / (s ** 2)[:, None, None])
    H = calculus.mixed_hessian(_log_one_plus_norm, pts)
    assert np.max(np.abs(H - closed)) <= 1e-7
    assert np.all(hermiticity_residual(H) == 0.0)


def test_stencil_hessian_is_exactly_hermitian(hopf):
    rng = np.random.default_rng(8)
    w = rng.uniform(0.8, 1.4, (50, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (50, 2)))
    H = calculus.mixed_hessian(hopf.volumes["r4-bump"].log_density["punctured"], w)
    assert np.all(hermiticity_residual(H) == 0.0)


def test_first_derivative_stencil_is_exact_through_degree_4():
    offsets, weights = calculus._STENCIL
    # exact on polynomials of degree <= 4: sum w o^k is 1 for k = 1, else 0
    assert [math.fsum(w * o ** k for o, w in zip(offsets, weights))
            for k in range(5)] == [float(k == 1) for k in range(5)]


def _random_hermitian(rng, points, n):
    a = rng.normal(size=(points, n, n)) + 1j * rng.normal(size=(points, n, n))
    return a @ np.conj(np.swapaxes(a, -1, -2)) + np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_top_density_determinant(monkeypatch, n):
    # one cofactor determinant for every n, never LAPACK; a NaN entry gives
    # NaN, no error
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
    top = calculus.ricci_top_field(with_ricci(R), coords)
    assert np.max(np.abs(top - lapack) / np.abs(lapack)) < 1e-13
    assert lapack_calls == []
    R[3, 0, n - 1] = np.nan
    top = calculus.ricci_top_field(with_ricci(R), coords)
    assert np.isnan(top[3])
    assert np.all(np.isfinite(np.delete(top, 3)))


def test_hermiticity_gate_raises():
    skew = np.broadcast_to(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), (1, 2, 2))
    with pytest.raises(DifferentiationQualityError,
                       match="Hermiticity residual 1.000e.00 .*log-density is not real-valued"):
        calculus.ricci_top_field(with_ricci(skew), point(0.0, 0.0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermiticity_residual_matches_the_reference_reduction(n):
    # the entrywise fold the gate uses is bit-equal to the trailing-axis max,
    # NaN and inf included
    rng = np.random.default_rng(11 + n)
    M = rng.normal(size=(64, n, n)) + 1j * rng.normal(size=(64, n, n))
    M[1, 0, n - 1] = np.nan
    M[2, n - 1, 0] = complex(np.inf, 1.0)
    M[3, 0, 0] = complex(-np.inf, np.inf)
    M[4, n - 1, n - 1] = complex(1.0, np.nan)
    M[5] = _random_hermitian(rng, 1, n)[0]
    with np.errstate(invalid="ignore"):
        reference = hermiticity_residual(M)
        residual = calculus._entry_residual([[M[..., i, j] for j in range(n)]
                                             for i in range(n)])
    assert residual.tobytes() == reference.tobytes()
    assert np.isnan(residual[1]) and np.isnan(residual[4])


def test_hermiticity_tolerance_scales_with_the_largest_entry():
    # residual 1 against entries near 1e8 is a relative residual of 5e-9
    R = np.array([[[1e8, 2e7 + 1.0], [2e7, 1e8]]], dtype=complex)
    top = calculus.ricci_top_field(with_ricci(R), point(0.0, 0.0))
    assert np.all(np.isfinite(top))


def test_hermiticity_gate_names_the_finite_point_beside_a_nan_point():
    def batch(skew):
        R = np.zeros((3, 2, 2), dtype=complex)
        R[..., 0, 0] = R[..., 1, 1] = 1.0
        R[0, 0, 1] = np.nan
        R[1, 0, 1] = skew
        return with_ricci(R)

    coords = np.zeros((3, 2), dtype=complex)
    with pytest.raises(DifferentiationQualityError, match="residual 2.500e-01"):
        calculus.ricci_top_field(batch(0.25), coords)
    top = calculus.ricci_top_field(batch(0.0), coords)
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


def test_top_density_flat_zero(monkeypatch):
    assert abs(calculus.ricci_top_field(flat, point(1.0))[0]) < 1e-10
    # a jet with no second-order part (every dd part None, the jets' exact
    # zero) skips the checks, and gives the bits that the checked path gives
    # on the same jet with explicit zero dd parts, real or complex
    checked = []
    residual = calculus._entry_residual
    monkeypatch.setattr(calculus, "_entry_residual",
                        lambda entry: checked.append(len(entry)) or residual(entry))
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        coords = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        none = jets.evaluate(flat, coords, 2)
        assert all(h is None for row in none.dd for h in row)
        exact = calculus.ricci_top_field(none, coords)
        assert checked == []
        for dtype in (float, complex):
            zeros = jets.Jet(none.value, none.d, none.dbar,
                             [[np.zeros(5, dtype)] * n for _ in range(n)])
            top = calculus.ricci_top_field(zeros, coords)
            assert checked.pop() == n
            assert (exact.dtype, exact.shape) == (top.dtype, top.shape) == (np.float64, (5,))
            assert exact.tobytes() == top.tobytes(), (n, dtype)


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
        "divergence_field": lambda c: calculus.divergence_field(comps, logd, c),
        "ricci_top_field": lambda c: calculus.ricci_top_field(logd, c),
    }
    for batch in (2, 9):
        for name, op in operators.items():
            one_point = np.concatenate([op(pts[k:k + 1]) for k in range(batch)])
            assert np.array_equal(op(pts[:batch]), one_point), (batch, name)
