"""Acceptance gates, one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see every line; pytest -v
shows the same outcomes per test. Each gate pins its tolerance inline; gates
3-5 run the check suites the examples declare and fail when a declared bound
differs from the pinned one.
"""

import random
import time
from fractions import Fraction

from holoinv import (
    CohomologyClass,
    QuadratureSpec,
    class_inverse,
    class_mul,
    component_contribution_parts,
    invariant_alternative,
    invariant_direct,
    localization_sum,
    registry_get,
    rescale_field,
)
from holoinv.cli import run_suite
from holoinv.geometry import DEFAULT_SAMPLES


def _report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}".rstrip())
    return passed


def test_criterion_1_headline_residue(hopf_blowup):
    started = time.perf_counter()
    data = hopf_blowup.fixed_points["x1"]
    isolated, curve = data.components
    iso_value = component_contribution_parts(isolated, 2)[2]
    numerator, inverted, curve_value = component_contribution_parts(curve, 2)
    total = localization_sum(data)
    elapsed = time.perf_counter() - started
    ok = (total == Fraction(-2)
          and iso_value == 0
          and list(numerator.coeffs) == [Fraction(1), Fraction(-3)]
          and list(inverted.coeffs) == [Fraction(1), Fraction(1)]
          and curve_value == Fraction(-2)
          and elapsed < 1.0)
    assert _report(
        "1 blow-up residue sum -2 (isolated 0, numerator 1-3t, inverse 1+t, < 1s)",
        ok, f"sum={total}, {elapsed:.3f}s")


def test_criterion_2_cross_method_consistency(cp1):
    exact = localization_sum(cp1.fixed_points["z-ddz"])
    q3 = QuadratureSpec(points_per_axis=16, refinement_levels=3)
    started = time.perf_counter()
    direct = invariant_direct(cp1.manifold, cp1.volumes["fs"], cp1.fields["z-ddz"], q=q3)
    elapsed = time.perf_counter() - started
    alt = invariant_alternative(cp1.manifold, cp1.volumes["fs"],
                                cp1.fields["z-ddz"], q=q3)
    ok = (exact == 0
          and abs(direct.value) + direct.error_estimate <= 1e-6
          and elapsed < 30.0
          and abs(direct.value - alt.value) <= 1e-4)
    assert _report(
        "2 cp1 z d/dz: residues 0, |direct| + error <= 1e-6 at level 3, "
        "|direct-alt| <= 1e-4",
        ok, f"|direct|={abs(direct.value):.2e}, error={direct.error_estimate:.2e}, "
            f"gap={abs(direct.value - alt.value):.2e}, {elapsed:.2f}s")


def _declared_rows(bundle, suite, pinned):
    """Rows of the suite `bundle` declares, run at seed 0, and the gate verdict.

    The verdict holds when the rows carry exactly the labels of `pinned`,
    every row passed, and each declared bound equals its pinned number, so
    loosening the declaration fails the gate.
    """
    rows, _ = run_suite(bundle, suite, samples=DEFAULT_SAMPLES, seed=0,
                        q=bundle.default_quadrature)
    by_label = {row["label"]: row for row in rows}
    ok = (set(by_label) == set(pinned)
          and all(row["passed"] for row in rows)
          and all(by_label[label]["bound"] == bound for label, bound in pinned.items()))
    return by_label, ok


def test_criterion_3_vaisman_vanishing(hopf):
    fields = ("x1", "x2", "radial")
    pinned = {"vaisman:max|det R|": 1e-8,
              **{f"vaisman:f:r4:{f}": 1e-6 for f in fields},
              **{f"vaisman:f:r4-bump:{f}": 1e-5 for f in fields}}
    rows, ok = _declared_rows(hopf, "vaisman", pinned)
    detail = [f"max|det R|={rows['vaisman:max|det R|']['value_re']:.2e}"]
    detail += [f"{label.removeprefix('vaisman:f:')}="
               f"{abs(complex(rows[label]['value_re'], rows[label]['value_im'])):.1e}"
               for label in list(pinned)[1:]]
    assert _report(
        "3 hopf vanishing: det R <= 1e-8; |f| <= 1e-6 (r4) and <= 1e-5 (perturbed)",
        ok, " ".join(detail))


def test_criterion_4_choice_independence(cp1, hopf):
    cp1_rows, ok = _declared_rows(cp1, "deformation", {"deformation:z-ddz": 1e-10})
    hopf_rows, hopf_ok = _declared_rows(
        hopf, "deformation", {f"deformation:{f}": 1e-6 for f in ("x1", "x2", "radial")})
    spread = cp1_rows["deformation:z-ddz"]
    hopf_gap = max(row["value_re"] for row in hopf_rows.values())
    assert _report(
        "4 choice independence: cp1 spread within 1e-10; hopf characters within 1e-6",
        ok and hopf_ok,
        f"spread={spread['value_re']:.2e} error={spread['error']:.2e} "
        f"hopf_gap={hopf_gap:.2e}")


def test_criterion_5_differentiation_quality(cp1):
    rows, ok = _declared_rows(cp1, "convergence",
                              {"convergence:match@1e-3": 1e-7, "convergence:order": 3.5})
    assert _report(
        "5 order-4 stencil: matches closed form within 1e-7 at h=1e-3; order >= 3.5",
        ok, f"mismatch={rows['convergence:match@1e-3']['value_re']:.2e} "
            f"order={rows['convergence:order']['value_re']:.2f}")


def test_criterion_6a_ring_round_trips():
    rng = random.Random(20240811)

    def coefficient():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    failures = 0
    for _ in range(1000):
        dim = rng.randint(0, 4)
        a = CohomologyClass(tuple(coefficient() for _ in range(dim + 1)))
        b = CohomologyClass(tuple(coefficient() for _ in range(dim + 1)))
        if a.coeffs[0] == 0 or b.coeffs[0] == 0:
            continue
        one = CohomologyClass.constant(1, dim)
        if class_mul(a, class_inverse(a)) != one:
            failures += 1
        if class_mul(a, b) != class_mul(b, a):
            failures += 1
        if class_inverse(class_mul(a, b)) != class_mul(class_inverse(a),
                                                       class_inverse(b)):
            failures += 1
    assert _report("6a 1000 ring multiplication/inversion round trips, zero error",
                   failures == 0, f"failures={failures}")


def test_criterion_6b_weight_rescaling_power_law(cp1, hopf_blowup):
    # Rescaling the field X -> cX scales trace_L and the normal weights by c
    # and fixes the Chern degrees. Per component of dim d in ambient dim n,
    # the t^k coefficient of the numerator (trace + c1 t)^(n+1) scales by
    # c^(n+1-k), that of the inverted denominator prod_j (w_j + deg_j t)^-1
    # by c^(-(n-d)-k), and the paired t^d coefficient, whose terms pair t^i
    # with t^(d-i), by c^((n+1) - (n-d) - d) = c.
    # So the residue sum is degree-one homogeneous: sum(cX) = c sum(X), as
    # f is linear in X. All checks are exact rational equalities.
    datasets = (cp1.fixed_points["z-ddz"], hopf_blowup.fixed_points["x1"],
                registry_get("blcp2").fixed_points["z1-ddz1"])
    assert any(localization_sum(data) != 0 for data in datasets)
    mismatches = []
    for data in datasets:
        n = data.manifold_dim
        base = localization_sum(data)
        for c in (Fraction(2), Fraction(-1), Fraction(1, 3)):
            rescaled = rescale_field(data, c)
            scaled = localization_sum(rescaled)
            if scaled != c * base:
                mismatches.append(f"{data.label}: c={c}: sum {scaled} != {c * base}")
            for z, cz in zip(data.components, rescaled.components):
                num, inv, value = component_contribution_parts(z, n)
                num_c, inv_c, value_c = component_contribution_parts(cz, n)
                expected = (
                    [c ** (n + 1 - k) * a for k, a in enumerate(num.coeffs)],
                    [c ** (-(n - z.dim) - k) * b for k, b in enumerate(inv.coeffs)],
                    c * value)
                if (list(num_c.coeffs), list(inv_c.coeffs), value_c) != expected:
                    mismatches.append(f"{data.label}: {z.name}: c={c}")
    _report("6b weight rescaling law sum(cX) = c sum(X), per component numerator "
            "t^k ~ c^(n+1-k), inverse t^k ~ c^(-(n-d)-k), value ~ c, "
            "for c in {2,-1,1/3}",
            not mismatches, "; ".join(mismatches))
    assert not mismatches, (
        "the residue sum and its per-component parts break the degree-one "
        "rescaling law: " + "; ".join(mismatches))
