"""Command-line front end: list examples, compute invariants, run check suites.

Reports go to stdout (JSON with --json), logs to stderr. Exit codes:
0 success / suite passed, 1 suite failed, 2 usage or input-data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, calculus, geometry, localization
from .calculus import DifferentiationScheme
from .errors import HoloinvError, NonsingularityError
from .invariant import (
    NORMALIZATION,
    deformation_invariant_curve,
    invariant_alternative,
    invariant_direct,
)
from .quadrature import QuadratureSpec
from .registry import registry_get, registry_names

log = logging.getLogger("holoinv")

# suite tolerances mirror the acceptance gates; all overridable via --tol
SUITE_TOLS = {
    "automorphy": 1e-8,
    "invariance": 1e-8,
    "vaisman_det": 1e-8,
    "vaisman_f": 1e-6,
    "vaisman_f_perturbed": 1e-5,
    "deformation_hopf": 1e-6,
    "ricci_match": 1e-7,
    "order_min": 3.5,
}


class UsageError(Exception):
    pass


@dataclass
class Report:
    command: str
    inputs: dict
    results: list = field(default_factory=list)
    environment: dict = field(default_factory=lambda: {
        "version": __version__,
        "normalization": NORMALIZATION,
    })

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _result_row(label, value, error_estimate, method, **extra):
    value = complex(value)
    row = {
        "label": label,
        "value_re": float(value.real),
        "value_im": float(value.imag),
        "error_estimate": float(error_estimate),
        "method": method,
    }
    row.update(extra)
    return row


def _bundle(name):
    try:
        return registry_get(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _need_manifold(bundle):
    if bundle.manifold is None:
        raise UsageError(
            f"example '{bundle.name}' has no chart atlas; only "
            "--method localization applies (hint: try --method localization)")
    return bundle.manifold


def _pick(mapping, name, kind, bundle_name):
    if name is None:
        raise UsageError(f"--{kind} is required for this command "
                         f"(available: {', '.join(sorted(mapping)) or 'none'})")
    try:
        return mapping[name]
    except KeyError:
        available = ", ".join(sorted(mapping)) or "none"
        raise UsageError(f"unknown {kind} '{name}' on example '{bundle_name}' "
                         f"(available: {available})") from None


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def cmd_list(args) -> tuple[Report, int]:
    report = Report(command="list", inputs={})
    lines = []
    for name in registry_names():
        bundle = registry_get(name)
        entry = {
            "name": name,
            "localization_only": bundle.manifold is None,
            "volumes": sorted(bundle.volumes),
            "fields": sorted(bundle.fields),
            "has_fixed_point_data": bundle.fixed_point_data is not None,
            "fixed_point_field": bundle.fixed_point_field,
            "notes": bundle.notes,
        }
        if bundle.fixed_point_data is not None:
            entry["fixed_point_data"] = localization.fixed_point_data_to_dict(
                bundle.fixed_point_data)
        report.results.append(entry)
        if bundle.manifold is None:
            lines.append(f"{name} (localization only): fixed-point data for "
                         f"{bundle.fixed_point_field}")
        else:
            tail = (f"; fixed-point data for {bundle.fixed_point_field}"
                    if bundle.fixed_point_data is not None else "")
            lines.append(f"{name}: volumes [{', '.join(sorted(bundle.volumes))}]; "
                         f"fields [{', '.join(sorted(bundle.fields))}]{tail}")
    if not args.json:
        print("\n".join(lines))
    return report, 0


# ---------------------------------------------------------------------------
# invariant
# ---------------------------------------------------------------------------


def _quadrature_for(bundle, args) -> QuadratureSpec:
    base = bundle.default_quadrature
    return QuadratureSpec(
        points_per_axis=base.points_per_axis if args.points is None else args.points,
        rule=base.rule,
        refinement_levels=base.refinement_levels if args.refine is None else args.refine,
    )


def cmd_invariant(args) -> tuple[Report, int]:
    bundle = _bundle(args.example)
    report = Report(command="invariant", inputs={
        "example": args.example, "volume": args.volume, "field": args.field,
        "method": args.method, "refine": args.refine, "points": args.points,
        "step": args.step, "order": args.order,
        "fixed_point_file": args.fixed_point_file,
    })

    if args.method == "localization":
        if args.fixed_point_file:
            data = localization.load_fixed_point_data(args.fixed_point_file)
            label = data.label
        else:
            if bundle.fixed_point_data is None:
                raise UsageError(
                    f"example '{args.example}' carries no fixed-point data "
                    "(hint: pass --fixed-point-file or choose cp1 / hopf-blowup)")
            if args.field is not None and args.field != bundle.fixed_point_field:
                raise UsageError(
                    f"fixed-point data of '{args.example}' describes field "
                    f"'{bundle.fixed_point_field}', not '{args.field}'")
            data = bundle.fixed_point_data
            label = f"{args.example}:{bundle.fixed_point_field}"
        residue_sum = localization.localization_sum(data)
        value = localization.unnormalized_invariant(data)
        report.results.append(_result_row(
            label, value, 0.0, "localization",
            exact_residue_sum=str(residue_sum)))
        if not args.json:
            print(f"{label}: residue sum = {residue_sum} (exact); f = {value!r}")
        return report, 0

    if args.fixed_point_file:
        raise UsageError("--fixed-point-file only applies to --method localization")
    manifold = _need_manifold(bundle)
    vol = _pick(bundle.volumes, args.volume, "volume", args.example)
    fld = _pick(bundle.fields, args.field, "field", args.example)
    scheme = DifferentiationScheme(step=args.step, order=args.order)
    q = _quadrature_for(bundle, args)
    compute = invariant_direct if args.method == "direct" else invariant_alternative
    started = time.perf_counter()
    result = compute(manifold, vol, fld, scheme, q=q)
    elapsed = time.perf_counter() - started
    log.info("%s invariant on %s took %.2fs", args.method, args.example, elapsed)
    label = f"{args.example}:{args.volume}:{args.field}"
    report.results.append(_result_row(
        label, result.value, result.error_estimate, result.method))
    if not args.json:
        print(f"{label} ({result.method}): f = {result.value:.6e} "
              f"+/- {result.error_estimate:.2e}")
    return report, 0


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


def _tol(args, key):
    return SUITE_TOLS[key] if args.tol is None else args.tol


def _suite_automorphy(bundle, args, rows):
    manifold = _need_manifold(bundle)
    tol = _tol(args, "automorphy")
    ok = True
    deck = geometry.deck_group_report(manifold, args.samples, tol, args.seed)
    rows.append(_result_row("deck-group", deck.max_residual, tol, "check",
                            passed=deck.passed))
    ok &= deck.passed
    for name in sorted(bundle.volumes):
        rep = geometry.verify_automorphic(bundle.volumes[name], manifold,
                                          args.samples, tol, args.seed)
        trans = geometry.verify_volume_transitions(bundle.volumes[name], manifold,
                                                   args.samples, seed=args.seed)
        passed = rep.passed and trans.passed
        rows.append(_result_row(f"automorphy:{name}",
                                max(rep.max_residual, trans.max_residual),
                                tol, "check", passed=passed))
        ok &= passed
    return ok


def _suite_invariance(bundle, args, rows):
    manifold = _need_manifold(bundle)
    tol = _tol(args, "invariance")
    ok = True
    for name in sorted(bundle.fields):
        rep = geometry.verify_invariant_field(bundle.fields[name], manifold,
                                              args.samples, tol, args.seed)
        trans = geometry.verify_field_transitions(bundle.fields[name], manifold,
                                                  args.samples, seed=args.seed)
        passed = rep.passed and trans.passed
        rows.append(_result_row(f"invariance:{name}",
                                max(rep.max_residual, trans.max_residual),
                                tol, "check", passed=passed))
        ok &= passed
    return ok


def _suite_deformation(bundle, args, rows):
    manifold = _need_manifold(bundle)
    if len(bundle.volumes) < 2:
        raise UsageError(f"deformation needs at least two volumes on '{bundle.name}'")
    q = _quadrature_for(bundle, args)
    ok = True
    if bundle.name == "cp1":
        curve = deformation_invariant_curve(
            manifold, bundle.volumes["fs"], bundle.volumes["fs-bump"],
            bundle.fields["z-ddz"], (0.0, 0.25, 0.5, 0.75, 1.0), q=q)
        values = [r.value for _, r in curve]
        spread = max(abs(a - b) for a in values for b in values)
        budget = 2.0 * max(r.error_estimate for _, r in curve)
        rows.append(_result_row("deformation:spread", spread, budget, "check",
                                passed=spread <= budget))
        ok &= spread <= budget
    else:
        tol = _tol(args, "deformation_hopf")
        vol0, vol1 = bundle.volumes["r4"], bundle.volumes["lebesgue"]
        for name in sorted(bundle.fields):
            f0 = invariant_direct(manifold, vol0, bundle.fields[name], q=q)
            f1 = invariant_direct(manifold, vol1, bundle.fields[name], q=q)
            gap = abs(f0.value - f1.value)
            rows.append(_result_row(f"deformation:{name}", gap, tol, "check",
                                    passed=gap <= tol))
            ok &= gap <= tol
    return ok


def _suite_vaisman(bundle, args, rows):
    if bundle.name != "hopf":
        raise UsageError("the vaisman suite applies to the hopf example")
    manifold = bundle.manifold
    det_tol = _tol(args, "vaisman_det")
    pts = geometry.sample_domain_points(manifold, 10_000, args.seed)
    ricci = bundle.volumes["r4"].exact_ricci["punctured"](pts)
    max_det = float(np.max(np.abs(np.linalg.det(ricci))))
    rows.append(_result_row("vaisman:max|det R|", max_det, det_tol, "check",
                            passed=max_det <= det_tol))
    ok = max_det <= det_tol
    q = _quadrature_for(bundle, args)
    for vol_name, tol in (("r4", SUITE_TOLS["vaisman_f"]),
                          ("r4-bump", SUITE_TOLS["vaisman_f_perturbed"])):
        for name in sorted(bundle.fields):
            res = invariant_direct(manifold, bundle.volumes[vol_name],
                                   bundle.fields[name], q=q)
            passed = abs(res.value) <= tol
            rows.append(_result_row(f"vaisman:f:{vol_name}:{name}", res.value,
                                    res.error_estimate, "check", passed=passed))
            ok &= passed
    return ok


def _suite_convergence(bundle, args, rows):
    if bundle.name != "cp1":
        raise UsageError("the convergence suite applies to the cp1 example")
    tol = _tol(args, "ricci_match")
    rng = np.random.default_rng(args.seed)
    pts = (rng.uniform(-2, 2, (100, 1)) + 1j * rng.uniform(-2, 2, (100, 1)))
    vol = bundle.volumes["fs"]
    logd = vol.log_density["affine"]
    exact = vol.exact_ricci["affine"](pts)

    scheme = DifferentiationScheme(step=1e-3, order=4)
    numeric = calculus.ricci_from_log_density(logd, pts, scheme)
    mismatch = float(np.max(np.abs(numeric - exact)))
    rows.append(_result_row("convergence:match@1e-3", mismatch, tol, "check",
                            passed=mismatch <= tol))

    errors = []
    for h in (0.04, 0.02, 0.01):
        num = calculus.ricci_from_log_density(
            logd, pts, DifferentiationScheme(step=h, order=4))
        errors.append(float(np.max(np.abs(num - exact))))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    observed = float(min(orders))
    order_ok = observed >= SUITE_TOLS["order_min"]
    rows.append(_result_row("convergence:order", observed,
                            SUITE_TOLS["order_min"], "check", passed=order_ok))
    return mismatch <= tol and order_ok


_SUITES = {
    "automorphy": _suite_automorphy,
    "invariance": _suite_invariance,
    "deformation": _suite_deformation,
    "vaisman": _suite_vaisman,
    "convergence": _suite_convergence,
}


def cmd_check(args) -> tuple[Report, int]:
    bundle = _bundle(args.example)
    report = Report(command="check", inputs={
        "example": args.example, "suite": args.suite, "samples": args.samples,
        "tol": args.tol, "seed": args.seed,
    })
    rows = []
    ok = _SUITES[args.suite](bundle, args, rows)
    report.results.extend(rows)
    if not args.json:
        for row in rows:
            status = "pass" if row.get("passed") else "FAIL"
            print(f"[{status}] {row['label']}: {row['value_re']:.3e} "
                  f"(bound {row['error_estimate']:.3e})")
        print(f"suite {args.suite} on {args.example}: "
              f"{'pass' if ok else 'FAIL'}")
    return report, 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoinv",
        description=("Integral invariants of holomorphic vector fields, by direct "
                     "quadrature and by exact residue localization."))
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_list = sub.add_parser("list", help="list registered examples")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(handler=cmd_list)

    p_inv = sub.add_parser("invariant", help="compute the invariant")
    p_inv.add_argument("--example", required=True)
    p_inv.add_argument("--volume")
    p_inv.add_argument("--field")
    p_inv.add_argument("--method", required=True,
                       choices=("direct", "alt", "localization"))
    p_inv.add_argument("--refine", type=int, help="refinement levels (>= 2)")
    p_inv.add_argument("--points", type=int, help="quadrature points per axis")
    p_inv.add_argument("--step", type=float, default=1e-3,
                       help="finite-difference step in chart units")
    p_inv.add_argument("--order", type=int, default=4, choices=(2, 4))
    p_inv.add_argument("--fixed-point-file",
                       help="JSON fixed-point data (localization only)")
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(handler=cmd_invariant)

    p_chk = sub.add_parser("check", help="run a property suite")
    p_chk.add_argument("--example", required=True)
    p_chk.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p_chk.add_argument("--samples", type=int, default=geometry.DEFAULT_SAMPLES)
    p_chk.add_argument("--tol", type=float, help="override the suite tolerance")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--refine", type=int, dest="refine", default=None)
    p_chk.add_argument("--points", type=int, dest="points", default=None)
    p_chk.add_argument("--json", action="store_true")
    p_chk.set_defaults(handler=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(name)s: %(message)s")
    if getattr(args, "refine", None) is not None and args.refine < 2:
        print("holoinv: --refine must be at least 2", file=sys.stderr)
        return 2
    if getattr(args, "tol", None) is not None and not args.tol > 0:
        print("holoinv: --tol must be positive", file=sys.stderr)
        return 2
    try:
        report, code = args.handler(args)
    except UsageError as exc:
        print(f"holoinv: {exc}", file=sys.stderr)
        return 2
    except NonsingularityError as exc:
        print(f"holoinv: {exc}", file=sys.stderr)
        return 2
    except (HoloinvError, ValueError, OSError) as exc:
        print(f"holoinv: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    return code


if __name__ == "__main__":
    sys.exit(main())
