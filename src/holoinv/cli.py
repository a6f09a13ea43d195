"""Command-line front end: list examples, compute invariants, run check suites.

Reports go to stdout (JSON with --json), logs to stderr. Exit codes:
0 success / suite passed, 1 suite failed, 2 usage or input-data error,
141 (128 + SIGPIPE) stdout closed before the report was written, as in
`holoinv ... --json | head`; nothing is printed to stderr then.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, calculus, geometry, localization
from .errors import HoloinvError, NonsingularityError
from .invariant import (
    NORMALIZATION,
    ROUTE_DENSITIES,
    deformation_invariant_curve,
    invariant_alternative,
    invariant_direct,
)
from .quadrature import QuadratureSpec
from .registry import registry_get, registry_names

log = logging.getLogger("holoinv")
_LOG_HANDLER = logging.StreamHandler()
_LOG_HANDLER.setFormatter(logging.Formatter("%(name)s: %(message)s"))


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
        return json.dumps(vars(self), indent=2, sort_keys=True, allow_nan=False)


def _result_row(label, value, method, **extra):
    value = complex(value)
    return {
        "label": label,
        "value_re": float(value.real),
        "value_im": float(value.imag),
        "method": method,
        **extra,
    }


def _exact_text(q) -> str:
    """An exact rational as text: decimal where Python can write it (its
    integer-string limit is 4,300 digits), otherwise hexadecimal `0x.../0x...`,
    which has no such limit and reads back with int(part, 16)."""
    try:
        return str(q)
    except ValueError:
        return f"{q.numerator:#x}/{q.denominator:#x}"


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
            "suites": sorted(bundle.suites),
            "fixed_points": {fld: localization.fixed_point_data_to_dict(data)
                             for fld, data in bundle.fixed_points.items()},
            "notes": bundle.notes,
        }
        report.results.append(entry)
        carried = ", ".join(sorted(bundle.fixed_points))
        if bundle.manifold is None:
            lines.append(f"{name} (localization only): fixed-point data for {carried}")
        else:
            tail = f"; fixed-point data for {carried}" if carried else ""
            lines.append(f"{name}: volumes [{', '.join(sorted(bundle.volumes))}]; "
                         f"fields [{', '.join(sorted(bundle.fields))}]; "
                         f"suites [{', '.join(sorted(bundle.suites))}]{tail}")
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
        refinement_levels=base.refinement_levels if args.refine is None else args.refine,
    )


def cmd_invariant(args) -> tuple[Report, int]:
    bundle = _bundle(args.example)
    report = Report(command="invariant", inputs={
        "example": args.example, "volume": args.volume, "field": args.field,
        "method": args.method, "refine": args.refine, "points": args.points,
        "fixed_point_file": args.fixed_point_file,
    })

    if args.method == "localization":
        if args.fixed_point_file:
            data = localization.load_fixed_point_data(args.fixed_point_file)
            label = data.label
        else:
            if not bundle.fixed_points:
                carriers = [name for name in registry_names()
                            if registry_get(name).fixed_points]
                raise UsageError(
                    f"example '{args.example}' carries no fixed-point data "
                    f"(hint: pass --fixed-point-file or choose {' / '.join(carriers)})")
            name = args.field
            if name is None and len(bundle.fixed_points) == 1:
                (name,) = bundle.fixed_points
            data = _pick(bundle.fixed_points, name, "field", args.example)
            label = f"{args.example}:{name}"
        total = localization.localization_sum(data)
        residue_sum = _exact_text(total)
        value = localization._invariant_from_sum(data, total)
        report.results.append(_result_row(
            label, value, "localization", error_estimate=0.0,
            exact_residue_sum=residue_sum))
        if not args.json:
            print(f"{label}: residue sum = {residue_sum} (exact); f = {value!r}")
        return report, 0

    if args.fixed_point_file:
        raise UsageError("--fixed-point-file only applies to --method localization")
    manifold = _need_manifold(bundle)
    vol = _pick(bundle.volumes, args.volume, "volume", args.example)
    fld = _pick(bundle.fields, args.field, "field", args.example)
    q = _quadrature_for(bundle, args)
    compute = invariant_direct if args.method == "direct" else invariant_alternative
    started = time.perf_counter()
    result = compute(manifold, vol, fld, q=q)
    elapsed = time.perf_counter() - started
    log.info("%s invariant on %s took %.2fs", args.method, args.example, elapsed)
    label = f"{args.example}:{args.volume}:{args.field}"
    report.results.append(_result_row(
        label, result.value, args.method, error_estimate=float(result.error_estimate)))
    if not args.json:
        print(f"{label} ({args.method}): f = {result.value:.6e} "
              f"+/- {result.error_estimate:.2e}")
    return report, 0


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


def _check_row(label, value, bound, error=0.0, passed=None):
    """One check row; unless `passed` is given, it passes when
    |value| + error <= bound."""
    if passed is None:
        passed = abs(complex(value)) + error <= bound
    return _result_row(label, value, "check", bound=float(bound), error=float(error),
                       passed=bool(passed))


def _report_rows(label, residuals, bound):
    """The check row of a verifier's worst residual; none if it measured nothing."""
    return [_check_row(label, max(residuals.values()), bound)] if residuals else []


def _membership_rows(kind, specs, verify, verify_transitions, m, p, samples, seed):
    rows = []
    for name in sorted(specs):
        rows += _report_rows(f"{kind}:{name}", verify(specs[name], m, samples, seed=seed),
                             p["bound"])
        rows += _report_rows(f"transitions:{name}",
                             verify_transitions(specs[name], m, samples, seed=seed),
                             p["transitions_bound"])
    return rows


def _suite_automorphy(bundle, p, samples, seed, q):
    deck = geometry.deck_group_report(bundle.manifold, samples, seed=seed)
    return [*_report_rows("deck-group", deck, p["bound"]),
            *_membership_rows("automorphy", bundle.volumes, geometry.verify_automorphic,
                              geometry.verify_volume_transitions, bundle.manifold, p,
                              samples, seed)]


def _suite_invariance(bundle, p, samples, seed, q):
    m = bundle.manifold
    rows = _membership_rows("invariance", bundle.fields, geometry.verify_invariant_field,
                            geometry.verify_field_transitions, m, p, samples, seed)
    # an invariant axis gets one quadrature node and a band-limited axis q's
    # p staggered nodes at every level, so every route's density times the
    # measure must be constant along the first and have offset-free grid
    # means along the second: one row per volume, field and route. Where no
    # piece declares such an axis geometry measures nothing, so there is no
    # row and the suite needs no axis_bound
    for vol_name in sorted(bundle.volumes):
        for field_name in sorted(bundle.fields):
            vol, x = bundle.volumes[vol_name], bundle.fields[field_name]
            for route, density_for in ROUTE_DENSITIES.items():
                rep = geometry.verify_invariant_axes(
                    lambda chart_id: density_for(vol.log_density[chart_id],
                                                 x.components[chart_id]),
                    m, q, samples, seed=seed)
                rows += _report_rows(f"axis:{vol_name}:{field_name}:{route}", rep,
                                     p.get("axis_bound"))
    return rows


def _suite_deformation(bundle, p, samples, seed, q):
    vol0, vol1 = (bundle.volumes[name] for name in p["volumes"])
    rows = []
    for name in p["fields"]:
        curve = deformation_invariant_curve(bundle.manifold, vol0, vol1,
                                            bundle.fields[name], p["t_grid"], q=q)
        values = [r.value for _, r in curve]
        spread = max(abs(a - b) for a in values for b in values)
        # a difference f(s) - f(t) carries both bars: bound it by the two largest
        error = sum(sorted(r.error_estimate for _, r in curve)[-2:])
        rows.append(_check_row(f"deformation:{name}", spread, p["bound"], error))
    return rows


def _suite_vaisman(bundle, p, samples, seed, q):
    m = bundle.manifold
    vol = bundle.volumes[p["volume"]]
    max_det = 0.0
    for chart, dom in m.fundamental_domain.items():
        pts = geometry.sample_domain_points(dom, 10_000, seed)
        top = calculus.ricci_top_field(vol.log_density[chart], pts)
        max_det = max(max_det, float(np.max(np.abs(top))) / math.factorial(m.dimension))
    rows = [_check_row("vaisman:max|det R|", max_det, p["det_bound"])]
    for vol_name, bound in ((p["volume"], p["bound"]),
                            (p["perturbed"], p["perturbed_bound"])):
        for name in p["fields"]:
            res = invariant_direct(m, bundle.volumes[vol_name], bundle.fields[name], q=q)
            rows.append(_check_row(f"vaisman:f:{vol_name}:{name}", res.value, bound,
                                   res.error_estimate))
    return rows


def _suite_convergence(bundle, p, samples, seed, q):
    rng = np.random.default_rng(seed)
    shape = (100, bundle.manifold.dimension)
    pts = rng.uniform(-2, 2, shape) + 1j * rng.uniform(-2, 2, shape)
    vol = bundle.volumes[p["volume"]]
    chart = next(iter(bundle.manifold.fundamental_domain))
    logd = vol.log_density[chart]
    exact = vol.exact_ricci[chart](pts)

    def mismatch(h):
        numeric = calculus.ricci_from_log_density(logd, pts, h)
        return float(np.max(np.abs(numeric - exact)))

    errors = [mismatch(h) for h in (0.04, 0.02, 0.01)]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    observed = float(min(orders))
    floor = p["order_floor"]
    return [_check_row("convergence:match@1e-3", mismatch(calculus.DEFAULT_STEP),
                       p["bound"]),
            _check_row("convergence:order", observed, floor, passed=observed >= floor)]


_SUITES = {
    "automorphy": _suite_automorphy,
    "invariance": _suite_invariance,
    "deformation": _suite_deformation,
    "vaisman": _suite_vaisman,
    "convergence": _suite_convergence,
}


def run_suite(bundle, name, *, samples, seed, q):
    """Run the check suite `name` as `bundle` declares it; return (rows, passed).

    The bounds the bundle declares for the suite are the only bounds: no
    caller overrides them. A suite the bundle does not declare raises
    UsageError.
    """
    params = _pick(bundle.suites, name, "suite", bundle.name)
    rows = _SUITES[name](bundle, params, samples, seed, q)
    return rows, all(row["passed"] for row in rows)


def cmd_check(args) -> tuple[Report, int]:
    bundle = _bundle(args.example)
    report = Report(command="check", inputs={
        "example": args.example, "suite": args.suite, "samples": args.samples,
        "seed": args.seed,
    })
    # localization-only examples have no quadrature and declare no suite
    q = None if bundle.default_quadrature is None else _quadrature_for(bundle, args)
    rows, ok = run_suite(bundle, args.suite, samples=args.samples, seed=args.seed, q=q)
    report.results.extend(rows)
    if not args.json:
        for row in rows:
            status = "pass" if row["passed"] else "FAIL"
            print(f"[{status}] {row['label']}: {row['value_re']:.3e} "
                  f"(bound {row['bound']:.3e}, error {row['error']:.3e})")
        print(f"suite {args.suite} on {args.example}: "
              f"{'pass' if ok else 'FAIL'}")
    return report, 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_POINTS_HELP = ("quadrature points per axis, one count that replaces every axis's "
                "default count, so on cp1 it sets mu and theta to it and on hopf u "
                "and both angles: per panel on a Gauss axis, at level 1 on a "
                "periodic axis, at every level on a band-limited axis, at least 2 on "
                "each of these; an invariant axis ignores it")


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
    p_inv.add_argument("--points", type=int, help=_POINTS_HELP)
    p_inv.add_argument("--fixed-point-file",
                       help="JSON fixed-point data (localization only)")
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(handler=cmd_invariant)

    p_chk = sub.add_parser("check", help="run a property suite")
    p_chk.add_argument("--example", required=True)
    p_chk.add_argument("--suite", required=True,
                       help="a suite the example declares (see `holoinv list`)")
    p_chk.add_argument("--samples", type=int, default=geometry.DEFAULT_SAMPLES,
                       help=("points sampled by the automorphy and invariance "
                             f"suites, at most {geometry.MAX_SAMPLES:,}; vaisman "
                             "samples a fixed 10,000 points, convergence 100, "
                             "and deformation none"))
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--refine", type=int, dest="refine", default=None)
    p_chk.add_argument("--points", type=int, dest="points", default=None,
                       help=_POINTS_HELP)
    p_chk.add_argument("--json", action="store_true")
    p_chk.set_defaults(handler=cmd_check)
    return parser


# built once per process: parse_args returns a fresh Namespace on every call
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return exc.code
    # the package logger, not the root logger of a program that embeds the
    # CLI, set on every call; the stream is assigned, not setStream, which
    # flushes the old stream even when it is closed (emit flushes each record)
    _LOG_HANDLER.stream = sys.stderr
    if _LOG_HANDLER not in log.handlers:
        log.addHandler(_LOG_HANDLER)
        log.propagate = False
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    if getattr(args, "refine", None) is not None and args.refine < 2:
        print("holoinv: --refine must be at least 2", file=sys.stderr)
        return 2
    if getattr(args, "seed", 0) < 0:
        print("holoinv: --seed must be a non-negative integer", file=sys.stderr)
        return 2
    try:
        report, code = args.handler(args)
        if args.json:
            print(report.to_json())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; further writes, including the interpreter's
        # final flush, go to the null device instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (UsageError, NonsingularityError) as exc:
        print(f"holoinv: {exc}", file=sys.stderr)
        return 2
    except (HoloinvError, ValueError, OSError) as exc:
        print(f"holoinv: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
