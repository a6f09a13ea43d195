"""One benchmark process: set up, run passes of one workload, print JSON.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's ``src``. With ``--setup-only`` it only measures set-up (import
``holoinv.cli`` and ``registry_get`` the workload's bundles).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from tracer import Tracer
from workloads import WORKLOADS

MIN_PASSES = 3
MAX_REPORTED_FAILURES = 20

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "bench.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "registry.build_s": ("s", "lower"),
    "registry.get_s": ("s", "lower"),
    "invariant.self_s": ("s", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "quadrature.nodes": ("count", "lower"),
    "quadrature.density_calls": ("count", "lower"),
    "eval.log_density_s": ("s", "lower"),
    "eval.log_density.points": ("count", "lower"),
    "eval.log_density.per_node": ("count", "lower"),
    "eval.field_s": ("s", "lower"),
    "eval.field.points": ("count", "lower"),
    "eval.exact_ricci_s": ("s", "lower"),
    "eval.exact_ricci.points": ("count", "lower"),
    "calculus.mixed_hessian_s": ("s", "lower"),
    "calculus.mixed_hessian.calls": ("count", "lower"),
    "calculus.holomorphic_derivative_s": ("s", "lower"),
    "calculus.divergence_s": ("s", "lower"),
    "calculus.ricci_top_s": ("s", "lower"),
    "calculus.det_s": ("s", "lower"),
    "calculus.det.points": ("count", "lower"),
    "localization.parse_s": ("s", "lower"),
    "localization.sum_s": ("s", "lower"),
    "localization.rescale_s": ("s", "lower"),
    "localization.components": ("count", "lower"),
    "localization.rejected": ("count", "higher"),
    "localization.untyped_rejects": ("count", "lower"),
    "trace.sweep_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.missing_hooks": ("count", "lower"),
}

EVAL_COUNTS = ("eval.log_density.points", "eval.field.points",
               "eval.exact_ricci.points", "localization.components")


def evaluations(counts) -> int:
    """Point evaluations of registry callables plus residues of zero-set components."""
    return sum(counts[key] for key in EVAL_COUNTS)


def setup(workload):
    """Import the CLI and build the workload's bundles; (import_s, build_s)."""
    started = time.perf_counter()
    import holoinv.cli  # noqa: F401  (the import users pay for)
    from holoinv import registry_get
    imported = time.perf_counter()
    for name in workload.bundles:
        registry_get(name)
    built = time.perf_counter()
    return imported - started, built - imported


@dataclass
class PassResult:
    seconds: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    rejected: dict = field(default_factory=lambda: {"typed": 0, "untyped": 0})


def run_pass(jobs, tracer=None) -> PassResult:
    """One pass through `jobs`; with a tracer, under a root span "pass"."""
    result = PassResult()

    def body():
        for job in jobs:
            outcome = job.run()
            result.attempted += 1
            if not outcome.ok:
                result.failures.append(f"{job.label}: {outcome.reason}")
            if outcome.rejected:
                result.rejected[outcome.rejected] += 1

    if tracer is not None:
        tracer.reset()
        body = tracer.wrap(body, "pass")
    started = time.perf_counter()
    body()
    result.seconds = time.perf_counter() - started
    return result


def measure(jobs, seconds, tracer=None, on_pass=None):
    """Passes until the next one would overrun `seconds` (at least MIN_PASSES)."""
    passes = []
    started = time.perf_counter()
    while True:
        if tracer is not None:
            with tracer:
                result = run_pass(jobs, tracer)
        else:
            result = run_pass(jobs)
        passes.append(result)
        if on_pass is not None:
            on_pass(result)
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + result.seconds > seconds:
            return passes


def layer_metrics(tracer, result: PassResult) -> dict:
    """Per-layer values of one traced pass."""
    counts, times = tracer.counts, tracer.self_times()
    values = {}
    for name, (unit, _) in PER_LAYER.items():
        if unit == "s":
            values[name] = times.get(name, 0.0)
        else:
            values[name] = counts.get(name, 0)
    nodes = counts["quadrature.nodes"]
    values["eval.log_density.per_node"] = (
        counts["eval.log_density.points"] / nodes if nodes else 0.0)
    values["localization.rejected"] = result.rejected["typed"]
    values["localization.untyped_rejects"] = result.rejected["untyped"]
    values["trace.missing_hooks"] = len(set(tracer.missing))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import_s, build_s = setup(workload)
    import holoinv
    source = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(holoinv.__file__).startswith(source + os.sep):
        print(f"perfbench: holoinv imported from {holoinv.__file__}, "
              f"not from {source}", file=sys.stderr)
        return 3
    out = {"import_s": import_s, "build_s": build_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import numpy
    out["numpy"] = numpy.__version__
    jobs = workload.jobs(args.seed)
    attempted, failed, failures = 0, 0, []

    def tally(result):
        nonlocal attempted, failed
        attempted += result.attempted
        failed += len(result.failures)
        failures.extend(result.failures[:MAX_REPORTED_FAILURES - len(failures)])

    # first pass: warm-up, and the exact evaluation count (counts only)
    counter = Tracer(record_spans=False)
    with counter:
        tally(run_pass(jobs, counter))
    out["evals_per_sweep"] = evaluations(counter.counts)

    if args.trace:
        half = args.seconds / 2.0
        plain = measure(jobs, half, on_pass=tally)
        tracer = Tracer()
        fastest = None

        def keep_fastest(result):
            nonlocal fastest
            tally(result)
            if fastest is None or result.seconds < fastest[0].seconds:
                fastest = result, layer_metrics(tracer, result)

        measure(jobs, half, tracer, on_pass=keep_fastest)
        traced, values = fastest
        values["trace.sweep_s"] = traced.seconds
        values["trace.overhead_frac"] = traced.seconds / min(p.seconds for p in plain) - 1.0
        out["per_layer"] = values
    else:
        timed = [p.seconds for p in measure(jobs, args.seconds, on_pass=tally)]
        out["sweep_s"] = min(timed)
        out["passes"] = {"count": len(timed), "median_s": statistics.median(timed)}
        if len(timed) >= 100:
            out["passes"]["p90_s"] = statistics.quantiles(timed, n=10)[-1]

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["attempted"] = attempted
    out["failed"] = failed
    out["failures"] = failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
