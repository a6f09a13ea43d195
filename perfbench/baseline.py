"""Single-job baselines: wall time, evaluations per node and layer shares.

    python3 perfbench/baseline.py

Runs each baseline job once untraced (after a warm-up) and once traced, in
this process, and prints its time, log-density evaluations per quadrature
node and the three largest self-time shares of the traced run.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer  # noqa: E402
from worker import layer_metrics, run_pass  # noqa: E402
from workloads import CliJob  # noqa: E402

BASELINES = (
    ("hopf", "r4-bump", "x1", "direct"),
    ("hopf", "r4", "x1", "alt"),
)


def main():
    for example, volume, field, method in BASELINES:
        job = CliJob(("invariant", "--example", example, "--volume", volume,
                      "--field", field, "--method", method), target=1.0)
        run_pass([job])
        started = time.perf_counter()
        plain = run_pass([job])
        wall = time.perf_counter() - started
        tracer = Tracer()
        with tracer:
            traced = run_pass([job], tracer)
        values = layer_metrics(tracer, traced)
        shares = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:3]
        print(f"{job.label}: {wall:.3f} s untraced, {traced.seconds:.3f} s traced, "
              f"{values['quadrature.nodes']} nodes, "
              f"{values['eval.log_density.per_node']:g} log-density evaluations/node, "
              f"failures {plain.failures or 'none'}")
        print("  largest self-time shares: " + ", ".join(
            f"{name} {seconds / traced.seconds:.0%}" for name, seconds in shares))


if __name__ == "__main__":
    main()
