"""Benchmark of holoinv: time and evaluations to a stated accuracy.

Run from the repository root:

    python3 perfbench/run.py --workload hopf-stencil --seed 1 --seconds 15 --trace 0

Every workload runs in fresh child processes started from this one, with
one BLAS/OpenMP thread each and one child at a time. Set-up is measured in
several fresh processes and reported as the median. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it records the environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402  (needs HERE on the path)
from worker import PER_LAYER  # noqa: E402

SETUP_SAMPLES = 5        # fresh processes whose set-up time is measured
RUN_DEADLINE_S = 170.0   # whole run, children included

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "evals_per_sweep": "count",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, env, deadline) -> dict:
    """Run worker.py with `args`; its last stdout line is a JSON object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {args} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def git_revision(root: str):
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def bench(args, root: str) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env(root)
    base = ["--workload", args.workload]
    setups = [run_child(base + ["--setup-only"], env, deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    work = run_child(base + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], env, deadline)
    setups.append(work)

    print(json.dumps({"environment": {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": 1,
        "python": platform.python_version(),
        "numpy": work["numpy"],
        "git_revision": git_revision(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": work.get("passes"),
        "failures": work["failures"],
    }}))

    if args.trace:
        values = dict(work["per_layer"])
        values["registry.build_s"] = statistics.median(s["build_s"] for s in setups)
        metrics = {name: metric(values[name], unit) for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setups),
            "sweep_s": work["sweep_s"],
            "evals_per_sweep": work["evals_per_sweep"],
            "peak_rss_mb": work["peak_rss_mb"],
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    failed = work["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": work["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "holoinv", "cli.py")):
        print("perfbench: no src/holoinv in the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    try:
        return bench(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
