"""Tests of the benchmark itself, in a fast mode (about half a minute).

    python3 -m pytest -q perfbench/selftest.py

They run short benchmark runs and single traced passes, not the timed
workloads, so they say nothing about performance.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracer_module  # noqa: E402
import worker  # noqa: E402
from workloads import (  # noqa: E402
    ANCHORS,
    RESIDUE_BATCH,
    RESIDUE_MALFORMED,
    TARGET_CP1,
    WORKLOADS,
    CliJob,
    ResidueJob,
    residue_jobs,
    residue_reference,
)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _traced_pass(jobs):
    tracer = tracer_module.Tracer()
    with tracer:
        result = worker.run_pass(jobs, tracer)
    return tracer, result


def _jobs(workload, *words):
    jobs = [j for j in WORKLOADS[workload].jobs(0) if all(w in j.argv for w in words)]
    assert jobs, words
    return jobs[:1]


def test_workloads_match_spec(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload, trace, key", [
    ("cp1-sweep", 0, "end_to_end"),
    ("cp1-sweep", 1, "per_layer"),
    ("residue", 1, "per_layer"),
])
def test_every_metric_is_emitted(spec, workload, trace, key):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cp1-sweep", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_counts_repeat_exactly_across_passes():
    jobs = _jobs("hopf-stencil", "x1")
    first, second = (worker.layer_metrics(*_traced_pass(jobs)) for _ in range(2))
    for key in ("quadrature.nodes", "eval.log_density.points",
                "eval.log_density.per_node", "eval.field.points"):
        assert first[key] == second[key], key
    assert first["quadrature.nodes"] == 69_632
    assert first["eval.log_density.per_node"] == 272


def test_untraced_evaluation_count_matches_traced():
    jobs = _jobs("cp1-sweep", "fs-bump", "alt")
    counter = tracer_module.Tracer(record_spans=False)
    with counter:
        worker.run_pass(jobs, counter)
    traced, _ = _traced_pass(jobs)
    assert worker.evaluations(counter.counts) == worker.evaluations(traced.counts) > 0


def test_exact_ricci_bypasses_the_hessian_stencil():
    tracer, result = _traced_pass(_jobs("hopf-exact", "r4", "alt"))
    values = worker.layer_metrics(tracer, result)
    assert not result.failures
    assert values["calculus.mixed_hessian.calls"] == 0
    assert values["calculus.det.points"] > 0


def test_self_times_add_up_to_the_pass():
    tracer, result = _traced_pass(WORKLOADS["cp1-sweep"].jobs(0))
    total = sum(tracer.self_times().values())
    assert 0.98 * result.seconds <= total <= result.seconds


def test_tracer_restores_the_program():
    import holoinv.calculus
    import numpy

    originals = holoinv.calculus.mixed_hessian, numpy.linalg.det
    with tracer_module.Tracer():
        assert holoinv.calculus.mixed_hessian is not originals[0]
    assert (holoinv.calculus.mixed_hessian, numpy.linalg.det) == originals


def test_missing_hook_is_dropped_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(tracer_module, "HOOKS", tracer_module.HOOKS + (
        ("holoinv.calculus", "renamed_away", "calculus.mixed_hessian", None, None),))
    tracer, result = _traced_pass(_jobs("cp1-sweep", "fs", "direct"))
    assert not result.failures
    values = worker.layer_metrics(tracer, result)
    assert values["trace.missing_hooks"] == 1
    assert values["calculus.det.points"] > 0


def test_wrong_reference_is_a_failure():
    argv = ("invariant", "--example", "cp1", "--volume", "fs", "--field", "z-ddz",
            "--method", "direct")
    good = CliJob(argv, TARGET_CP1)
    beyond_target = CliJob(argv, TARGET_CP1, reference=1.0)
    # within the target, but farther than the job's own error bar (2e-7)
    beyond_error_bar = CliJob(argv, TARGET_CP1, reference=5e-6)
    result = worker.run_pass([good, beyond_target, beyond_error_bar])
    assert result.attempted == 3
    assert len(result.failures) == 2

    payload, reference = ANCHORS[0]
    wrong = ResidueJob(payload, reference + 1, scale=Fraction(3))
    assert worker.run_pass([wrong]).failures


def test_residue_references_and_batch_shape():
    assert [residue_reference(p) for p, _ in ANCHORS] == [r for _, r in ANCHORS]
    batch = residue_jobs(7)
    assert len(batch) == RESIDUE_BATCH
    assert sum(job.reference is None for job in batch) == RESIDUE_MALFORMED
    assert [j.payload for j in batch] == [j.payload for j in residue_jobs(7)]
    assert [j.payload for j in batch] != [j.payload for j in residue_jobs(8)]
    result = worker.run_pass(batch)
    assert result.failures == []
    assert sum(result.rejected.values()) == RESIDUE_MALFORMED
