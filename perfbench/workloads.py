"""Workloads of the benchmark: job lists, reference values and accuracy rules.

A *job* is one call into the program; a *pass* is one run through a
workload's job list. The seed fixes the inputs: it orders the jobs of the
quadrature workloads and draws the fixed-point payloads of the residue
workload. Every seed gives the same amount of work, so runs with different
seeds are comparable.

Failure rule. A quadrature job (one ``holoinv.cli.main([..., "--json"])``
call) is done only if it

* returns exit code 0 without raising,
* reports a value within the workload's accuracy target of the reference,
* reports an ``error_estimate`` no larger than the target, and
* misses the reference by no more than its own ``error_estimate`` plus
  ``ROUNDING_FLOOR``, so an error bar that does not bound the error fails.

A check-suite job is done if it returns exit code 0 and every row passed.
A residue job is done if the exact residue sum equals the benchmark's own
reference, ``unnormalized_invariant`` agrees with it to ``FLOAT_RTOL``, and
the sum of the rescaled field cX equals c times the sum of X exactly. A
malformed payload is done if the program rejects it and returns no value.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

# Absolute rounding floor added to a job's own error estimate: quadrature of
# an integrand whose exact value is 0 returns rounding noise near 1e-13.
ROUNDING_FLOOR = 1e-12
FLOAT_RTOL = 1e-12

# Accuracy targets. Seed errors: hopf r4-bump <= 7.1e-5, hopf r4/lebesgue
# <= 9.6e-13, cp1 <= 4.0e-3 (fs-bump, alternative route).
TARGET_HOPF_STENCIL = 1e-4
TARGET_HOPF_EXACT = 1e-11
TARGET_CP1 = 1e-2

RESIDUE_BATCH = 96      # payloads per pass, anchors and malformed included
RESIDUE_MALFORMED = 6   # fixed malformed share: 6 of 96 = 1/16


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    # for malformed payloads: "typed" (ValueError/HoloinvError) or "untyped"
    rejected: Optional[str] = None


@dataclass(frozen=True)
class CliJob:
    """One CLI call with its reference value and accuracy target."""

    argv: tuple
    target: float
    reference: complex = 0j

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    def run(self) -> Outcome:
        from holoinv import cli

        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main([*self.argv, "--json"])
        except SystemExit as exc:
            return Outcome(False, f"exited with {exc.code}")
        except Exception as exc:  # a raising job is a failed job, not a crash
            return Outcome(False, f"raised {type(exc).__name__}: {exc}")
        if code != 0:
            return Outcome(False, f"exit code {code}")
        try:
            rows = json.loads(out.getvalue())["results"]
            reasons = []
            for row in rows:
                reason = self._check_row(row)
                if reason:
                    reasons.append(f"{row['label']}: {reason}")
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(False, f"unreadable report: {type(exc).__name__}: {exc}")
        if not rows:
            return Outcome(False, "no result rows")
        return Outcome(not reasons, "; ".join(reasons))

    def _check_row(self, row) -> str:
        if "passed" in row:
            return "" if row["passed"] else "check row failed"
        value = complex(row["value_re"], row["value_im"])
        error = abs(value - self.reference)
        estimate = row["error_estimate"]
        if not error <= self.target:
            return f"error {error:.3e} above target {self.target:.1e}"
        if not estimate <= self.target:
            return f"error estimate {estimate:.3e} above target {self.target:.1e}"
        if not error <= estimate + ROUNDING_FLOOR:
            return f"error {error:.3e} not bounded by estimate {estimate:.3e}"
        return ""


# ---------------------------------------------------------------------------
# residue payloads
# ---------------------------------------------------------------------------


def residue_reference(payload: dict) -> Fraction:
    """Exact residue sum of a well-formed payload, computed independently.

    A point contributes trace^(n+1) / prod(w). A curve with c = c1(T) +
    sum of normal degrees contributes the t-coefficient of
    (trace + c t)^(n+1) / prod(w_j + d_j t), which is
    ((n+1) trace^n c - trace^(n+1) sum(d_j / w_j)) / prod(w).
    """
    n = payload["manifold_dim"]
    total = Fraction(0)
    for comp in payload["components"]:
        a = Fraction(comp["trace_L"])
        weights = [Fraction(w) for w in comp["normal_weights"]]
        prod = math.prod(weights, start=Fraction(1))
        if comp["dim"] == 0:
            total += a ** (n + 1) / prod
            continue
        degrees = [Fraction(d) for d in comp.get("normal_line_degrees", [])]
        chern = Fraction(comp.get("c1_tangent_deg", 0)) + sum(degrees, Fraction(0))
        drift = sum((d / w for d, w in zip(degrees, weights)), Fraction(0))
        total += ((n + 1) * a ** n * chern - a ** (n + 1) * drift) / prod
    return total


# Shipped examples, written out here so their references (-2 and 4) do not
# depend on the program under test.
ANCHORS = (
    ({"label": "hopf-blowup anchor", "manifold_dim": 2, "components": [
        {"name": "isolated zero", "dim": 0, "trace_L": 0,
         "normal_weights": [1, -1]},
        {"name": "elliptic curve", "dim": 1, "trace_L": 1, "normal_weights": [1],
         "c1_tangent_deg": 0, "normal_line_degrees": [-1]},
    ]}, Fraction(-2)),
    ({"label": "blcp2 anchor", "manifold_dim": 2, "components": [
        {"name": "line", "dim": 1, "trace_L": 1, "normal_weights": [1],
         "c1_tangent_deg": 2, "normal_line_degrees": [1]},
        {"name": "exceptional curve", "dim": 1, "trace_L": -1,
         "normal_weights": [-1], "c1_tangent_deg": 2, "normal_line_degrees": [-1]},
    ]}, Fraction(4)),
)


def _rational(rng: random.Random, nonzero: bool):
    """A small rational in the wire format: an int or a 'p/q' string."""
    while True:
        p, q = rng.randint(-4, 4), rng.randint(1, 3)
        if p or not nonzero:
            break
    return p if q == 1 else f"{p}/{q}"


def _component(rng: random.Random, n: int, dim: int, index: int) -> dict:
    comp = {
        "name": f"component {index}",
        "dim": dim,
        "trace_L": _rational(rng, nonzero=False),
        "normal_weights": [_rational(rng, nonzero=True) for _ in range(n - dim)],
    }
    if dim == 1:
        comp["c1_tangent_deg"] = rng.randint(-2, 2)
        comp["normal_line_degrees"] = [rng.randint(-2, 2) for _ in range(n - 1)]
    return comp


def _break(payload: dict, kind: int) -> dict:
    """Make the payload malformed: a component without name, or not an object."""
    if kind % 2 == 0:
        del payload["components"][0]["name"]
    else:
        payload["components"][0] = ["not", "an", "object"]
    return payload


def residue_jobs(seed: int):
    """Seeded batch of residue jobs; malformed payloads have reference None.

    The shape of the batch (manifold dimensions, component dimensions and
    counts, which entries are malformed) is the same for every seed; the
    seed draws the rational entries, the scale factors and the order.
    """
    rng = random.Random(seed)
    batch = list(ANCHORS)
    generated = RESIDUE_BATCH - len(ANCHORS)
    for k in range(generated):
        n = 1 + k % 6
        count = 1 + (k // 6) % 3
        comps = [_component(rng, n, (k + j) % 2, j) for j in range(count)]
        payload = {"label": f"generated {k}", "manifold_dim": n, "components": comps}
        if k < RESIDUE_MALFORMED:
            batch.append((_break(payload, k), None))
        else:
            batch.append((payload, residue_reference(payload)))
    jobs = [ResidueJob(payload, ref, Fraction(_rational(rng, nonzero=True)))
            for payload, ref in batch]
    rng.shuffle(jobs)
    return jobs


@dataclass(frozen=True)
class ResidueJob:
    """One fixed-point payload through parse, residue sum and rescaling."""

    payload: dict
    reference: Optional[Fraction]
    scale: Fraction

    @property
    def label(self) -> str:
        return str(self.payload.get("label", "?"))

    def run(self) -> Outcome:
        from holoinv import localization as loc
        from holoinv.errors import HoloinvError

        if self.reference is None:
            try:
                loc.fixed_point_data_from_dict(self.payload)
            except (ValueError, HoloinvError):
                return Outcome(True, rejected="typed")
            except Exception as exc:  # rejected, but not with a typed error
                return Outcome(True, f"untyped {type(exc).__name__}", rejected="untyped")
            return Outcome(False, "malformed payload accepted")
        try:
            data = loc.fixed_point_data_from_dict(self.payload)
            total = loc.localization_sum(data)
            value = loc.unnormalized_invariant(data)
            scaled = loc.localization_sum(loc.rescale_field(data, self.scale))
        except Exception as exc:  # a raising job is a failed job, not a crash
            return Outcome(False, f"raised {type(exc).__name__}: {exc}")
        if total != self.reference:
            return Outcome(False, f"sum {total} != reference {self.reference}")
        n = data.manifold_dim
        expected = float(self.reference) * (2.0 * math.pi) ** n / (n + 1)
        if not math.isclose(value, expected, rel_tol=FLOAT_RTOL, abs_tol=1e-300):
            return Outcome(False, f"f = {value!r}, expected {expected!r}")
        if scaled != self.scale * self.reference:
            return Outcome(False, f"sum(cX) = {scaled} != c*sum(X)")
        return Outcome(True)


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------


def _invariant(example, volume, fld, method, target):
    return CliJob(("invariant", "--example", example, "--volume", volume,
                   "--field", fld, "--method", method), target)


def _shuffled(jobs, seed):
    jobs = list(jobs)
    random.Random(seed).shuffle(jobs)
    return jobs


HOPF_FIELDS = ("x1", "x2", "radial")
CP1_FIELDS = ("z-ddz", "ddz", "z2-ddz")
ROUTES = ("direct", "alt")


def hopf_stencil_jobs(seed):
    return _shuffled((_invariant("hopf", "r4-bump", f, "direct", TARGET_HOPF_STENCIL)
                      for f in HOPF_FIELDS), seed)


def hopf_exact_jobs(seed):
    return _shuffled((_invariant("hopf", v, f, m, TARGET_HOPF_EXACT)
                      for v in ("r4", "lebesgue") for f in HOPF_FIELDS
                      for m in ROUTES), seed)


def cp1_sweep_jobs(seed):
    jobs = [_invariant("cp1", v, f, m, TARGET_CP1)
            for v in ("fs", "fs-bump") for f in CP1_FIELDS for m in ROUTES]
    jobs.append(CliJob(("invariant", "--example", "cp1", "--method", "localization"),
                       TARGET_CP1))
    jobs.append(CliJob(("check", "--example", "cp1", "--suite", "deformation"),
                       TARGET_CP1))
    return _shuffled(jobs, seed)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bundles: tuple
    jobs: Callable[[int], list]


WORKLOADS = {w.name: w for w in (
    Workload("hopf-stencil",
             "hopf r4-bump, no closed-form Ricci: nested Wirtinger stencils and "
             "log-density evaluations dominate",
             ("hopf",), hopf_stencil_jobs),
    Workload("hopf-exact",
             "hopf r4 and lebesgue with exact Ricci on both routes: determinants "
             "and Ricci assembly dominate, the Hessian stencil is bypassed",
             ("hopf",), hopf_exact_jobs),
    Workload("cp1-sweep",
             "many small 1-D cp1 jobs, so fixed per-job costs of CLI, "
             "quadrature set-up and 1x1 determinants dominate",
             ("cp1",), cp1_sweep_jobs),
    Workload("residue",
             "seeded fixed-point payloads, some malformed, through parse, exact "
             "residue sum and rescaling: the localization layer alone",
             ("hopf-blowup", "blcp2"), residue_jobs),
)}
