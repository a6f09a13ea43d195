"""Spans and counts at the layer boundaries of holoinv, recorded from outside.

The tracer swaps the public callables of each layer for wrappers while it
is installed and restores them afterwards. A span is (name, parent, start,
end); a layer's self time is its span minus the child spans it covers.
Counts (evaluation points, quadrature nodes, ...) are taken at the same
boundaries.

Hooks are tolerant: a callable that has been renamed or removed is listed
in ``missing`` and its metrics read 0, and the run goes on. With
``record_spans=False`` only counts are kept, which is how the untraced run
obtains its exact evaluation count.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import time
from collections import Counter

# span name -> per-layer self-time metric
SELF_TIME_METRIC = {
    "pass": "bench.self_s",
    "cli": "cli.self_s",
    "registry": "registry.get_s",
    "invariant": "invariant.self_s",
    "invariant.density": "invariant.self_s",
    "quadrature": "quadrature.self_s",
    "eval.log_density": "eval.log_density_s",
    "eval.field": "eval.field_s",
    "eval.exact_ricci": "eval.exact_ricci_s",
    "calculus.mixed_hessian": "calculus.mixed_hessian_s",
    "calculus.holomorphic_derivative": "calculus.holomorphic_derivative_s",
    "calculus.divergence": "calculus.divergence_s",
    "calculus.ricci_top": "calculus.ricci_top_s",
    "calculus.det": "calculus.det_s",
    "localization.parse": "localization.parse_s",
    "localization.sum": "localization.sum_s",
    "localization.unnormalize": "localization.sum_s",
    "localization.rescale": "localization.rescale_s",
}


def _calls(args):
    return 1


def _points(args):
    """Points in a batch of chart coordinates of shape (..., n)."""
    shape = getattr(args[0], "shape", None) if args else None
    return math.prod(shape[:-1]) if shape else 1


def _matrices(args):
    """Matrices in a batch of shape (..., n, n)."""
    shape = getattr(args[0], "shape", None) if args else None
    return math.prod(shape[:-2]) if shape and len(shape) >= 2 else 1


def _components(args):
    return len(getattr(args[0], "components", ())) if args else 0


# (module, attribute, span name, count key, what one call adds to the count)
HOOKS = (
    ("holoinv.cli", "main", "cli", None, None),
    ("holoinv.cli", "invariant_direct", "invariant", None, None),
    ("holoinv.cli", "invariant_alternative", "invariant", None, None),
    ("holoinv.invariant", "invariant_direct", "invariant", None, None),
    ("holoinv.calculus", "mixed_hessian", "calculus.mixed_hessian",
     "calculus.mixed_hessian.calls", _calls),
    ("holoinv.calculus", "holomorphic_derivative",
     "calculus.holomorphic_derivative", None, None),
    ("holoinv.calculus", "divergence_field", "calculus.divergence", None, None),
    ("holoinv.calculus", "ricci_top_field", "calculus.ricci_top", None, None),
    ("holoinv.localization", "fixed_point_data_from_dict", "localization.parse",
     None, None),
    ("holoinv.localization", "localization_sum", "localization.sum",
     "localization.components", _components),
    ("holoinv.localization", "unnormalized_invariant", "localization.unnormalize",
     None, None),
    ("holoinv.localization", "rescale_field", "localization.rescale", None, None),
)

# wrapped in the traced run only: the untraced count pass does not need it
SPAN_ONLY_HOOKS = (
    ("numpy.linalg", "det", "calculus.det", "calculus.det.points", _matrices),
)


class Tracer:
    def __init__(self, record_spans: bool = True):
        self.record_spans = record_spans
        self.spans = []          # [name, parent index, start, end]
        self.counts = Counter()
        self.missing = []        # hooks that could not be installed
        self._stack = []
        self._undo = []
        self._bundles = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, count_key=None, count=None):
        """fn wrapped to record a span `name` and add count(args) to `count_key`."""
        spans, stack, counts = self.spans, self._stack, self.counts
        record = self.record_spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count_key is not None:
                counts[count_key] += count(args)
            if not record:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        traced.__wrapped__ = fn
        return traced

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> Counter:
        """Self time summed per metric over the recorded spans."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for (name, _, start, end), child in zip(self.spans, covered):
            out[SELF_TIME_METRIC[name]] += (end - start) - child
        return out

    # -- installation ------------------------------------------------------

    def patch(self, module_name, attr, name, count_key=None, count=None, wrapper=None):
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        new = (wrapper or self.wrap)(original, name, count_key, count)
        setattr(module, attr, new)
        self._undo.append((module, attr, original))

    def install(self):
        hooks = HOOKS + (SPAN_ONLY_HOOKS if self.record_spans else ())
        for hook in hooks:
            self.patch(*hook)
        self.patch("holoinv.cli", "registry_get", "registry", wrapper=self._wrap_registry)
        self.patch("holoinv.invariant", "integrate", "quadrature",
                   wrapper=self._wrap_integrate)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- layer-specific wrappers ---------------------------------------------

    def _wrap_integrate(self, integrate, name, *_):
        counts = self.counts

        def with_density(density, *args, **kwargs):
            traced = self.wrap(density, "invariant.density")

            def counted(coords):
                counts["quadrature.nodes"] += len(coords)
                counts["quadrature.density_calls"] += 1
                return traced(coords)

            return integrate(counted, *args, **kwargs)

        return self.wrap(with_density, name)

    def _wrap_registry(self, registry_get, name, *_):
        get = self.wrap(registry_get, name)

        def wrapped(example):
            bundle = get(example)
            key = id(bundle)
            if key not in self._bundles:
                # the bundle is kept alive so that its id is not reused
                self._bundles[key] = (bundle, self._wrap_bundle(bundle))
            return self._bundles[key][1]

        return wrapped

    def _wrap_bundle(self, bundle):
        """The bundle with its evaluator callables counted and spanned."""

        def charts(mapping, name):
            if not mapping:
                return mapping
            return {chart: self.wrap(fn, name, f"{name}.points", _points)
                    for chart, fn in mapping.items()}

        try:
            volumes = {
                key: dataclasses.replace(
                    vol,
                    log_density=charts(vol.log_density, "eval.log_density"),
                    exact_ricci=charts(vol.exact_ricci, "eval.exact_ricci"))
                for key, vol in bundle.volumes.items()}
            fields = {
                key: dataclasses.replace(
                    fld, components=charts(fld.components, "eval.field"))
                for key, fld in bundle.fields.items()}
            return dataclasses.replace(bundle, volumes=volumes, fields=fields)
        except (AttributeError, TypeError, ValueError):
            self.missing.append(f"evaluators of {getattr(bundle, 'name', bundle)}")
            return bundle
