"""Spans around calls into the package's layers, recorded from outside.

``Tracer.install`` replaces each traced function in every ``nonstat_dyn``
module namespace that holds it (the package imports functions by name, so
patching the defining module alone would miss inner calls) and each traced
method on its class.  ``uninstall`` restores the originals, so untraced ops
run the unmodified code.  Spans stay in memory until ``dump``.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("maps", "densities", "transfer", "cones", "sequences", "birkhoff",
          "network", "cli")


def _nbytes(obj):
    """Computed bytes of the arrays an object holds (dense or CSR-like)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if all(hasattr(obj, a) for a in ("data", "indices", "indptr")):
        return obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
    return sum(_nbytes(v) for v in getattr(obj, "__dict__", {}).values()
               if isinstance(v, np.ndarray) or hasattr(v, "indptr"))


# Counter hooks get (counters, bind, result); bind() returns the call's
# inspect.BoundArguments, built only by the hooks that read arguments.

def _operator_bytes(counters, bind, result):
    counters["transfer.operator_bytes"] += _nbytes(result)


def _applier_bytes(counters, bind, result):
    counters["transfer.operator_bytes"] += _nbytes(bind().arguments["self"])


def _apply_bytes(counters, bind, result):
    counters["transfer.apply.bytes"] += _nbytes(result)


def _birkhoff_steps(counters, bind, result):
    counters["birkhoff.steps"] += max(int(bind().arguments["n"]) - 1, 0)


def _artifact_bytes(counters, bind, result):
    argv = list(bind().arguments.get("argv") or ())
    if "--out" not in argv:
        return
    for base, _, files in os.walk(argv[argv.index("--out") + 1]):
        counters["cli.artifact_bytes"] += sum(
            os.path.getsize(os.path.join(base, f)) for f in files)


# (span name, module, attribute or Class.method, counter hook).  A target
# missing from the package is skipped, so the list outlives refactors.
TARGETS = (
    ("maps.instantiate", "maps", "instantiate", None),
    ("maps.evaluate", "maps", "MapInstance.evaluate", None),
    ("densities.seminorm", "densities", "quasi_holder_seminorm", None),
    ("densities.l1", "densities", "l1_distance", None),
    ("transfer.assemble", "transfer", "build_ulam", _operator_bytes),
    ("transfer.assemble", "transfer", "SequenceApplier.__init__", _applier_bytes),
    ("transfer.cache", "transfer", "ApplierCache.get", None),
    ("transfer.average", "transfer", "averaged_operator", _operator_bytes),
    ("transfer.apply", "transfer", "SequenceApplier.apply_values", _apply_bytes),
    ("transfer.apply", "transfer", "UlamOperator.apply", _apply_bytes),
    ("transfer.solve", "transfer", "fixed_density", None),
    ("sequences.evolve", "sequences", "evolve_density", None),
    ("sequences.evolve", "sequences", "adversarial_demo", None),
    ("birkhoff.averages", "birkhoff", "birkhoff_averages", _birkhoff_steps),
    ("network.schedule", "network", "gen_schedule", None),
    ("network.step", "network", "step_network", None),
    ("network.simulate", "network", "simulate_ensemble", None),
    ("cones.image_check", "cones", "cone_image_check", None),
    ("cones.contraction", "cones", "contraction_and_diameter", None),
    ("cli.main", "cli", "main", _artifact_bytes),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))
COUNTERS = ("transfer.operator_bytes", "transfer.apply.bytes",
            "birkhoff.steps", "cli.artifact_bytes")


class Tracer:
    def __init__(self):
        self.spans = []          # (name, parent index or -1, start, end)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    def _wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if hook:
                hook(counters, lambda: signature.bind(*args, **kwargs),
                     result)
            return result
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "nonstat_dyn" or n.startswith("nonstat_dyn.")]
        for name, module, attr, hook in TARGETS:
            owner = sys.modules.get(f"nonstat_dyn.{module}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(method) if cls else None
                if original is None:
                    continue
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, hook))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_totals(self):
        """{span name: [calls, self seconds]} and the summed root-span time."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0] for name in SPAN_NAMES}
        root = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += (end - start) - child[i]
            if parent < 0:
                root += end - start
        return totals, root

    def dump(self, path):
        names = {n: i for i, n in enumerate(SPAN_NAMES)}
        with open(path, "w") as fh:
            json.dump({"names": list(SPAN_NAMES),
                       "fields": ["name", "parent", "start_s", "end_s"],
                       "spans": [[names[n], p, s, e]
                                 for n, p, s, e in self.spans]}, fh)


def layer_metrics(tracer, traced_wall, untraced_wall):
    """Per-layer metrics of a traced run (self times in seconds)."""
    totals, root = tracer.layer_totals()
    out = {}
    for name, (calls, self_s) in totals.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s for n, (_, s) in totals.items()
                                     if n.startswith(layer + "."))
    out.update(tracer.counters)
    applies = totals["transfer.apply"][0]
    built = totals["transfer.assemble"][0]
    out["transfer.reuse_ratio"] = (max(0.0, 1.0 - built / applies)
                                   if applies else 0.0)
    out["trace.wall_s"] = traced_wall
    out["trace.covered_frac"] = root / traced_wall if traced_wall else 0.0
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0
                                  if untraced_wall else 0.0)
    return out
