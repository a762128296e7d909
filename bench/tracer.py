"""In-memory span tracing around the public functions of each lrcfm layer.

Spans are recorded from the benchmark's own process by replacing module
attributes with timing wrappers; nothing inside the package changes. A
function is patched at every name through which the package looks it up
(``collection`` imports ``steady_state`` by name, ``cli`` imports
``load_config`` by name), so each call is seen exactly once. A function
that does not exist at the commit being measured is skipped, and the
metrics derived from it are left out of the result.

Each span is (name id, parent index, start, end) in compact arrays, so a
long run keeps tens of bytes per span. Per-layer metrics are derived from
the spans when the run ends, and the spans are written to an ``.npz``.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter

import numpy as np

# (span name, dotted lookup sites, kind); the first site is the definition
LAYERS = (
    ("cli.main", ("cli.main",), "span"),
    ("config.load_config", ("config.load_config", "cli.load_config"), "span"),
    ("designer.sweep", ("designer.sweep",), "sweep"),
    ("designer.optimal_rayleigh", ("designer.optimal_rayleigh",), "span"),
    ("designer.evaluate_at_rayleigh", ("designer.evaluate_at_rayleigh",),
     "evaluate"),
    ("designer.recommend_lens", ("designer.recommend_lens",), "span"),
    ("designer.cfm_comparison", ("designer.cfm_comparison",), "span"),
    ("beam_optics.excitation_region", ("beam_optics.excitation_region",),
     "span"),
    ("collection.figure_of_merit", ("collection.figure_of_merit",), "span"),
    ("nv_rates.steady_state",
     ("nv_rates.steady_state", "collection.steady_state"), "span"),
    ("pulse_fit.fit", ("pulse_fit.fit",), "fit"),
    ("pulse_fit.auto_init", ("pulse_fit.auto_init",), "span"),
    ("pulse_fit.model_eval", ("pulse_fit.model_eval",), "count"),
    ("pulse_fit.model_jacobian", ("pulse_fit.model_jacobian",), "count"),
    ("pulse_fit.TimeSeries.from_csv", ("pulse_fit.TimeSeries.from_csv",),
     "read"),
    ("pulse_fit.TimeSeries.to_csv", ("pulse_fit.TimeSeries.to_csv",),
     "write"),
    ("mapping.assemble", ("mapping.assemble",), "span"),
    ("mapping.synth_map", ("mapping.synth_map",), "span"),
    ("mapping.write_map_csv", ("mapping.write_map_csv",), "span"),
)


class Tracer:
    """Span store plus the counters that are read off arguments and
    return values."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.iterations = 0
        self._fit_depth = 0
        self._eval_points: set = set()
        self._patches: list = []
        self.patched: set[str] = set()

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def new_operation(self) -> None:
        """Distinct (z_R, context) points are counted per operation."""
        self.counts["designer.evaluate_at_rayleigh.distinct"] += len(
            self._eval_points)
        self._eval_points = set()

    # -- patching --------------------------------------------------------
    def install(self, package) -> None:
        for name, sites, kind in LAYERS:
            for site in sites:
                owner, attr = _resolve(package, site)
                if owner is None:
                    continue
                raw = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, kind, raw.__func__))
                else:
                    wrapped = self._wrap(name, kind, raw)
                self._patches.append((owner, attr, raw))
                self.patched.add(site)
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name, kind, fn):
        if kind == "count":
            key = name + ".calls_in_fit"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self._fit_depth:
                    self.counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kind == "fit":
                self._fit_depth += 1
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
                if kind == "fit":
                    self._fit_depth -= 1
            self._observe(name, kind, args, kwargs, result)
            return result
        return traced

    def _observe(self, name, kind, args, kwargs, result) -> None:
        if kind == "fit":
            self.iterations += int(result.iterations)
            self.counts[name + ".converged"] += bool(result.converged)
        elif kind == "sweep":
            self.counts[name + ".points"] += len(result)
        elif kind == "evaluate":
            zr = args[0] if args else kwargs["zr"]
            ctx = args[1] if len(args) > 1 else kwargs["ctx"]
            self._eval_points.add((float(zr), ctx))
        elif kind == "read":
            self.counts[name + ".bytes"] += os.path.getsize(args[-1])
        elif kind == "write":
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.counts[name + ".bytes"] += os.path.getsize(path)

    # -- results ---------------------------------------------------------
    def aggregate(self) -> dict:
        """Calls, busy time and self time per span name, plus the
        parent-relative sums the derived metrics need."""
        self.new_operation()
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=float)
               - np.frombuffer(self.start, dtype=float))
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        busy = np.bincount(nid, weights=dur, minlength=n)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=dur.size)
        self_time = np.bincount(nid, weights=dur - child_sum, minlength=n)
        layers = {name: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                         "self_s": float(self_time[i])}
                  for i, name in enumerate(self.names)}
        # golden-section refinement = optimal_rayleigh minus its sweeps
        opt = self._ids.get("designer.optimal_rayleigh")
        parent_name = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
        golden = {"evals": 0, "busy_s": 0.0}
        if opt is not None:
            under_opt = parent_name == opt
            golden["busy_s"] = layers["designer.optimal_rayleigh"]["busy_s"]
            sweep = self._ids.get("designer.sweep")
            if sweep is not None:
                golden["busy_s"] -= float(
                    dur[under_opt & (nid == sweep)].sum())
            ev = self._ids.get("designer.evaluate_at_rayleigh")
            if ev is not None:
                golden["evals"] = int(np.sum(under_opt & (nid == ev)))
        return {"layers": layers, "golden": golden, "patched": self.patched,
                "counts": dict(self.counts), "iterations": self.iterations}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))


def _resolve(package, site: str):
    """(owner, attribute) for 'module.name' or 'module.Class.name', or
    (None, None) when the module, class or attribute is absent."""
    parts = site.split(".")
    owner = getattr(package, parts[0], None)
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None, None
    return owner, parts[-1]


def layer_metrics(agg: dict, n_ops: int) -> dict:
    """Per-layer metrics from an aggregate, per traced operation. A metric
    whose function was absent from the package is left out."""
    layers, counts = agg["layers"], agg["counts"]
    present = {name for name, sites, _ in LAYERS
               if any(site in agg.get("patched", ()) for site in sites)}
    out = {}

    def per_op(metric, value, unit):
        out[metric] = (value / n_ops, unit)

    def stat(name, key):
        return layers.get(name, {}).get(key, 0)

    for name in ("cli.main", "config.load_config", "designer.sweep",
                 "designer.evaluate_at_rayleigh", "nv_rates.steady_state",
                 "collection.figure_of_merit", "beam_optics.excitation_region",
                 "pulse_fit.fit", "pulse_fit.TimeSeries.from_csv",
                 "pulse_fit.TimeSeries.to_csv"):
        if name in present:
            per_op(name + ".calls", stat(name, "calls"), "count/op")
    for name in ("config.load_config", "designer.sweep",
                 "designer.evaluate_at_rayleigh", "designer.optimal_rayleigh",
                 "designer.recommend_lens", "designer.cfm_comparison",
                 "nv_rates.steady_state", "beam_optics.excitation_region",
                 "pulse_fit.fit", "pulse_fit.auto_init",
                 "pulse_fit.TimeSeries.from_csv", "pulse_fit.TimeSeries.to_csv",
                 "mapping.assemble", "mapping.synth_map",
                 "mapping.write_map_csv"):
        if name in present:
            per_op(name + ".busy_s", stat(name, "busy_s"), "s/op")
    for name in ("cli.main", "collection.figure_of_merit", "mapping.assemble"):
        if name in present:
            per_op(name + ".self_s", stat(name, "self_s"), "s/op")
    for name in ("pulse_fit.TimeSeries.from_csv", "pulse_fit.TimeSeries.to_csv"):
        if name in present:
            per_op(name + ".bytes", counts.get(name + ".bytes", 0), "B/op")
    if "designer.sweep" in present:
        per_op("designer.sweep.points", counts.get("designer.sweep.points", 0),
               "count/op")
    if "designer.optimal_rayleigh" in present:
        per_op("designer.golden.evals", agg["golden"]["evals"], "count/op")
        per_op("designer.golden.busy_s", agg["golden"]["busy_s"], "s/op")
    evals = stat("designer.evaluate_at_rayleigh", "calls")
    if "designer.evaluate_at_rayleigh" in present:
        distinct = counts.get("designer.evaluate_at_rayleigh.distinct", 0)
        out["designer.useful_eval_frac"] = (
            distinct / evals if evals else 0.0, "ratio")
    fits = stat("pulse_fit.fit", "calls")
    if "pulse_fit.fit" in present:
        out["pulse_fit.fit.iterations_mean"] = (
            agg["iterations"] / fits if fits else 0.0, "count")
        out["pulse_fit.fit.converged_frac"] = (
            counts.get("pulse_fit.fit.converged", 0) / fits if fits else 0.0,
            "ratio")
        for name in ("pulse_fit.model_eval", "pulse_fit.model_jacobian"):
            if name in present:
                calls = counts.get(name + ".calls_in_fit", 0)
                out[name + ".calls_per_fit"] = (
                    calls / fits if fits else 0.0, "count")
    return out
