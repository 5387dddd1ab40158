"""Traced run: wrap the public functions and methods of every sdlab module.

Spans are recorded from the benchmark's own files; no sdlab source changes.
Each wrapped call appends one span ``[name, parent, start, end, counts]`` to an
in-memory list; the worker writes the list once, when the pass ends.  A span's
name is ``<layer>.<function>`` or ``<layer>.<Class>.<method>``, where the layer
is the sdlab module that defines the function, whichever module calls it.

A function that another module imports by name (``from .sampler import
plan_circulant``) is bound in several module namespaces; each binding is
replaced by the same wrapper, and ``install`` fails if any binding is left
unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("kernels", "sampler", "events", "analytic", "measures", "mc", "bootstrap", "cli")

# bindings that must be wrapped: imported by name into another module
REQUIRED_BINDINGS = (
    ("sampler", "plan_circulant"), ("bootstrap", "plan_circulant"), ("cli", "plan_circulant"),
    ("mc", "compile_event"), ("mc", "plan_decomposed"),
    ("sampler", "cov_of_offsets"), ("sampler", "repair_psd"), ("measures", "repair_psd"),
)

PLAN_TYPES = {"DensePlan": "dense", "CirculantPlan": "circulant", "DecomposedPlan": "split"}
DRAW_METHODS = ("draw_batch", "draw_pair_batch", "draw_split_batch")
EVENT_KINDS = {"AllAbove": "all_above", "AnyAbove": "any_above",
               "BoxCrossing": "box_crossing", "AnnulusCrossing": "annulus_crossing"}
PLAN_BUILDERS = ("sampler.plan_dense", "sampler.plan_circulant", "sampler.plan_decomposed")
BVN = ("analytic.bivariate_cdf", "analytic.bivariate_cdf_derivs")
RECURSION = ("bootstrap.find_closure", "bootstrap.run_recursion", "bootstrap.sprinkle_schedule")
CROSSING_DRIVERS = ("bootstrap.estimate_crossing", "bootstrap.subcritical_decay_table")

# spans each workload must reach; a pass that misses one fails loudly
EXPECTED = {
    "smoke": ("cli.main", "cli.run_config", "mc.event_thresholds", "events.compile_event",
              "sampler.DensePlan.draw_batch", "sampler.CirculantPlan.draw_batch",
              "sampler.DecomposedPlan.draw_split_batch", "sampler.plan_decomposed",
              "events.CompiledEvent.thresholds_batch", "kernels.cov_of_offsets",
              "measures.max_corr", "analytic.bivariate_cdf"),
    "verify-dense": ("cli.run_config", "mc.event_thresholds", "sampler.plan_dense",
                     "sampler.DensePlan.draw_batch", "sampler.DensePlan.draw_pair_batch",
                     "events.CompiledEvent.thresholds_batch", "measures.max_corr"),
    "crossing": CROSSING_DRIVERS + ("mc.event_thresholds", "sampler.plan_circulant",
                                    "sampler.CirculantPlan.draw_batch",
                                    "events.CompiledEvent.thresholds_batch"),
    "solvers": RECURSION + BVN + ("kernels.build_cov_matrix", "kernels.cov_of_offsets",
                                  "kernels.repair_psd", "measures.capacity", "measures.max_corr",
                                  "measures.bound_chain_report"),
}


def _rows(out) -> int:
    return len(out[0]) if isinstance(out, tuple) else len(out)


def _count_thresholds(args, kwargs, out):
    ce = args[0]
    return {"kind": EVENT_KINDS[ce.kind], "rows": _rows(out) if hasattr(out, "__len__") else 1,
            "sites": len(ce.cols)}


def _count_capacity(args, kwargs, out):
    return {"iterations": out.iterations, "gap": out.gap, "energy": out.energy}


def _counter(name: str):
    """Counts recorded at a span's boundary, from its arguments and result."""
    if name == "kernels.cov_of_offsets":
        return lambda a, k, out: {"offsets": len(out)}
    if name.startswith("sampler.") and name.rsplit(".", 1)[-1] in DRAW_METHODS:
        return lambda a, k, out: {"rows": _rows(out)}
    if name in ("events.CompiledEvent.thresholds_batch", "events.CompiledEvent.threshold"):
        return _count_thresholds
    if name == "measures.capacity":
        return _count_capacity
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self.wrappers: dict = {}  # original function -> wrapper

    def wrap(self, fn, name: str):
        if fn in self.wrappers:
            return self.wrappers[fn]
        count = _counter(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, out)
            return out

        wrapper.__traced__ = fn
        self.wrappers[fn] = wrapper
        return wrapper

    def install(self) -> None:
        """Wrap every public function and method, in every module that binds it."""
        modules = {layer: importlib.import_module(f"sdlab.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self.wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{name}")
        for mod in _sdlab_modules():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self.wrappers:
                    setattr(mod, name, self.wrappers[obj])
        self.check_coverage()

    def _wrap_class(self, cls, prefix: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                setattr(cls, name, type(attr)(self.wrap(attr.__func__, f"{prefix}.{name}")))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(attr, f"{prefix}.{name}"))

    def check_coverage(self) -> None:
        """Fail if any module or class still reaches a wrapped function unwrapped."""
        originals = set(self.wrappers)
        missed = []
        for mod in _sdlab_modules():
            for name, obj in vars(mod).items():
                values = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (tuple, list)) else (obj,)
                if any(inspect.isfunction(v) and v in originals for v in values):
                    missed.append(f"{mod.__name__}.{name}")
                if inspect.isclass(obj) and obj.__module__.startswith("sdlab"):
                    for mname, attr in vars(obj).items():
                        fn = getattr(attr, "__func__", attr)
                        if inspect.isfunction(fn) and fn in originals:
                            missed.append(f"{mod.__name__}.{name}.{mname}")
        for layer, name in REQUIRED_BINDINGS:
            if not hasattr(getattr(sys.modules[f"sdlab.{layer}"], name), "__traced__"):
                missed.append(f"sdlab.{layer}.{name}")
        if missed:
            raise RuntimeError(f"trace wrappers missing for: {', '.join(sorted(set(missed)))}")

    def check_expected(self, workload: str) -> None:
        fired = {s[0] for s in self.spans}
        missing = [n for n in EXPECTED[workload] if n not in fired]
        if missing:
            raise RuntimeError(f"workload {workload!r} never reached expected spans: {', '.join(missing)}")


def _sdlab_modules():
    return [m for k, m in list(sys.modules.items()) if (k == "sdlab" or k.startswith("sdlab.")) and m]


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _class_of(name: str) -> str:
    parts = name.split(".")
    return parts[1] if len(parts) == 3 else ""


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics (values only) from one traced pass; see README.md."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    def ancestors(i):
        p = spans[i][1]
        while p >= 0:
            yield p
            p = spans[p][1]

    def outermost(pred):
        """Spans matching pred with no matching ancestor (no double counting)."""
        return [i for i in range(n) if pred(spans[i][0]) and not any(pred(spans[a][0]) for a in ancestors(i))]

    def named(*names):
        return lambda nm: nm in names

    def total(idx):
        return sum(dur[i] for i in idx)

    def per_unit(seconds, units):
        return 1e6 * seconds / units if units else 0.0

    m: dict[str, float] = {}
    cov = outermost(named("kernels.cov_of_offsets"))
    m["kernels.cov_s"] = total(cov)
    m["kernels.cov_calls"] = len([s for s in spans if s[0] == "kernels.cov_of_offsets"])
    m["kernels.offsets"] = sum(spans[i][4]["offsets"] for i in cov)
    m["kernels.us_per_offset"] = per_unit(m["kernels.cov_s"], m["kernels.offsets"])
    m["kernels.psd_repair_s"] = total(outermost(named("kernels.repair_psd")))

    m["sampler.plan_s"] = total(outermost(named(*PLAN_BUILDERS)))
    is_draw = [s[0].startswith("sampler.") and s[0].rsplit(".", 1)[-1] in DRAW_METHODS for s in spans]
    draws = outermost(lambda nm: nm.startswith("sampler.") and nm.rsplit(".", 1)[-1] in DRAW_METHODS)
    for cls, t in PLAN_TYPES.items():
        idx = [i for i in draws if _class_of(spans[i][0]) == cls]
        m[f"sampler.draw_s.{t}"] = total(idx)
        m[f"sampler.replicates.{t}"] = sum(spans[i][4]["rows"] for i in idx)
        m[f"sampler.us_per_replicate.{t}"] = per_unit(m[f"sampler.draw_s.{t}"], m[f"sampler.replicates.{t}"])

    m["events.compile_s"] = total(outermost(named("events.compile_event")))
    thr = outermost(named("events.CompiledEvent.thresholds_batch", "events.CompiledEvent.threshold"))
    for kind in EVENT_KINDS.values():
        idx = [i for i in thr if spans[i][4]["kind"] == kind]
        rows = sum(spans[i][4]["rows"] for i in idx)
        m[f"events.threshold_s.{kind}"] = total(idx)
        m[f"events.replicates.{kind}"] = rows
        m[f"events.us_per_replicate.{kind}"] = per_unit(total(idx), rows)
        m[f"events.sites.{kind}"] = (sum(spans[i][4]["sites"] * spans[i][4]["rows"] for i in idx) / rows
                                     if rows else 0.0)

    drew = [False] * n
    for i in range(n):
        if is_draw[i]:
            for a in ancestors(i):
                drew[a] = True
    calls = [i for i in range(n) if spans[i][0] == "mc.event_thresholds"]
    hits = sum(1 for i in calls if not drew[i])
    m["mc.thresholds_calls"] = len(calls)
    m["mc.cache_hits"] = hits
    m["mc.cache_hit_ratio"] = hits / len(calls) if calls else 0.0
    m["mc.thresholds_self_s"] = sum(self_t[i] for i in calls)
    m["mc.verify_calls"] = sum(1 for s in spans if s[0].startswith("mc.verify_"))
    m["mc.verify_self_s"] = sum(self_t[i] for i in range(n)
                                if spans[i][0].startswith("mc.") and spans[i][0] != "mc.event_thresholds")

    caps = [i for i in range(n) if spans[i][0] == "measures.capacity"]
    m["measures.capacity_s"] = total(outermost(named("measures.capacity")))
    m["measures.capacity_calls"] = len(caps)
    m["measures.capacity_iterations"] = sum(spans[i][4]["iterations"] for i in caps)
    m["measures.capacity_rel_gap_max"] = max(
        [spans[i][4]["gap"] / spans[i][4]["energy"] for i in caps if spans[i][4]["energy"] > 0], default=0.0)
    m["measures.max_corr_s"] = total(outermost(named("measures.max_corr")))
    m["measures.max_corr_calls"] = sum(1 for s in spans if s[0] == "measures.max_corr")
    m["measures.chain_s"] = total(outermost(named("measures.bound_chain_report")))

    bvn = outermost(named(*BVN))
    m["analytic.bvn_s"] = total(bvn)
    m["analytic.bvn_calls"] = len(bvn)
    m["analytic.us_per_bvn"] = per_unit(total(bvn), len(bvn))

    m["bootstrap.recursion_s"] = total(outermost(named(*RECURSION)))
    m["bootstrap.crossing_self_s"] = sum(self_t[i] for i in range(n) if spans[i][0] in CROSSING_DRIVERS)

    m["cli.self_s"] = sum(self_t[i] for i in range(n) if spans[i][0].startswith("cli."))
    return m


# name -> unit for every per-layer metric, including the traced/untraced ratio
LAYER_UNITS = {
    "kernels.cov_s": "s", "kernels.cov_calls": "count", "kernels.offsets": "count",
    "kernels.us_per_offset": "us", "kernels.psd_repair_s": "s",
    "sampler.plan_s": "s",
    **{f"sampler.{k}.{t}": u for t in PLAN_TYPES.values()
       for k, u in (("draw_s", "s"), ("replicates", "count"), ("us_per_replicate", "us"))},
    "events.compile_s": "s",
    **{f"events.{k}.{kind}": u for kind in EVENT_KINDS.values()
       for k, u in (("threshold_s", "s"), ("replicates", "count"), ("us_per_replicate", "us"),
                    ("sites", "count"))},
    "mc.thresholds_calls": "count", "mc.cache_hits": "count", "mc.cache_hit_ratio": "ratio",
    "mc.thresholds_self_s": "s", "mc.verify_calls": "count", "mc.verify_self_s": "s",
    "measures.capacity_s": "s", "measures.capacity_calls": "count",
    "measures.capacity_iterations": "count", "measures.capacity_rel_gap_max": "ratio",
    "measures.max_corr_s": "s", "measures.max_corr_calls": "count", "measures.chain_s": "s",
    "analytic.bvn_s": "s", "analytic.bvn_calls": "count", "analytic.us_per_bvn": "us",
    "bootstrap.recursion_s": "s", "bootstrap.crossing_self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
