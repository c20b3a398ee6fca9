"""Per-layer host-time spans, recorded from outside the program.

:func:`install` swaps the module attributes ``repro`` resolves at call time
(``perf.scaling`` looks its stage functions up as globals on every
estimate) for timing wrappers; :func:`uninstall` puts the originals back.
Spans stay in memory while requests run.  Counters come only from public
APIs: the cache registry, the vector-cost build counters, the trace store's
``stats()``, ``kernel_count``, ``len(timeline.intervals)`` and
``len(ChromeTrace)``.

A layer's self time is its span's duration minus the time its child spans
cover; time inside a request that no layer span covers is unattributed.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names in report order; ``request`` is the benchmark's own root
#: span around each request, so its self time is the unattributed time.
LAYERS = ("rank_des", "step_time", "trace_builder", "dap", "vector_cost",
          "straggler", "sim_pipeline", "scaling", "time_to_train",
          "chrome_trace")

#: LRU caches (by registry name) whose hit ratio each layer reports.
LAYER_CACHES = {"trace_builder": "step-traces", "dap": "dap-partitions",
                "vector_cost": "cost-arrays", "scaling": "step-estimates"}

TRACE_IO_COUNTERS = ("trace_hits", "trace_misses", "array_hits",
                     "array_misses", "writes", "bytes")


class Span:
    __slots__ = ("layer", "name", "start", "end", "child_s", "request")

    def __init__(self, layer: str, name: str, start: float, request: int):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.request = request

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: List[Span] = []
        self._patched: List[Tuple[object, str, object]] = []
        #: Cyclic-GC pauses (all generations): they land inside whichever
        #: layer happens to allocate, so they are also reported apart.
        self.gc = {"collections": 0, "pause_s": 0.0}
        self._gc_start = 0.0

    def span(self, layer: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so every call records one ``layer`` span."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = Span(layer, fn.__name__, time.perf_counter(),
                          self.request)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += record.end - record.start
                self.spans.append(record)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return wrapper

    def patch(self, module: str, attr: str, layer: str,
              on_result: Optional[Callable] = None) -> None:
        """Replace ``module.attr`` (``Class.method`` allowed) by a span."""
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._patched.append((owner, name, original))
        setattr(owner, name, self.span(layer, original, on_result))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc["collections"] += 1
            self.gc["pause_s"] += time.perf_counter() - self._gc_start

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        totals = {layer: {"calls": 0, "self_s": 0.0}
                  for layer in LAYERS + ("request",)}
        for s in self.spans:
            entry = totals[s.layer]
            entry["calls"] += 1
            entry["self_s"] += s.self_s
        return totals

    def to_chrome(self):
        """The spans as a chrome trace, through the program's exporter."""
        from repro.observability.chrome_trace import ChromeTrace

        builder = ChromeTrace()
        builder.process_name(0, "host (benchmark spans)")
        builder.thread_name(0, 0, "requests")
        origin = min((s.start for s in self.spans), default=0.0)
        for s in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            builder.complete(s.layer, "host", s.start - origin,
                             s.end - s.start, 0, 0,
                             args={"fn": s.name, "request": s.request,
                                   "self_s": s.self_s})
        return builder


# ----------------------------------------------------------------------
# Counters read off call results
# ----------------------------------------------------------------------
def _count_kernels(counts, args, kwargs, result) -> None:
    counts["step_time.kernels"] += result.kernel_count


def _count_rank_des(counts, args, kwargs, result) -> None:
    n_ranks = args[1] if len(args) > 1 else kwargs["n_ranks"]
    n_steps = args[2] if len(args) > 2 else kwargs["n_steps"]
    counts["rank_des.rank_steps"] += n_ranks * n_steps
    timeline = kwargs.get("timeline", args[10] if len(args) > 10 else None)
    if timeline is not None:
        counts["rank_des.timeline_intervals"] += len(timeline.intervals)


def _count_dumps(counts, args, kwargs, result) -> None:
    counts["chrome_trace.events"] += len(args[0])
    counts["chrome_trace.bytes"] += len(result)


#: (module, attribute, layer, counter) for every wrapped entry point.  The
#: ``perf.scaling`` names are the globals ``estimate_step_time`` resolves
#: on each call; the rest are the names the benchmark's requests (and
#: ``kernel_trace_to_chrome``'s call-time import) resolve.
ENTRY_POINTS = (
    ("repro.perf.scaling", "build_step_trace", "trace_builder", None),
    ("repro.perf.trace_builder", "build_step_trace", "trace_builder", None),
    ("repro.perf.scaling", "partition_step", "dap", None),
    ("repro.perf.scaling", "trace_cost_arrays", "vector_cost", None),
    ("repro.perf.scaling", "simulate_step", "step_time", _count_kernels),
    ("repro.perf.step_time", "simulate_step", "step_time", _count_kernels),
    ("repro.perf.scaling", "_run_distributed_step", "rank_des",
     _count_rank_des),
    ("repro.perf.scaling", "stall_model", "sim_pipeline", None),
    ("repro.distributed.straggler", "StragglerModel.sample_rank_delays",
     "straggler", None),
    ("repro.perf.scaling", "estimate_step_time", "scaling", None),
    ("repro.perf.time_to_train", "estimate_step_time", "scaling", None),
    ("repro.perf.time_to_train", "scenario_time_to_train", "time_to_train",
     None),
    ("repro.observability.chrome_trace", "kernel_trace_to_chrome",
     "chrome_trace", None),
    ("repro.observability.chrome_trace", "timeline_to_chrome",
     "chrome_trace", None),
    ("repro.observability.chrome_trace", "ChromeTrace.dumps",
     "chrome_trace", _count_dumps),
)


def install() -> Tracer:
    tracer = Tracer()
    for module, attr, layer, counter in ENTRY_POINTS:
        tracer.patch(module, attr, layer, counter)
    gc.callbacks.append(tracer._on_gc)
    return tracer


def reset_counters() -> None:
    """Zero the program's own counters before a traced session."""
    from repro.framework.caching import reset_registry_stats
    from repro.perf.vector_cost import reset_build_counters

    reset_registry_stats()
    reset_build_counters()


def program_counters() -> Dict[str, Tuple[float, float]]:
    """``name -> (value, base)`` from the program's public counters.

    A ratio's base is its denominator (cache lookups); plain counts carry
    their own value as base.
    """
    from repro.framework.caching import cache_registry
    from repro.framework.trace_io import default_store
    from repro.perf.vector_cost import build_counters

    out: Dict[str, Tuple[float, float]] = {}
    registry = cache_registry()
    for layer, cache in LAYER_CACHES.items():
        stats = registry[cache]
        out[f"{layer}.cache_hit_ratio"] = (stats.hit_rate, stats.lookups)
    evictions = sum(s.evictions for s in registry.values())
    out["caching.evictions"] = (evictions, evictions)
    for name, value in build_counters().items():
        out[f"vector_cost.{name}"] = (value, value)
    store = default_store().stats()
    for name in TRACE_IO_COUNTERS:
        out[f"trace_io.{name}"] = (store[name], store[name])
    return out
