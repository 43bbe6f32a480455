"""Host-time spans around the calls into each layer of ``repro``.

The program itself carries no tracing.  :class:`LayerTracer` patches the
public entry point of each layer *where its caller looks it up*:
``ocl.program`` and ``ocl.queue`` import the kernelc/analysis functions
by name, so those names are replaced in the importing module; methods
are replaced on their class.  ``uninstall`` restores every original, so
untraced ops run the unmodified code.

Each span records (layer, start, end, parent span, op id).  A layer's
self time is its span minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

# (layer, module path, attribute path) — the attribute path names a
# module global ("name") or a class attribute ("Class.method").
LAYER_ENTRIES = [
    ("skelcl.call", "repro.skelcl.map", "Map.__call__"),
    ("skelcl.call", "repro.skelcl.zip", "Zip.__call__"),
    ("skelcl.call", "repro.skelcl.reduce", "Reduce.__call__"),
    ("skelcl.call", "repro.skelcl.scan", "Scan.__call__"),
    ("skelcl.call", "repro.skelcl.mapoverlap", "MapOverlap.__call__"),
    ("skelcl.call", "repro.skelcl.allpairs", "AllPairs.__call__"),
    ("jit.lower", "repro.jit.frontend", "JitFunction.lower_source"),
    ("kernelc.preprocess", "repro.ocl.program", "preprocess_source"),
    ("kernelc.frontend", "repro.ocl.program", "compile_preprocessed"),
    ("kernelc.lint", "repro.ocl.program", "lint_program"),
    ("kernelc.codegen", "repro.ocl.program", "compile_program"),
    ("kernelc.progcache", "repro.kernelc.progcache", "store"),
    ("kernelc.progcache", "repro.kernelc.progcache", "load"),
    ("ocl.build", "repro.ocl.program", "Program.build"),
    ("kernelc.vectorize.plan", "repro.kernelc.vectorize", "plan_for"),
    ("kernelc.vectorize.exec", "repro.kernelc.vectorize", "execute"),
    ("ocl.executor", "repro.ocl.queue", "execute_ndrange"),
    ("analysis.access", "repro.ocl.queue", "kernel_buffer_accesses"),
    ("ocl.queue", "repro.ocl.queue", "CommandQueue.enqueue_nd_range_kernel"),
    ("ocl.queue", "repro.ocl.queue", "CommandQueue.enqueue_write_buffer"),
    ("ocl.queue", "repro.ocl.queue", "CommandQueue.enqueue_read_buffer"),
    ("ocl.queue", "repro.ocl.queue", "CommandQueue.enqueue_copy_buffer"),
    ("plan.planner", "repro.plan.planner", "Planner.flush"),
    ("plan.planner", "repro.plan.planner", "Planner.flush_subset"),
    ("serve.submit", "repro.serve.server", "ClientSession.submit"),
    ("serve.submit", "repro.serve.server", "ClientSession.submit_map"),
    ("serve.dispatch", "repro.serve.server", "Server.dispatch"),
    ("serve.drain", "repro.serve.scheduler", "Scheduler.drain"),
]

LAYERS = list(dict.fromkeys(layer for layer, _, _ in LAYER_ENTRIES))

# Entries whose results are also counted, as [calls, non-None results]:
# the vector-plan acceptance and the program-cache hit ratios.
OUTCOMES = {"repro.kernelc.vectorize.plan_for": "plan",
            "repro.kernelc.progcache.load": "cache_load"}


def _resolve(module_path: str, attr_path: str):
    owner = importlib.import_module(module_path)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class LayerTracer:
    """Spans and per-layer totals for the ops run while installed."""

    def __init__(self):
        self.spans: List[tuple] = []          # (layer, start, end, parent, op)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.outcomes: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        self.op_id: Optional[int] = None
        self._stack: List[list] = []
        self._wrappers = [self._wrap(layer, OUTCOMES.get(f"{module}.{attr}"),
                                     *_resolve(module, attr))
                          for layer, module, attr in LAYER_ENTRIES]

    def _wrap(self, layer: str, outcome: Optional[str], owner, name: str):
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(tracer.spans), 0]
            tracer.spans.append(None)          # reserve this span's index
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_ns[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                tracer.spans[frame[0]] = (layer, start, end, parent, tracer.op_id)
            if outcome is not None:
                counts = tracer.outcomes[outcome]
                counts[0] += 1
                counts[1] += result is not None
            return result

        return owner, name, original, traced

    def install(self) -> None:
        for owner, name, _original, traced in self._wrappers:
            setattr(owner, name, traced)

    def uninstall(self) -> None:
        for owner, name, original, _traced in self._wrappers:
            setattr(owner, name, original)

    def covered_ns(self) -> int:
        return sum(self.self_ns.values())

    def chrome_events(self, pid: int, origin_ns: int) -> List[dict]:
        """The spans as Chrome trace-event ``X`` slices on one host
        track (timestamps in microseconds from ``origin_ns``)."""
        events = [
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": "host (perfbench layer spans)"}},
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
             "args": {"name": "benchmark thread"}},
        ]
        for index, (layer, start, end, parent, op) in enumerate(self.spans):
            events.append({
                "ph": "X", "name": layer, "cat": "host", "pid": pid, "tid": 0,
                "ts": (start - origin_ns) / 1e3, "dur": (end - start) / 1e3,
                "args": {"span": index, "parent": parent, "op": op},
            })
        return events


def write_chrome_trace(path: str, tracer: LayerTracer, origin_ns: int,
                       device_trace: dict) -> None:
    """One Chrome trace: the session's device timeline (modeled clock,
    one process per device, from ``repro.scope``) next to the host layer
    spans (host clock)."""
    events = list(device_trace["traceEvents"])
    pid = max((e["pid"] for e in events), default=-1) + 1
    events.extend(tracer.chrome_events(pid, origin_ns))
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns",
                   "otherData": {"producer": "perfbench"}}, handle)
