"""Spans recorded from outside the program, around its public entry points.

The traced run wraps module functions and class methods of ``repro`` with
timing shims; nothing inside ``src/`` changes.  Every wrapped call becomes
one span ``(id, parent, name, start, end)``, kept in memory and written out
once at the end under one run id.  A span's *self time* is its duration
minus the time its direct child spans cover, so ``TreeStore.rebuild``
reports its own work without the ``batched_max_prob_paths`` calls inside
it.

Module functions are wrapped under every name a caller looks them up by:
``imm.py`` binds ``greedy_max_cover`` into its own namespace at import
time, so patching ``repro.diffusion.rrpool`` alone would miss those calls.
:meth:`Tracer.wrap_function` therefore replaces every attribute of every
loaded ``repro`` module that *is* the original function object.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import uuid
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "install_layer_spans"]


class Tracer:
    """In-memory span recorder; thread-aware (the server runs engine work
    on an executor thread while the event loop thread handles requests)."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _shim(self, fn: Callable, name_of: Callable[[tuple], str]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((sid, parent, name_of(args), start, end))

        traced.__perfbench_original__ = fn
        return traced

    def wrap_function(self, module_name: str, attr: str, span: str) -> None:
        """Wrap ``module.attr`` and every alias of it in loaded ``repro`` modules."""
        original = getattr(sys.modules[module_name], attr)
        shim = self._shim(original, lambda args: span)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, shim)
                    self._undo.append(
                        functools.partial(setattr, module, name, original)
                    )

    def wrap_method(
        self, cls: type, attr: str, span: str | Callable[[tuple], str]
    ) -> None:
        """Wrap a method defined on ``cls`` itself (subclasses inherit it)."""
        original = cls.__dict__[attr]
        name_of = span if callable(span) else (lambda args, s=span: s)
        setattr(cls, attr, self._shim(original, name_of))
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- summaries ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``total_s``, ``self_s`` and ``calls``."""
        with self._lock:
            spans = list(self.spans)
        child_time: dict[int, float] = defaultdict(float)
        for __, parent, __, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, __, name, start, end in spans:
            entry = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            entry["total_s"] += end - start
            entry["self_s"] += max(0.0, end - start - child_time[sid])
            entry["calls"] += 1
        return out

    def write(self, path, **meta: Any) -> None:
        """Write every span as one JSONL event, all under this run id."""
        with open(path, "w") as handle:
            handle.write(json.dumps(dict(meta, event="run", run_id=self.run_id)) + "\n")
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "event": "span", "run_id": self.run_id, "id": sid,
                    "parent": parent, "name": name, "start": start, "end": end,
                }) + "\n")


def _technique(args: tuple) -> str:
    name = type(args[0]).name
    return "algorithms.select_s." + name.replace("+", "p")


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry point of each ``repro`` layer the benchmark names."""
    from repro.algorithms.base import IMAlgorithm
    from repro.diffusion import oracle, paths, rrpool
    from repro.framework.pool import ResilientPool

    tracer.wrap_method(IMAlgorithm, "select", _technique)
    tracer.wrap_function("repro.framework.isolation", "execute_cell", "framework.execute_cell")
    tracer.wrap_function("repro.diffusion.simulation", "monte_carlo_spread", "simulation.score")
    tracer.wrap_method(rrpool.FlatRRPool, "extend", "rrpool.extend")
    tracer.wrap_function("repro.diffusion.rrpool", "greedy_max_cover", "rrpool.max_cover")
    for cls in (oracle.SpreadOracle, oracle.SequentialMCOracle,
                oracle.BatchedMCOracle, oracle.SnapshotOracle):
        for attr in ("evaluate", "evaluate_many", "gain"):
            if attr in cls.__dict__:
                tracer.wrap_method(cls, attr, "oracle.evaluate")
    tracer.wrap_function("repro.diffusion.snapshots", "sample_live_masks", "snapshots.sample")
    tracer.wrap_function("repro.diffusion.paths", "build_tree_store", "paths.build")
    tracer.wrap_function("repro.diffusion.paths", "build_dag_store", "paths.build")
    tracer.wrap_method(paths.TreeStore, "rebuild", "paths.rebuild")
    tracer.wrap_method(paths.TreeStore, "gains", "paths.gains")
    tracer.wrap_method(paths.DagStore, "gains", "paths.gains")
    tracer.wrap_function("repro.diffusion.paths", "batched_max_prob_paths", "paths.dijkstra")
    tracer.wrap_method(ResilientPool, "run", "pool.run")
