"""Outside-in span tracing for the benchmark's traced run.

The benchmark times the calls into each layer's public functions from
outside the program: :meth:`SpanRecorder.install` replaces every function
in :data:`TARGETS` with a timing wrapper.  Call sites import functions by
name (``from repro.walks.short_walks import perform_short_walks``), so a
module-level function is rebound at *every* ``repro.*`` module attribute
that holds it; a method is replaced once, on its class.  The untraced run
never calls :meth:`install`, so it executes the program's own functions.

Spans live in memory as parallel arrays ``(name, start, end, parent)``;
:meth:`SpanRecorder.summary` derives each span's self time (its duration
minus the durations of its direct children) and :meth:`SpanRecorder.dump`
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

__all__ = ["EXPORT", "LAYERS", "ROOT", "TARGETS", "SpanRecorder", "target_name", "traced_names"]

#: Name of the span that covers the whole traced region; its self time is
#: the run time no listed call accounts for.
ROOT = "run"

#: Benchmark-side span around writing the obs exports (no program function
#: covers the three ``write`` calls as one step).
EXPORT = "obs.export"

#: ``(layer, module, qualname)`` of every traced program function.  The
#: layer is the ``repro`` subpackage; ``qualname`` is ``func`` or
#: ``Class.method``.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("graphs", "repro.graphs.generators", "random_regular_graph"),
    ("graphs", "repro.graphs.graph", "Graph.step_walk_slots"),
    ("graphs", "repro.graphs.graph", "Graph.apply_delta"),
    ("congest", "repro.congest.primitives", "build_bfs_tree"),
    ("congest", "repro.congest.primitives", "charged_convergecast"),
    ("congest", "repro.congest.primitives", "charged_broadcast"),
    ("congest", "repro.congest.network", "Network.deliver_step"),
    ("congest", "repro.congest.network", "Network.deliver_step_grouped"),
    ("congest", "repro.congest.network", "Network.deliver_pairs"),
    ("congest", "repro.congest.network", "Network.edge_slots_for_pairs"),
    ("walks", "repro.walks.single_walk", "single_random_walk"),
    ("walks", "repro.walks.many_walks", "many_random_walks"),
    ("walks", "repro.walks.short_walks", "perform_short_walks"),
    ("walks", "repro.walks.sample_destination", "sample_destination"),
    ("walks", "repro.walks.get_more_walks", "get_more_walks_batch"),
    ("walks", "repro.walks.store", "WalkStore.add_batch"),
    ("walks", "repro.walks.store", "WalkStore.holders_for_source"),
    ("walks", "repro.walks.store", "WalkStore.evict_rows"),
    ("engine", "repro.engine.core", "WalkEngine.prepare"),
    ("engine", "repro.engine.core", "WalkEngine.maintain"),
    ("engine", "repro.engine.core", "WalkEngine._advance_interleaved"),
    ("engine", "repro.engine.core", "WalkEngine._report_convergecast"),
    ("engine", "repro.engine.pool", "PoolManager.restore_shards"),
    ("serve", "repro.serve.scheduler", "WalkScheduler.submit"),
    ("serve", "repro.serve.scheduler", "WalkScheduler.tick"),
    ("dynamic", "repro.dynamic.controller", "ChurnController.apply"),
    ("obs", "repro.obs.probe", "Probe.charged"),
    ("obs", "repro.obs.probe", "Probe.phase_pushed"),
    ("obs", "repro.obs.probe", "Probe.phase_popped"),
    ("obs", "repro.obs.heatmap", "HeatmapSink.settle_charge"),
    ("obs", "repro.obs.heatmap", "HeatmapSink.apply_remap"),
)

LAYERS: tuple[str, ...] = ("graphs", "congest", "walks", "engine", "serve", "dynamic", "obs")


def target_name(layer: str, qualname: str) -> str:
    """Metric prefix of one traced function, e.g. ``walks.WalkStore.add_batch``."""
    return f"{layer}.{qualname}"


def traced_names() -> list[str]:
    """Every span name a traced run reports, program calls first."""
    return [target_name(layer, qual) for layer, _mod, qual in TARGETS] + [EXPORT]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it.

    Single-threaded by design: the benchmark runs every workload in one
    thread, so one open-span stack gives each span its parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # name -> callable(args) run after each call of that target.
        self.on_call: dict[str, object] = {}
        # Callables run whenever a span closes with at most one span (the
        # root) still open, i.e. a top-level call under the root returned.
        self.on_idle: list[object] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("span stack out of order")
        if len(self._stack) <= 1:
            for callback in self.on_idle:
                callback()

    @contextmanager
    def span(self, name: str):
        """Record one benchmark-side span around the ``with`` body."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records one span.

        A callable registered in :attr:`on_call` under ``name`` receives
        each call's positional arguments just before the span closes.
        """
        name_id = self._name_id(name)
        opener, closer = self._open, self._close
        hook = self.on_call.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opener(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                if hook is not None:
                    hook(args)
                closer(idx)

        return traced

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def install(self, targets=TARGETS, *, packages=("repro",)) -> dict[str, int]:
        """Wrap every target; returns how many bindings each name replaced.

        A method is replaced on its class.  A module-level function is
        replaced at every attribute of every loaded module under
        ``packages`` that holds the original object, so ``from x import f``
        call sites see the wrapper too.
        """
        rebound: dict[str, int] = {}
        for layer, module_name, qualname in targets:
            name = target_name(layer, qualname)
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                if not inspect.isfunction(original):
                    raise TypeError(f"{name} is not a plain method")
                self._rebind(owner, attr, self.wrap(original, name))
                rebound[name] = 1
                continue
            original = getattr(module, qualname)
            if not inspect.isfunction(original):
                raise TypeError(f"{name} is not a plain function")
            wrapper = self.wrap(original, name)
            count = 0
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not any(
                    mod_name == p or mod_name.startswith(p + ".") for p in packages
                ):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)
                        count += 1
            rebound[name] = count
        return rebound

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the direct children's durations."""
        if self._stack:
            raise RuntimeError("spans still open")
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def check_nesting(self) -> None:
        """Raise unless every span lies inside its parent and after its older siblings."""
        last_child_end: dict[int, float] = {}
        for idx, parent in enumerate(self.parent):
            start, end = self.start[idx], self.end[idx]
            if end < start:
                raise AssertionError(f"span {idx} ends before it starts")
            if parent < 0:
                continue
            if parent >= idx:
                raise AssertionError(f"span {idx} opened before its parent {parent}")
            if start < self.start[parent] or end > self.end[parent]:
                raise AssertionError(f"span {idx} leaves its parent {parent}")
            if start < last_child_end.get(parent, start):
                raise AssertionError(f"span {idx} overlaps an older sibling")
            last_child_end[parent] = end

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls": n, "self_s": s}}`` summed over all spans."""
        own = self.self_times()
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for idx, name_id in enumerate(self.name_of):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += own[idx]
        return out

    def durations(self, name: str) -> list[float]:
        """Inclusive duration of every span called ``name``, in call order."""
        name_id = self._name_ids.get(name)
        return [
            e - s for n, s, e in zip(self.name_of, self.start, self.end) if n == name_id
        ]

    def dump(self, path) -> None:
        """Write every span as ``[name, start_s, end_s, parent]`` JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self.name_of, self.start, self.end, self.parent):
                fh.write(json.dumps(row) + "\n")
