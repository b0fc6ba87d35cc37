"""One benchmark repetition in a fresh process; prints one JSON line.

``run.py`` starts this script once per repetition so that every
repetition pays the full set-up (interpreter start, ``import repro``,
graph generation, engine set-up) and reports its own peak RSS.  Modes:

* ``full`` — set up, run the measured phase, check outputs;
* ``setup`` — set up only (an extra ``setup_s`` sample).

``--trace 1`` installs the outside-in span wrappers of ``tracing.py``
right after ``import repro`` and reports per-layer metrics; without it no
wrapper is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import weakref
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so it compares with the parent's
    # stamp taken just before it spawned this process.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class StoreCounter:
    """Token counters summed over every ``WalkStore`` the traced run touches.

    One-shot calls build and drop their engine (and its store) inside the
    call, so stores seen by ``add_batch`` are held until the enclosing
    top-level call returns, then read and kept only weakly.
    """

    def __init__(self) -> None:
        self.created = 0
        self.consumed = 0
        self._pending: list = []
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def saw(self, args) -> None:
        self._pending.append(args[0])

    def harvest(self) -> None:
        stores = list(self._seen.keys()) + self._pending
        self._pending = []
        for store in stores:
            created, consumed = self._seen.get(store, (0, 0))
            self.created += store.tokens_created - created
            self.consumed += store.tokens_consumed - consumed
            self._seen[store] = (store.tokens_created, store.tokens_consumed)


def _layer_metrics(recorder, counter: StoreCounter, counts: dict) -> dict:
    import numpy as np

    from tracing import LAYERS, ROOT as ROOT_SPAN, traced_names

    summary = recorder.summary()
    metrics: dict[str, float] = {}
    rollup = dict.fromkeys(LAYERS, 0.0)
    for name in traced_names():
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
        rollup[name.split(".")[0]] += row["self_s"]
    for layer, self_s in rollup.items():
        metrics[f"{layer}.self_s"] = self_s
    metrics["unattributed_s"] = summary[ROOT_SPAN]["self_s"]
    ticks = recorder.durations("serve.WalkScheduler.tick")
    metrics["serve.tick_p50_ms"] = float(np.percentile(ticks, 50)) * 1e3 if ticks else 0.0
    metrics["serve.tick_p90_ms"] = float(np.percentile(ticks, 90)) * 1e3 if ticks else 0.0
    metrics["walks.tokens_created"] = counter.created
    metrics["walks.tokens_consumed"] = counter.consumed
    metrics["walks.token_yield"] = counter.consumed / counter.created if counter.created else 0.0
    for key in (
        "congest.max_congestion",
        "serve.cohorts",
        "serve.walks_per_cohort",
        "dynamic.churn_events",
        "dynamic.tokens_evicted",
        "dynamic.tokens_regenerated",
        "obs.spans",
        "obs.heatmap_residual",
    ):
        metrics[key] = counts.get(key, 0)
    return metrics


@contextlib.contextmanager
def _traced(recorder):
    """Wrap the program's functions for the ``with`` body (no-op untraced)."""
    if recorder is None:
        yield
        return
    from tracing import ROOT as ROOT_SPAN

    recorder.install()
    try:
        with recorder.span(ROOT_SPAN):
            yield
    finally:
        recorder.uninstall()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t_begin = _now()
    import repro  # noqa: F401  - set-up cost: the package import

    from workloads import WORKLOADS, build_graph, no_span

    workload = WORKLOADS[args.workload]
    recorder = counter = None
    export_span = no_span
    if args.trace:
        from tracing import EXPORT, SpanRecorder

        recorder = SpanRecorder()
        counter = StoreCounter()
        recorder.on_call["walks.WalkStore.add_batch"] = counter.saw
        recorder.on_idle.append(counter.harvest)

        def export_span():
            return recorder.span(EXPORT)

    t_import = _now()
    with _traced(recorder):
        graph = build_graph(workload.n)
        t_graph = _now()
    # Input generation runs untraced and outside every timed region.
    inputs = workload.inputs(args.seed, graph) if args.mode == "full" else None
    with _traced(recorder):
        t_inputs = _now()
        state = workload.setup(graph, args.seed)
        t_ready = _now()
        outcome = workload.run(state, inputs, export_span) if args.mode == "full" else None
        t_done = _now()
    result = {
        "mode": args.mode,
        # Process start -> first request, less the input generation.
        "setup_s": (t_graph - args.spawned_at) + (t_ready - t_inputs),
        "import_s": t_import - t_begin,
        "graph_s": t_graph - t_import,
        "engine_setup_s": t_ready - t_inputs,
    }
    if outcome is not None:
        result.update(
            measured_s=outcome.measured_s,
            steps=outcome.steps,
            attempted=outcome.attempted,
            failures=outcome.failures,
            latencies_ms=outcome.latencies_ms,
            sim=outcome.sim,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            workload_s=(t_graph - t_import) + (t_done - t_inputs),
        )
    if recorder is not None and outcome is not None:
        counter.harvest()
        try:
            recorder.check_nesting()
            own = sum(recorder.self_times())
            if own > result["workload_s"]:
                raise AssertionError(f"self times {own:.3f}s exceed run time {result['workload_s']:.3f}s")
        except AssertionError as exc:
            outcome.failures.append(f"trace harness: {exc}")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        recorder.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result["layers"] = _layer_metrics(recorder, counter, outcome.counts)
        result["spans"] = len(recorder)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
