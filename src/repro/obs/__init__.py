"""repro.obs — passive observability over the simulated-round timeline.

Round-accurate span tracing (:class:`Tracer` → Chrome trace / JSONL), a
deterministic metrics registry (:class:`MetricsRegistry` → Prometheus
text), per-edge congestion cartography (:class:`HeatmapSink`), a
streaming SLO monitor (:class:`SloMonitor` over :class:`SlidingWindow`
percentile digests), and the zero-cost-when-off :class:`Probe`
indirection that the ledger, engine, scheduler, fault, and churn layers
all report through::

    engine = WalkEngine(graph, seed=7)
    tracer, metrics = Tracer(), MetricsRegistry()
    heatmap = HeatmapSink()
    slo = SloMonitor(specs=[SloSpec.parse("name=lat,metric=latency,target=2000")])
    engine.attach_observability(
        tracer=tracer, metrics=metrics, heatmap=heatmap, slo=slo
    )
    ...  # serve traffic as usual — bit-identical to the unobserved run
    tracer.write("trace.json", extra_events=heatmap.counter_events())
    metrics.write("metrics.prom")  # or metrics.json for the snapshot
    heatmap.write("heatmap.json")

The observer is strictly passive: it never charges the ledger and never
touches an RNG (enforced statically by the ``obs-passivity`` analyzer
rule), so golden ledgers and sampled walks stay bit-identical with
every sink attached.  The heatmap additionally satisfies an exact
conservation identity — each charge carries its per-edge load, so per
phase, located + retired equals the ledger's charged messages, and the
per-edge congestion maxima reproduce the ledger's.  Wall-clock access for overhead benches lives
behind the audited wrapper in :mod:`repro.obs.clock`.
"""

from repro.obs.clock import Stopwatch, perf_counter
from repro.obs.heatmap import HeatmapSink
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.probe import Probe
from repro.obs.report import (
    format_report,
    load_metrics,
    load_spans,
    summarize,
    summarize_metrics,
)
from repro.obs.slo import SloAlert, SloMonitor, SloSpec, format_dashboard
from repro.obs.trace import DEFAULT_RING_SIZE, Span, Tracer
from repro.obs.window import (
    DEFAULT_LATENCY_BUCKETS,
    EVENT_KINDS,
    LatencyDigest,
    SlidingWindow,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_RING_SIZE",
    "EVENT_KINDS",
    "Counter",
    "Gauge",
    "HeatmapSink",
    "Histogram",
    "LatencyDigest",
    "MetricsRegistry",
    "Probe",
    "SlidingWindow",
    "SloAlert",
    "SloMonitor",
    "SloSpec",
    "Span",
    "Stopwatch",
    "Tracer",
    "format_dashboard",
    "format_report",
    "load_metrics",
    "load_spans",
    "perf_counter",
    "summarize",
    "summarize_metrics",
]
