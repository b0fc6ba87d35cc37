"""The single indirection between instrumented code and the obs sinks.

A :class:`Probe` is the one object instrumentation points talk to: the
ledger drives its observer interface (``phase_pushed``/``phase_popped``/
``charged``/``delta_measured``), and the engine/scheduler/fault/churn
layers add context (``annotate``) and instant events (``event``).

Zero-cost-when-off is the design constraint: a sink-less probe
early-returns from every hook on a single attribute check, ``annotate``
hands back one shared ``nullcontext`` (no allocation), and engines that
never attach observability leave ``ledger.observer`` as ``None`` so the
hot charge path pays exactly one ``is not None`` test.  The probe is
strictly *passive* — it reads the ledger, never charges it, and never
touches an RNG (enforced by the ``obs-passivity`` analyzer rule).
"""

from __future__ import annotations

from contextlib import nullcontext

__all__ = ["Probe"]

_NULL = nullcontext()


class _Annotation:
    """Context-stack frame pushed by :meth:`Probe.annotate`."""

    __slots__ = ("_probe", "_ctx")

    def __init__(self, probe: Probe, ctx: dict) -> None:
        self._probe = probe
        self._ctx = ctx

    def __enter__(self) -> _Annotation:
        probe = self._probe
        probe._context.append(self._ctx)
        merged = dict(probe._merged)
        merged.update(self._ctx)
        probe._merged = merged
        return self

    def __exit__(self, *exc: object) -> None:
        probe = self._probe
        probe._context.pop()
        merged: dict = {}
        for frame in probe._context:
            merged.update(frame)
        probe._merged = merged


class Probe:
    """Ledger observer + annotation/event entry point for one engine."""

    __slots__ = (
        "tracer",
        "metrics",
        "heatmap",
        "slo",
        "_context",
        "_merged",
        "_rounds_total",
        "_messages_total",
        "_congestion_gauge",
        "_spans_dropped_gauge",
    )

    def __init__(self, tracer=None, metrics=None, heatmap=None, slo=None) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.heatmap = heatmap
        self.slo = slo
        self._context: list[dict] = []
        self._merged: dict = {}
        if metrics is not None:
            # Cached instruments: ``charged`` runs on every ledger charge,
            # so it must not pay a registry lookup per call.
            self._rounds_total = metrics.counter(
                "repro_rounds_total", "Simulated rounds charged, by ledger phase."
            )
            self._messages_total = metrics.counter(
                "repro_messages_total", "Messages charged, by ledger phase."
            )
            self._congestion_gauge = metrics.gauge(
                "repro_congestion_max", "Worst per-edge congestion observed."
            )
            self._spans_dropped_gauge = (
                metrics.gauge(
                    "repro_trace_spans_dropped",
                    "Spans evicted from the tracer ring buffer.",
                )
                if tracer is not None
                else None
            )
        else:
            self._rounds_total = None
            self._messages_total = None
            self._congestion_gauge = None
            self._spans_dropped_gauge = None

    @property
    def active(self) -> bool:
        return (
            self.tracer is not None
            or self.metrics is not None
            or self.heatmap is not None
            or self.slo is not None
        )

    @property
    def context(self) -> dict:
        """The currently merged annotation context (read-only by convention)."""
        return self._merged

    def annotate(self, **context: object):
        """Attach ``context`` (tenant, ticket, cohort, ...) to spans opened inside.

        A ``scope=...`` key also names the scope span emitted for any
        ``delta_since`` measured inside the block.  With neither a tracer
        nor a heatmap (which attributes settled charges by the ``tenant``
        key) this returns a shared ``nullcontext`` — no allocation on the
        off path.
        """
        if self.tracer is None and self.heatmap is None:
            return _NULL
        return _Annotation(self, context)

    # ------------------------------------------------------------------
    # ledger observer interface (see RoundLedger.observer)

    def attached(self, ledger) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.attached(ledger)

    def phase_pushed(self, name: str, ledger) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.phase_push(name, ledger, self._merged)

    def phase_popped(self, name: str, ledger) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.phase_pop(name, ledger)
            gauge = self._spans_dropped_gauge
            if gauge is not None:
                gauge.set(tracer.dropped)

    def charged(self, phase: str, rounds: int, load) -> None:
        messages, congestion = load.messages, load.congestion
        tracer = self.tracer
        if tracer is not None:
            tracer.charged(rounds, messages, congestion)
        heatmap = self.heatmap
        if heatmap is not None:
            heatmap.settle_charge(phase, rounds, load, tenant=self._merged.get("tenant"))
        counter = self._rounds_total
        if counter is not None:
            counter.inc(rounds, phase=phase)
            self._messages_total.inc(messages, phase=phase)
            if congestion:
                self._congestion_gauge.set_max(congestion)

    def delta_measured(self, ledger, snapshot, delta) -> None:
        tracer = self.tracer
        if tracer is not None:
            ctx = self._merged
            tracer.scope(str(ctx.get("scope", "delta")), ledger, snapshot, delta, ctx)

    # ------------------------------------------------------------------
    # instant events (crash / recovery / churn / admission markers)

    def event(self, name: str, ledger=None, **args: object) -> None:
        tracer = self.tracer
        if tracer is not None and ledger is not None:
            merged = {**self._merged, **args} if args else self._merged
            tracer.instant(name, ledger, merged)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("repro_events_total", "Instant events, by kind.").inc(
                1, kind=name
            )

    # ------------------------------------------------------------------
    # streaming-SLO feed (driven by the serving scheduler)

    def slo_record(self, kind: str, tenant: str | None = None, value: float | None = None) -> None:
        """Fold one serving event into the SLO monitor's open tick frame."""
        slo = self.slo
        if slo is not None:
            slo.record(kind, tenant, value)

    def slo_tick(self, tick: int, round_now: int, queue_depth: int = 0, ledger=None) -> list:
        """Close one scheduler tick: roll windows, evaluate rules, emit alerts.

        Alert transitions become tracer instant events (``slo-fire`` /
        ``slo-resolve``) and bump ``repro_slo_alerts_total``; the list of
        transitions is returned for the caller (dashboard rendering).
        """
        slo = self.slo
        if slo is None:
            return []
        alerts = slo.close_tick(tick, round_now, queue_depth)
        if alerts:
            metrics = self.metrics
            for alert in alerts:
                self.event(
                    f"slo-{alert.kind}",
                    ledger,
                    slo=alert.spec,
                    tenant=alert.tenant,
                    burn=round(alert.burn, 4),
                )
                if metrics is not None:
                    metrics.counter(
                        "repro_slo_alerts_total", "SLO alert transitions, by kind."
                    ).inc(1, kind=alert.kind)
        return alerts
