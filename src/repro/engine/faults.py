"""``FaultController`` — crash-fault cascade and recovery for one session.

The §5 robustness extension at the engine level.  A node crash is modeled
as the graph's own sanctioned degenerate case — *"model an absent node as
an isolated one"* (:meth:`~repro.graphs.graph.Graph.apply_delta`): the
crash deletes every incident edge, recovery re-inserts the saved edges
with their saved weights.  Both directions are therefore ordinary
:class:`~repro.dynamic.delta.GraphDelta` events driving the PR-5
invalidation cascade (topology → caches → pool scan → quotas → charged
regeneration), with three crash-specific additions:

1. **Memory loss** — a crash destroys walk state *resident at* the node:
   pooled tokens stored there are evicted by a vectorized destination
   probe (:meth:`~repro.walks.store.WalkStore.rows_held_at`) on top of the
   usual path scan, and in-flight cohort walks parked there are truncated
   to their longest still-valid prefix by
   :meth:`~repro.engine.core.WalkEngine._advance_interleaved`'s per-sweep
   fault poll.
2. **Owed-edge bookkeeping** — edges whose *other* endpoint is still
   crashed at recovery time transfer to that partner's owed set and come
   back when the partner recovers, so no edge is ever resurrected into a
   half-crashed pair and none is lost across overlapping failures.
3. **Recovery charging** — every recovery cost (regeneration sweeps,
   stale-tree rebuilds, prefix replays, and the idle backoff rounds spent
   waiting for a crashed source to come back) bills to the
   ``"serve/recovery"`` sub-phase.  The scheduler excludes that phase from
   cohort apportionment, which extends the ledger-balance identity to
   Σ attributed + maintain + churn + recovery = session delta, exactly.

Exactness survives because crash *and* recovery both mutate the sampling
law of the crashed node's neighborhood, and both trigger the same
truncation/eviction rule: a surviving recorded step was sampled from a
node whose one-step law is identical on every graph from its sampling
time through the final topology, so by induction the served endpoint law
is exactly ``P^ℓ`` on the live graph (chi-square-proved in
``tests/test_fault_serving.py``).  Recovery never resamples a surviving
step — prefixes are *replayed* (:func:`~repro.walks.regenerate.replay_segments`),
the sampling-once discipline of
:class:`~repro.congest.faults.ReliableTokenWalkProtocol` at segment scale.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.congest.faults import FaultSchedule, FaultStep, FaultyNetwork
from repro.congest.phases import SERVE_RECOVERY
from repro.dynamic.delta import GraphDelta
from repro.engine.model import _jsonify
from repro.errors import WalkError

__all__ = ["FaultController", "FaultReport", "RECOVERY_PHASE"]

RECOVERY_PHASE = SERVE_RECOVERY


@dataclass(frozen=True)
class FaultReport:
    """Outcome of one applied :class:`~repro.congest.faults.FaultStep`.

    ``tokens_lost_at_crashed`` counts tokens evicted because they were
    *stored at* a crashed node (memory loss), a subset-overlapping count of
    ``tokens_evicted`` which also covers law invalidation through the
    mutated neighborhood.  ``regen_rounds`` (and every other round in
    ``rounds``) bills to ``"serve/recovery"``.
    """

    at_round: int
    crashed: tuple[int, ...]
    recovered: tuple[int, ...]
    edges_deleted: int
    edges_restored: int
    mutated_nodes: int
    tokens_scanned: int
    tokens_evicted: int
    tokens_lost_at_crashed: int
    full_eviction: bool
    shards_affected: tuple[int, ...]
    tokens_regenerated: int
    regen_rounds: int
    rounds: int
    deferred_shards: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return _jsonify(dataclasses.asdict(self))


class FaultController:
    """Drives a :class:`~repro.congest.faults.FaultSchedule` on one engine.

    Holds the session's liveness surface, the schedule cursor (steps fire
    as the session ledger's round counter passes their ``at_round``), the
    owed-edge sets of currently-crashed nodes, and cumulative recovery
    telemetry.  Created by
    :meth:`~repro.engine.core.WalkEngine.attach_faults`.
    """

    def __init__(self, engine, schedule: FaultSchedule | None = None) -> None:
        self.engine = engine
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.live = np.ones(engine.graph.n, dtype=bool)
        self.cursor = 0
        self.reports: list[FaultReport] = []
        # node -> (incident edge rows, their weights) saved at crash time.
        self._owed: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._backoff_level = 0
        self.events = 0
        self.crashes_seen = 0
        self.recoveries_seen = 0
        self.tokens_evicted = 0
        self.tokens_regenerated = 0
        self.walks_recovered = 0  # in-flight walks resumed from a surviving prefix
        self.walks_restarted = 0  # in-flight walks restarted from their source
        self.backoff_waits = 0
        self.backoff_wait_rounds = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def crashed_count(self) -> int:
        return int((~self.live).sum())

    def has_pending(self) -> bool:
        return self.cursor < len(self.schedule.steps)

    def next_pending_round(self) -> int | None:
        if not self.has_pending():
            return None
        return self.schedule.steps[self.cursor].at_round

    def recovery_pending(self, node: int) -> bool:
        """Will ``node`` recover in a step the cursor has not yet fired?"""
        return self.schedule.recovery_pending(int(node), after_index=self.cursor)

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def poll(self) -> tuple[list[FaultReport], np.ndarray | None]:
        """Fire every scheduled step whose round has passed.

        Returns ``(reports, mutated_mask)`` where ``mutated_mask`` is the
        union of the fired steps' mutated-node masks (``None`` when nothing
        fired) — exactly what in-flight slot truncation needs: a surviving
        prefix step is valid iff it was sampled from a never-mutated node,
        and truncation against the union equals sequential truncation
        against each step (the first invalid step is the first invalid
        step of the union).
        """
        steps = self.schedule.steps
        net = self.engine.network
        fired: list[FaultReport] = []
        mutated_mask: np.ndarray | None = None
        while self.cursor < len(steps) and steps[self.cursor].at_round <= net.rounds:
            step = steps[self.cursor]
            self.cursor += 1
            report, step_mask = self._apply(step)
            fired.append(report)
            if mutated_mask is None:
                mutated_mask = step_mask
            else:
                mutated_mask |= step_mask
        if fired:
            self._backoff_level = 0
        return fired, mutated_mask

    def apply_step(self, step: FaultStep, *, round_budget: int | None = None) -> FaultReport:
        """Apply one explicit fault step immediately (ad-hoc injection)."""
        report, _mask = self._apply(step, round_budget=round_budget)
        return report

    def wait_for_next_step(self) -> int:
        """Charge idle rounds toward the next scheduled step; backoff-paced.

        Used when every serviceable walk is parked on a crashed node: the
        session has nothing to do but let simulated time pass until the
        scheduled recovery.  Waits grow exponentially (1, 2, 4, ... capped
        at 256 rounds) but never overshoot the next step's round; the
        level resets whenever a step fires.  All waits bill to
        ``"serve/recovery"``.
        """
        nxt = self.next_pending_round()
        if nxt is None:
            raise WalkError("wait_for_next_step called with no pending fault step")
        net = self.engine.network
        gap = max(1, nxt - net.rounds)
        wait = min(1 << min(self._backoff_level, 8), gap)
        self._backoff_level += 1
        with net.phase(RECOVERY_PHASE):
            net.charge(wait)
        self.backoff_waits += 1
        self.backoff_wait_rounds += wait
        return wait

    # ------------------------------------------------------------------
    # The cascade
    # ------------------------------------------------------------------
    def _apply(
        self, step: FaultStep, *, round_budget: int | None = None
    ) -> tuple[FaultReport, np.ndarray]:
        # Fault-episode context rides every span the cascade opens
        # (eviction scans, quota rebuilds, "serve/recovery" regeneration);
        # instant events mark the crash/recovery on the trace timeline.
        probe = self.engine.obs
        with probe.annotate(fault_episode=self.events + 1):
            report, mutated_mask = self._apply_impl(step, round_budget=round_budget)
        ledger = self.engine.network.ledger
        if report.crashed:
            probe.event("crash", ledger, nodes=len(report.crashed), episode=self.events)
        if report.recovered:
            probe.event("recover", ledger, nodes=len(report.recovered), episode=self.events)
        metrics = probe.metrics
        if metrics is not None:
            nodes = metrics.counter(
                "repro_fault_nodes_total", "Nodes crashed/recovered by fault cascades."
            )
            if report.crashed:
                nodes.inc(len(report.crashed), kind="crash")
            if report.recovered:
                nodes.inc(len(report.recovered), kind="recover")
            if report.tokens_evicted:
                metrics.counter(
                    "repro_tokens_evicted_total", "Pool tokens evicted, by cause."
                ).inc(report.tokens_evicted, cause="fault")
            if report.tokens_regenerated:
                metrics.counter(
                    "repro_tokens_added_total", "Pool tokens created by refills, by kind."
                ).inc(report.tokens_regenerated, kind="recovery")
        return report, mutated_mask

    def _apply_impl(
        self, step: FaultStep, *, round_budget: int | None = None
    ) -> tuple[FaultReport, np.ndarray]:
        engine = self.engine
        graph = engine.graph
        net = engine.network
        n = graph.n
        rounds_before = net.rounds

        crashing = [int(v) for v in step.crash if self.live[v]]
        recovering = [int(v) for v in step.recover if not self.live[v]]

        # Crash capture FIRST, from the pre-step graph: each crashing node
        # claims its incident edge rows (an edge between two nodes crashing
        # in the same step is claimed once, by the lower-indexed victim).
        edge_array = graph.edge_array
        weights = graph.edge_weights()
        claimed = np.zeros(len(edge_array), dtype=bool)
        delete_rows: list[np.ndarray] = []
        for v in crashing:
            incident = ((edge_array[:, 0] == v) | (edge_array[:, 1] == v)) & ~claimed
            rows = np.flatnonzero(incident)
            claimed[rows] = True
            self._owed[v] = (edge_array[rows].copy(), weights[rows].copy())
            delete_rows.append(rows)

        # Liveness flips before recovery processing so partner checks see
        # the post-step world (two nodes recovering together re-link).
        for v in recovering:
            self.live[v] = True
        for v in crashing:
            self.live[v] = False
        self.crashes_seen += len(crashing)
        self.recoveries_seen += len(recovering)

        insert_edges: list[np.ndarray] = []
        insert_weights: list[np.ndarray] = []
        for v in recovering:
            edges, w = self._owed.pop(v, (np.empty((0, 2), dtype=np.int64), np.empty(0)))
            partners = np.where(edges[:, 0] == v, edges[:, 1], edges[:, 0])
            restorable = self.live[partners]
            insert_edges.append(edges[restorable])
            insert_weights.append(w[restorable])
            # Edges to still-crashed partners transfer to the partner's
            # owed set; they come back when the partner recovers.
            for row in np.flatnonzero(~restorable):
                p = int(partners[row])
                pe, pw = self._owed.get(p, (np.empty((0, 2), dtype=np.int64), np.empty(0)))
                self._owed[p] = (
                    np.concatenate([pe, edges[row : row + 1]]),
                    np.concatenate([pw, w[row : row + 1]]),
                )

        deleted = (
            np.concatenate(delete_rows) if delete_rows else np.empty(0, dtype=np.int64)
        )
        delta = GraphDelta(
            insert_edges=(
                np.concatenate(insert_edges)
                if insert_edges
                else np.empty((0, 2), dtype=np.int64)
            ),
            delete_edges=edge_array[deleted],
            insert_weights=np.concatenate(insert_weights) if insert_weights else None,
        )

        mutated_mask = np.zeros(n, dtype=bool)
        scanned = evicted = lost_at_crashed = 0
        full_eviction = False
        affected: set[int] = set()
        regen = None
        if not delta.is_empty:
            remap = graph.apply_delta(delta)
            net.refresh_topology()
            heatmap = engine.obs.heatmap
            if heatmap is not None:
                # Crash/recover rebuilds the CSR too: forward the slot
                # rename so heatmap accumulators survive (same contract as
                # the churn controller).
                heatmap.apply_remap(
                    remap, n=graph.n, edge_src=graph.csr_source, edge_dst=graph.csr_target
                )
            engine._tree_cache.clear()
            mutated_mask[remap.mutated_nodes] = True
        else:
            remap = None

        # Every crashing node's resident memory is lost even when it had no
        # edges left to delete (e.g. its whole neighborhood crashed first).
        crashed_mask = np.zeros(n, dtype=bool)
        if crashing:
            crashed_mask[crashing] = True

        pool = engine.pool
        manager = engine.pool_manager
        if pool is not None and manager is not None and (crashing or recovering):
            store = pool.store
            scanned = store.total_unused()
            held = store.rows_held_at(crashed_mask)
            lost_at_crashed = int(held.size)
            if pool.record_paths:
                rows = (
                    store.find_invalid_rows(
                        mutated_mask, remap.deleted_edge_keys, n
                    )
                    if remap is not None
                    else np.empty(0, dtype=np.int64)
                )
                rows = np.union1d(rows, held)
            else:
                # No recorded hops to scan: evict everything (correct but
                # not incremental), matching the churn fallback.
                rows = store.live_rows()
                full_eviction = True
            sources = store.evict_rows(rows)
            evicted = int(sources.size)
            self.tokens_evicted += evicted
            # Quotas re-derive from the post-step degree profile: a crashed
            # (isolated) source's ⌈η·0⌉ = 0 base allocation drops it out of
            # every refill plan automatically; recovery restores it.
            manager.rebuild_quotas()
            if evicted:
                affected.update(int(s) for s in np.unique(sources % manager.num_shards))
            if remap is not None and remap.num_mutated:
                affected.update(
                    int(s) for s in np.unique(remap.mutated_nodes % manager.num_shards)
                )
            regen = manager.restore_shards(
                net,
                engine.rng,
                sorted(affected),
                round_budget=round_budget,
                phase=RECOVERY_PHASE,
            )
            self.tokens_regenerated += regen.tokens_added

        if isinstance(net, FaultyNetwork):
            net.mark_crashed(crashing)
            net.mark_recovered(recovering)

        self.events += 1
        report = FaultReport(
            at_round=step.at_round,
            crashed=tuple(crashing),
            recovered=tuple(recovering),
            edges_deleted=remap.edges_deleted if remap is not None else 0,
            edges_restored=remap.edges_inserted if remap is not None else 0,
            mutated_nodes=remap.num_mutated if remap is not None else 0,
            tokens_scanned=scanned,
            tokens_evicted=evicted,
            tokens_lost_at_crashed=lost_at_crashed,
            full_eviction=full_eviction,
            shards_affected=tuple(sorted(affected)),
            tokens_regenerated=regen.tokens_added if regen is not None else 0,
            regen_rounds=regen.rounds if regen is not None else 0,
            rounds=net.rounds - rounds_before,
            deferred_shards=regen.deferred_shards if regen is not None else (),
        )
        self.reports.append(report)
        return report, mutated_mask
