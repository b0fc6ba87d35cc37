"""Congestion cartography (PR 10): passivity + exact conservation.

The :class:`~repro.obs.heatmap.HeatmapSink` claims two hard guarantees:

* **passivity** — attaching per-edge attribution changes *nothing*
  simulated: every golden one-shot ledger stays bit-identical, and a
  full serve session through churn + a crash/recover episode lands on
  the identical round/message totals;
* **conservation** — for every ledger phase,
  ``located + retired == ledger messages`` exactly on every algorithm
  (each charge carries its per-edge load, so the residual is zero by
  construction), and the per-edge congestion maxima reproduce the
  ledger's ``max_congestion`` scalar.

Plus the churn-survival mechanics (slot remaps preserve history, deleted
slots retire without losing a message) and the export surfaces
(Perfetto counter track, JSON summary schema).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import WalkEngine, random_regular_graph
from repro.apps import estimate_mixing_time, power_iteration_mixing_time, random_spanning_tree
from repro.congest import Network
from repro.congest.load import SlotLoad
from repro.dynamic import sample_churn_delta
from repro.obs import HeatmapSink, Probe, SloMonitor, Tracer
from repro.walks import (
    many_random_walks,
    naive_metropolis_walk,
    naive_random_walk,
    podc09_random_walk,
    single_random_walk,
)

from test_ledger_golden import GOLDEN_SINGLE, SINGLE_CASES, _snapshot
from test_obs import run_session


def heatmapped_network(graph):
    """A fresh network whose ledger feeds a bound heatmap sink."""
    net = Network(graph, seed=0)
    heatmap = HeatmapSink()
    heatmap.bind_topology(graph.n, graph.csr_source, graph.csr_target)
    probe = Probe(heatmap=heatmap)
    net.ledger.observer = probe
    probe.attached(net.ledger)
    return net, heatmap


def golden_run_with_heatmap(name: str):
    """One golden single-walk case with a live heatmap observer."""
    factory, source, length, seed, kwargs = SINGLE_CASES[name]
    graph = factory()
    net, heatmap = heatmapped_network(graph)
    result = single_random_walk(graph, source, length, seed=seed, network=net, **kwargs)
    return net, result, heatmap


#: Every algorithm family, run on one small non-bipartite graph.
ALGORITHMS = {
    "naive": lambda g, net: naive_random_walk(
        g, 0, 150, seed=5, report_to_source=True, network=net
    ),
    "podc09": lambda g, net: podc09_random_walk(g, 0, 400, seed=5, network=net),
    "metropolis": lambda g, net: naive_metropolis_walk(
        g, 0, 300, seed=5, target=np.arange(1.0, g.n + 1), network=net
    ),
    "many_random_walks": lambda g, net: many_random_walks(
        g, [0, 7, 7, 30], 400, seed=5, network=net
    ),
    "many_random_walks_naive": lambda g, net: many_random_walks(
        g, [0, 7, 30], 6, seed=5, network=net
    ),
    "mixing_time": lambda g, net: estimate_mixing_time(g, 0, seed=5, samples=64, network=net),
    "power_iteration": lambda g, net: power_iteration_mixing_time(g, 0, network=net),
    "spanning_tree": lambda g, net: random_spanning_tree(g, seed=5, network=net),
}


def assert_conserved(net, heatmap):
    ledger = net.ledger
    for phase, stats in ledger.phases.items():
        assert heatmap.attributed_messages(phase) == stats.messages, phase
        assert heatmap.residual_messages(phase) == 0, phase
    assert heatmap.residual_messages() == 0
    assert heatmap.messages_total == ledger.messages
    assert heatmap.rounds_total == ledger.rounds
    assert heatmap.max_edge_congestion() == ledger.max_congestion


@pytest.fixture(scope="module")
def heatmapped_session():
    heatmap = HeatmapSink()
    engine, sched, snap = run_session(
        tracer=Tracer(), heatmap=heatmap, slo=SloMonitor()
    )
    return engine, sched, snap, heatmap


# ----------------------------------------------------------------------
# Passivity: attribution changes nothing simulated
# ----------------------------------------------------------------------
class TestPassivity:
    @pytest.mark.parametrize("name", sorted(SINGLE_CASES))
    def test_golden_ledgers_bit_identical_with_heatmap(self, name):
        net, result, _ = golden_run_with_heatmap(name)
        want = GOLDEN_SINGLE[name]
        got = {
            "destination": int(result.destination),
            "mode": result.mode,
            "gmw": result.get_more_walks_calls,
            **_snapshot(net),
        }
        assert got == want

    def test_serve_session_bit_identical_with_heatmap(self, heatmapped_session):
        engine_h, sched_h, _, _ = heatmapped_session
        engine_u, sched_u, _ = run_session()  # same seeds, no observer
        assert engine_h.network.rounds == engine_u.network.rounds
        assert engine_h.network.ledger.messages == engine_u.network.ledger.messages
        st, su = sched_h.stats(), sched_u.stats()
        assert st.walks_served == su.walks_served
        assert st.completed == su.completed
        assert st.tenants == su.tenants


# ----------------------------------------------------------------------
# Conservation: each charge's load is the ledger, edge by edge
# ----------------------------------------------------------------------
class TestConservation:
    @pytest.mark.parametrize("name", sorted(SINGLE_CASES))
    def test_golden_cases_conserve_exactly_with_zero_residual(self, name):
        net, _, heatmap = golden_run_with_heatmap(name)
        assert_conserved(net, heatmap)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_algorithm_conserves_exactly(self, name):
        graph = random_regular_graph(48, 4, 3)
        net, heatmap = heatmapped_network(graph)
        ALGORITHMS[name](graph, net)
        assert net.ledger.messages > 0
        assert_conserved(net, heatmap)
        # Passive: the observed run bills exactly what an unobserved one does.
        bare = Network(graph, seed=0)
        ALGORITHMS[name](graph, bare)
        assert _snapshot(bare) == _snapshot(net)

    def test_serve_session_conserves_through_churn_and_crash(self, heatmapped_session):
        engine, _, _, heatmap = heatmapped_session
        ledger = engine.network.ledger
        for phase, stats in ledger.phases.items():
            assert heatmap.attributed_messages(phase) == stats.messages, phase
            assert heatmap.residual_messages(phase) == 0, phase
        assert heatmap.residual_messages() == 0
        # Churn retired some deleted-slot history — still conserved above.
        assert heatmap.remaps >= 1
        assert heatmap.retired_messages() > 0
        assert heatmap.max_edge_congestion() == ledger.max_congestion

    def test_node_totals_are_sender_marginal_of_slot_totals(self, heatmapped_session):
        _, _, _, heatmap = heatmapped_session
        assert int(heatmap.node_totals().sum()) == int(heatmap.slot_totals().sum())
        assert int(heatmap.slot_totals().sum()) == heatmap.located_messages()


# ----------------------------------------------------------------------
# Churn survival: slot remaps never lose a message
# ----------------------------------------------------------------------
class TestRemap:
    def test_remap_preserves_history_and_retires_deleted_slots(self):
        rng = np.random.default_rng(5)
        graph = random_regular_graph(64, 4, 9)
        sink = HeatmapSink()
        sink.bind_topology(graph.n, graph.csr_source, graph.csr_target)
        old_slots = sink.n_slots
        sink.settle_charge("phase1", 1, SlotLoad(np.ones(old_slots, dtype=np.int64)))
        before = sink.attributed_messages("phase1")
        assert before == old_slots

        remap = graph.apply_delta(sample_churn_delta(graph, rng, deletes=6, inserts=6))
        sink.apply_remap(
            remap, n=graph.n, edge_src=graph.csr_source, edge_dst=graph.csr_target
        )
        # Conserved: every old message is on a surviving slot or retired.
        assert sink.attributed_messages("phase1") == before
        assert sink.retired_messages("phase1") == 2 * remap.edges_deleted
        assert sink.located_messages("phase1") == before - 2 * remap.edges_deleted
        assert sink.n_slots == remap.new_n_slots == len(graph.csr_source)
        # New slots (inserted edges) start with no history.
        totals = sink.slot_totals()
        assert int((totals > 1).sum()) == 0
        assert sink.max_edge_congestion() == 1

    def test_rebind_with_wrong_slot_count_is_an_error(self):
        graph = random_regular_graph(32, 4, 3)
        sink = HeatmapSink()
        sink.bind_topology(graph.n, graph.csr_source, graph.csr_target)
        with pytest.raises(ValueError, match="apply_remap"):
            sink.bind_topology(graph.n, graph.csr_source[:-2], graph.csr_target[:-2])

    def test_remap_with_wrong_width_is_an_error(self):
        graph = random_regular_graph(32, 4, 3)
        sink = HeatmapSink()
        sink.bind_topology(graph.n, graph.csr_source, graph.csr_target)
        rng = np.random.default_rng(1)
        remap = graph.apply_delta(sample_churn_delta(graph, rng, deletes=0, inserts=4))
        assert remap.new_n_slots != remap.old_n_slots
        sink.apply_remap(
            remap, n=graph.n, edge_src=graph.csr_source, edge_dst=graph.csr_target
        )
        # Replaying the same remap is a width mismatch — caught, not folded.
        with pytest.raises(ValueError, match="slots"):
            sink.apply_remap(
                remap, n=graph.n, edge_src=graph.csr_source, edge_dst=graph.csr_target
            )


# ----------------------------------------------------------------------
# Reports and exports
# ----------------------------------------------------------------------
class TestExports:
    def test_summary_schema_and_top_lists(self, heatmapped_session):
        _, _, _, heatmap = heatmapped_session
        summary = heatmap.summary(top=5)
        assert summary["schema"] == "congestion_heatmap/v1"
        assert summary["messages"] == heatmap.messages_total
        assert len(summary["top_edges"]) == 5
        assert len(summary["top_nodes"]) == 5
        # Hot lists are sorted by load, and every row names a real slot.
        loads = [row["messages"] for row in summary["top_edges"]]
        assert loads == sorted(loads, reverse=True)
        for row in summary["top_edges"]:
            assert 0 <= row["slot"] < heatmap.n_slots
            assert row["src"] == int(heatmap.edge_src[row["slot"]])
            assert row["dst"] == int(heatmap.edge_dst[row["slot"]])
        # Pipelined cohorts share every charge, so no charge carries a
        # tenant annotation here (see test_tenant_attribution below for
        # the private-report path that does).
        assert summary["tenants"] == {}
        # Phase table carries the conservation split per phase.
        for phase, cell in summary["phases"].items():
            assert (
                cell["located"] + cell["retired"] == heatmap.attributed_messages(phase)
            )
            assert cell["residual"] == 0

    def test_tenant_attribution_on_private_report_charges(self):
        from repro.serve import TenantRegistry

        graph = random_regular_graph(200, 4, 3)
        engine = WalkEngine(graph, seed=5, record_paths=False, auto_maintain=False)
        heatmap = HeatmapSink()
        engine.attach_observability(heatmap=heatmap)
        engine.prepare(length_hint=128)
        registry = TenantRegistry()
        registry.register("free", weight=1.0)
        registry.register("pro", weight=4.0)
        sched = engine.scheduler(tenants=registry, pipelined_report=False)
        sched.submit([0, 1], 128, tenant="pro")
        sched.submit([2, 3], 128, tenant="free")
        sched.drain()
        table = heatmap.tenant_table()
        # Non-pipelined per-ticket report convergecasts carry the tenant
        # annotation into settlement.
        assert set(table) == {"free", "pro"}
        assert all(cell["messages"] > 0 for cell in table.values())

    def test_counter_events_form_a_monotonic_perfetto_track(self, heatmapped_session):
        _, _, _, heatmap = heatmapped_session
        events = heatmap.counter_events()
        assert events, "expected counter samples from a full session"
        assert all(ev["ph"] == "C" for ev in events)
        message_ts = [ev["ts"] for ev in events if ev["name"] == "attributed messages"]
        assert message_ts == sorted(message_ts)
        totals = [
            ev["args"]["messages"] for ev in events if ev["name"] == "attributed messages"
        ]
        assert totals == sorted(totals)  # cumulative counter never decreases

    def test_json_roundtrip_and_write(self, heatmapped_session, tmp_path):
        _, _, _, heatmap = heatmapped_session
        doc = json.loads(heatmap.to_json(top=3))
        assert doc["schema"] == "congestion_heatmap/v1"
        path = heatmap.write(tmp_path / "heatmap.json", top=3)
        assert json.loads(path.read_text()) == doc

    def test_chrome_trace_merges_counter_track(self, tmp_path):
        heatmap = HeatmapSink()
        engine, _, _ = run_session(tracer=(tracer := Tracer()), heatmap=heatmap)
        trace = tracer.to_chrome_trace(
            extra_events=heatmap.counter_events(),
            extra_other={"heatmap_messages": heatmap.messages_total},
        )
        counters = [ev for ev in trace["traceEvents"] if ev.get("ph") == "C"]
        assert len(counters) == len(heatmap.counter_events())
        assert trace["otherData"]["heatmap_messages"] == engine.network.ledger.messages
