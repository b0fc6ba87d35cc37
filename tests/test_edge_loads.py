"""Every per-edge load kind lists exactly the traffic it bills.

A :mod:`repro.congest.load` value is the whole description of a charge:
the ledger bills its ``messages``/``congestion`` totals and an attached
heatmap reads its per-edge listing.  One test per kind checks, on every
connected graph of ``networkx.graph_atlas_g()`` (2–7 nodes, 995 graphs —
the enumeration of the cs168 ``topology_generator``), that the listed
per-edge messages sum to the billed ``messages`` and peak at the billed
``congestion``.  The tree and flood kinds are further checked edge by
edge against the event-driven protocols they stand for.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.congest import (
    BfsFloodProtocol,
    BroadcastProtocol,
    ConvergecastProtocol,
    Network,
    build_bfs_tree,
    charged_broadcast,
    charged_convergecast,
)
from repro.congest.load import (
    EVERY,
    FloodLoad,
    NodePath,
    PairLoad,
    SlotLoad,
    TreeSweep,
)
from repro.graphs.graph import Graph
from repro.obs import HeatmapSink, Probe


@pytest.fixture(scope="module")
def atlas() -> list[Graph]:
    graphs = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() >= 2 and nx.is_connected(g):
            graphs.append(Graph(g.number_of_nodes(), list(g.edges()), name=f"atlas{len(graphs)}"))
    assert len(graphs) == 995
    return graphs


def per_slot(load, n_slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Materialize ``load`` and check it against its own totals."""
    slots, messages, congestion = load.edges()
    if slots is None:
        slots = np.arange(messages.size)
    assert slots.shape == messages.shape == congestion.shape
    assert slots.size == 0 or (slots.min() >= 0 and slots.max() < n_slots)
    assert (messages >= 0).all()
    assert (congestion[messages > 0] >= 1).all()
    assert int(messages.sum()) == load.messages
    assert (int(congestion.max()) if congestion.size else 0) == load.congestion
    listed = np.bincount(slots, weights=messages, minlength=n_slots).astype(np.int64)
    peak = np.zeros(n_slots, dtype=np.int64)
    np.maximum.at(peak, slots, congestion)
    return listed, peak


def observed(graph: Graph) -> tuple[Network, HeatmapSink]:
    net = Network(graph, seed=0)
    sink = HeatmapSink()
    sink.bind_topology(graph.n, graph.csr_source, graph.csr_target)
    net.ledger.observer = Probe(heatmap=sink)
    return net, sink


def test_slot_loads(atlas):
    rng = np.random.default_rng(1)
    for graph in atlas:
        slots = rng.integers(0, graph.n_slots, size=3 * graph.n)
        counts = np.bincount(slots, minlength=graph.n_slots)
        ones = np.ones(graph.n_slots, dtype=np.int64)
        loads = [
            (SlotLoad.per_message(slots), counts),
            (SlotLoad.per_message(slots, unit=True), np.minimum(counts, 1)),
            (SlotLoad(np.bincount(slots)), counts),
            (SlotLoad(ones), ones),
            (SlotLoad(counts[counts > 0], np.flatnonzero(counts)), counts),
        ]
        for load, want in loads:
            listed, _ = per_slot(load, graph.n_slots)
            assert (listed == want).all(), graph.name


def test_pair_loads(atlas):
    rng = np.random.default_rng(2)
    for graph in atlas:
        net = Network(graph)
        picks = rng.integers(0, graph.n_slots, size=graph.n)
        src, dst = graph.csr_source[picks], graph.csr_target[picks]
        messages = rng.integers(1, 4, size=picks.size)
        congestion = messages + rng.integers(0, 3, size=picks.size)
        for load in (
            PairLoad(net, src, dst),
            PairLoad(net, src, dst, messages),
            PairLoad(net, src, dst, messages, congestion),
        ):
            per_slot(load, graph.n_slots)


def test_node_paths(atlas):
    rng = np.random.default_rng(3)
    for graph in atlas:
        net = Network(graph)
        for length in (0, 1, 3 * graph.n):
            path = graph.walk(int(rng.integers(graph.n)), length, rng)
            load = NodePath(net, path)
            assert load.messages == length
            per_slot(load, graph.n_slots)


def test_tree_sweeps(atlas):
    rng = np.random.default_rng(4)
    for graph in atlas:
        net = Network(graph)
        tree = build_bfs_tree(net, int(rng.integers(graph.n)))
        nodes = [v for v in range(graph.n) if v != tree.root]
        some = list(rng.choice(nodes, size=min(3, len(nodes)), replace=False))
        k = int(rng.integers(1, 5))
        for load in (
            TreeSweep(net, tree, up=[(EVERY, 1)]),
            TreeSweep(net, tree, down=[(EVERY, k)]),
            TreeSweep(net, tree, up=[(some, k), (nodes[:1], 1)], down=[(some, 2)]),
            TreeSweep(net, tree, up=[(some, 1)], down=[(nodes, 1)], paths=True),
            TreeSweep.funnel(net, tree, k),
        ):
            per_slot(load, graph.n_slots)
        assert TreeSweep.funnel(net, tree, k).congestion == k


def test_flood_loads_match_the_flood_protocol(atlas):
    rng = np.random.default_rng(5)
    for graph in atlas:
        root = int(rng.integers(graph.n))
        net, sink = observed(graph)
        tree = build_bfs_tree(net, root)
        listed, peak = per_slot(FloodLoad(net, tree), graph.n_slots)
        proto_net, proto_sink = observed(graph)
        proto_net.run(BfsFloodProtocol(root))
        assert (listed == proto_sink.slot_totals()).all(), graph.name
        assert (sink.slot_totals() == listed).all(), graph.name
        assert int(peak.max()) == proto_net.ledger.max_congestion == 1


def test_tree_sweeps_match_convergecast_and_broadcast_protocols(atlas):
    rng = np.random.default_rng(6)
    for graph in atlas:
        net = Network(graph)
        tree = build_bfs_tree(net, int(rng.integers(graph.n)))
        for fast, proto in (
            (
                lambda n: charged_convergecast(n, tree, [0] * graph.n, lambda a, b: a + b),
                ConvergecastProtocol(tree, [0] * graph.n, lambda a, b: a + b),
            ),
            (lambda n: charged_broadcast(n, tree), BroadcastProtocol(tree, "x")),
        ):
            fast_net, fast_sink = observed(graph)
            fast(fast_net)
            proto_net, proto_sink = observed(graph)
            proto_net.run(proto)
            assert (fast_sink.slot_totals() == proto_sink.slot_totals()).all(), graph.name
            assert fast_net.ledger.messages == proto_net.ledger.messages
            assert fast_sink.residual_messages() == proto_sink.residual_messages() == 0


def test_crash_tolerant_trees_bill_only_reached_nodes(atlas):
    # A crashed node is isolated (all its edges deleted): the flood and the
    # tree sweeps of a crash-tolerant tree bill exactly the reached nodes.
    for graph in atlas:
        crashed = graph.n - 1
        live = [(u, v) for u, v in graph.edge_array.tolist() if crashed not in (u, v)]
        if not live:
            continue
        holed = Graph(graph.n, live, name=graph.name)
        net = Network(holed)
        tree = build_bfs_tree(net, 0, allow_unreached=True)
        assert tree.unreached >= 1
        per_slot(FloodLoad(net, tree), holed.n_slots)
        for load in (
            TreeSweep(net, tree, up=[(EVERY, 1)]),
            TreeSweep(net, tree, down=[(EVERY, 1)]),
        ):
            per_slot(load, holed.n_slots)
            assert load.messages == tree.reached - 1
