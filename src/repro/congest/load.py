"""Per-edge loads: what one ledger charge puts on each directed edge.

The CONGEST model (Section 1.1 of the paper) bounds bandwidth *per edge*,
so every charge is described by its load: a small value that knows its own
totals — ``messages`` (summed over edges) and ``congestion`` (the heaviest
per-edge load) — and lists its per-edge traffic on demand.
:meth:`Network.charge <repro.congest.network.Network.charge>` bills the
totals and hands the same value to the ledger's observer, so the ledger
and a per-edge observer read one object and cannot drift.  The listing
(:meth:`EdgeLoad.edges`) is built only when an observer asks for it.

Kinds: :class:`SlotLoad` (one batch iteration over CSR slots),
:class:`PairLoad` (directed node pairs), :class:`NodePath` (one token
hopping along a path), :class:`TreeSweep` (BFS-tree edges) and
:class:`FloodLoad` (the flood that builds a BFS tree).
``tests/test_edge_loads.py`` checks every kind's listing against its
totals on all connected graphs of up to 7 nodes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError

__all__ = [
    "EVERY",
    "IDLE",
    "EdgeLoad",
    "FloodLoad",
    "NodePath",
    "PairLoad",
    "SlotLoad",
    "TreeSweep",
]

_NO_EDGES = np.zeros(0, dtype=np.int64)


def node_array(nodes) -> np.ndarray:
    """A node collection (array, list, set or dict keys) as an int64 array."""
    if isinstance(nodes, np.ndarray):
        return nodes.astype(np.int64, copy=False)
    return np.fromiter(nodes, dtype=np.int64, count=len(nodes))


class EdgeLoad:
    """The traffic of one charge; the base class carries none.

    :meth:`edges` lists the traffic as ``(slots, messages, congestion)``
    int64 arrays keyed by directed CSR slot, where ``slots is None`` means
    a dense vector over slots ``0 .. len(messages) - 1``.  A slot that
    carries a message has per-edge congestion at least 1.
    """

    __slots__ = ("messages", "congestion")

    def __init__(self) -> None:
        self.messages = 0
        self.congestion = 0

    def edges(self) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        return _NO_EDGES, _NO_EDGES, _NO_EDGES


#: The load of a rounds-only charge (idle waiting, local computation).
IDLE = EdgeLoad()


class SlotLoad(EdgeLoad):
    """One batch iteration over directed CSR slots.

    ``counts[i]`` messages cross slot ``slots[i]`` — or slot ``i`` when
    ``slots`` is None (a dense vector) — and each slot's load is its
    message count.  ``unit=True`` collapses a slot's messages into one
    *(payload, count)* message.  :meth:`per_message` builds the dense
    vector from one slot entry per message.
    """

    __slots__ = ("_slots", "_counts", "_unit")

    def __init__(
        self,
        counts: np.ndarray,
        slots: np.ndarray | None = None,
        *,
        unit: bool = False,
        _messages: int | None = None,
    ):
        self._slots = slots
        self._counts = counts
        self._unit = unit
        if unit:
            self.messages = int(np.count_nonzero(counts))
            self.congestion = 1 if self.messages else 0
        else:
            self.messages = int(counts.sum()) if _messages is None else _messages
            self.congestion = int(counts.max()) if counts.size else 0

    @classmethod
    def per_message(cls, slots: np.ndarray, *, unit: bool = False) -> SlotLoad:
        """One message per entry of ``slots`` (whose size is the total)."""
        return cls(np.bincount(slots), unit=unit, _messages=int(slots.size))

    def edges(self):
        counts = np.minimum(self._counts, 1) if self._unit else self._counts
        return self._slots, counts, counts


class PairLoad(EdgeLoad):
    """Traffic keyed by directed (src, dst) node pairs of ``network``.

    ``messages[i]`` messages cross ``src[i] → dst[i]`` (default one each)
    under the per-edge load ``congestion[i]`` (default: the message
    count).  Parallel edges pool bandwidth, so each pair lands on its
    representative slot (:meth:`Network.edge_slots_for_pairs`).
    """

    __slots__ = ("_network", "_src", "_dst", "_messages", "_congestion")

    def __init__(self, network, src, dst, messages=None, congestion=None) -> None:
        if messages is None:
            messages = np.ones(len(src), dtype=np.int64)
        if congestion is None:
            congestion = messages
        self._network = network
        self._src = src
        self._dst = dst
        self._messages = messages
        self._congestion = congestion
        self.messages = int(messages.sum())
        self.congestion = int(congestion.max()) if congestion.size else 0

    def edges(self):
        slots = self._network.edge_slots_for_pairs(self._src, self._dst)
        if slots.size and int(slots.min()) < 0:
            raise ProtocolError("load crosses a node pair that is not an edge")
        return slots, self._messages, self._congestion


class NodePath(EdgeLoad):
    """One token hopping along ``nodes``, one hop per round.

    Hop ``i`` crosses ``nodes[i] → nodes[i + 1]``; a single message is in
    flight, so every crossed edge has load 1.
    """

    __slots__ = ("_network", "_nodes")

    def __init__(self, network, nodes) -> None:
        hops = len(nodes) - 1
        if hops < 0:
            raise ProtocolError("a path needs at least one node")
        self._network = network
        self._nodes = nodes
        self.messages = hops
        self.congestion = 1 if hops else 0

    def edges(self):
        nodes = np.asarray(self._nodes, dtype=np.int64)
        n = self._network.graph.n
        keys, hops = np.unique(nodes[:-1] * n + nodes[1:], return_counts=True)
        ones = np.ones(keys.size, dtype=np.int64)
        return PairLoad(self._network, keys // n, keys % n, hops, ones).edges()


#: :class:`TreeSweep` node group standing for every reached non-root node.
EVERY = object()


class TreeSweep(EdgeLoad):
    """Traffic on the edges of a BFS tree.

    ``up`` and ``down`` are groups ``(nodes, weight)``: each listed node's
    tree edge is crossed ``weight`` times, towards the root (``up``:
    node → parent) or away from it (``down``: parent → node).  ``nodes``
    is a collection of reached non-root nodes, or :data:`EVERY` for all of
    them.  With ``paths=True`` a node stands for every edge on its path to
    the root instead (tokens routed through the root).  Every crossed edge
    carries the per-edge load ``congestion``: 1 for level-synchronous and
    pipelined sweeps.
    """

    __slots__ = ("_network", "_tree", "_up", "_down", "_paths", "_load")

    def __init__(self, network, tree, *, up=(), down=(), paths: bool = False, congestion: int = 1):
        self._network = network
        self._tree = tree
        self._up = up
        self._down = down
        self._paths = paths
        self._load = congestion
        self.messages = sum(w * self._size(nodes) for nodes, w in (*up, *down))
        self.congestion = congestion if self.messages else 0

    @classmethod
    def funnel(cls, network, tree, k: int) -> TreeSweep:
        """``k`` items pipelined to the root and answered back down.

        The whole stream funnels through one link into the root, so it is
        booked on the root's first child edge in both directions, at load
        ``k`` (2k messages).
        """
        link = tree.root_link
        return cls(network, tree, up=[(link, k)], down=[(link, k)], congestion=k)

    def _size(self, nodes) -> int:
        if nodes is EVERY:
            return self._tree.reached - 1
        if self._paths:
            return int(self._tree.depth[node_array(nodes)].sum())
        return len(nodes)

    def _crossings(self, groups) -> np.ndarray:
        tree = self._tree
        counts = np.zeros(tree.n, dtype=np.int64)
        for nodes, w in groups:
            if nodes is EVERY:
                counts[tree.depth > 0] += w
                continue
            hops = node_array(nodes)
            if not self._paths:
                np.add.at(counts, hops, w)
                continue
            # Every path climbs one edge per step, all paths together.
            hops = hops[hops != tree.root]
            while hops.size:
                np.add.at(counts, hops, w)
                hops = tree.parent[hops]
                hops = hops[hops != tree.root]
        return counts

    def edges(self):
        parent = self._tree.parent
        up = self._crossings(self._up)
        down = self._crossings(self._down)
        up_nodes = np.flatnonzero(up)
        down_nodes = np.flatnonzero(down)
        messages = np.concatenate([up[up_nodes], down[down_nodes]])
        return PairLoad(
            self._network,
            np.concatenate([up_nodes, parent[down_nodes]]),
            np.concatenate([parent[up_nodes], down_nodes]),
            messages,
            np.full(messages.size, self._load, dtype=np.int64),
        ).edges()


class FloodLoad(EdgeLoad):
    """The explore flood that built ``tree`` (Sweep 1 of SAMPLE-DESTINATION).

    Every node that joined the tree sent one message to each distinct
    neighbour other than itself and its parent (the root skips only
    itself), so every crossed edge has load 1.  The totals are the tree's
    recorded build cost; the listing reads the network's table of distinct
    neighbour pairs and is cached on the tree, whose topology never
    changes (trees are dropped on churn).
    """

    __slots__ = ("_network", "_tree")

    def __init__(self, network, tree) -> None:
        self._network = network
        self._tree = tree
        self.messages = tree.build_messages
        self.congestion = 1 if tree.build_messages else 0

    def edges(self):
        tree = self._tree
        if tree.flood_edges is None:
            n = self._network.graph.n
            keys = self._network.neighbor_keys
            src, dst = keys // n, keys % n
            keep = (tree.depth[src] >= 0) & ((src == tree.root) | (dst != tree.parent[src]))
            tree.flood_edges = PairLoad(self._network, src[keep], dst[keep]).edges()
        return tree.flood_edges
