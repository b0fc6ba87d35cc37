"""Distributed primitives: BFS-tree construction, convergecast, broadcast.

These are the O(D)-round building blocks the paper's subroutines lean on —
SAMPLE-DESTINATION is literally "three sweeps over a BFS tree" (Algorithm 3)
and the RST/mixing applications use tree aggregation for cover checks and
bucket counts.

Each primitive exists in two forms that are *proved equivalent by tests*:

* an **event-driven protocol** executed message-by-message on the
  :class:`~repro.congest.network.Network` engine (the ground truth), and
* a **charged fast path** that computes the same result centrally and
  charges the identical round/message cost to the ledger.

The fast paths exist because algorithms such as SINGLE-RANDOM-WALK invoke
`O(ℓ/λ)` tree sweeps whose message patterns are deterministic given the
tree; re-simulating identical floods adds nothing but wall-clock time.
``Network`` totals are the same either way (see
``tests/test_congest_primitives.py``), and so is the per-edge traffic: a
fast path charges a :class:`~repro.congest.load.FloodLoad` or
:class:`~repro.congest.load.TreeSweep` that lists exactly the messages the
protocol sends (``tests/test_edge_loads.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.congest.load import EVERY, FloodLoad, TreeSweep
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.protocol import Protocol, ProtocolAPI
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.util.contracts import charged_fast_path

__all__ = [
    "BfsTree",
    "BfsFloodProtocol",
    "ConvergecastProtocol",
    "BroadcastProtocol",
    "build_bfs_tree",
    "charged_convergecast",
    "charged_broadcast",
    "ancestor_closure",
]


@dataclass
class BfsTree:
    """A rooted BFS tree produced by the flood protocol.

    ``parent[root] == root``; ``depth`` is hop distance from the root;
    ``height`` is the eccentricity of the root (max depth).  ``unreached``
    counts the nodes a crash-tolerant build could not reach (depth ``-1``).
    """

    root: int
    parent: list[int]
    depth: list[int]
    children: list[list[int]] = field(repr=False)
    build_rounds: int = 0
    build_messages: int = 0
    unreached: int = 0
    #: Per-edge listing of the build flood, cached by :class:`FloodLoad`.
    flood_edges: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def height(self) -> int:
        return max(self.depth)

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def reached(self) -> int:
        return self.n - self.unreached

    @cached_property
    def parent_array(self) -> np.ndarray:
        return np.asarray(self.parent, dtype=np.int64)

    @cached_property
    def depth_array(self) -> np.ndarray:
        return np.asarray(self.depth, dtype=np.int64)

    def path_to_root(self, node: int) -> list[int]:
        """Tree path ``node -> ... -> root`` (inclusive both ends)."""
        if self.depth[node] < 0:
            raise ProtocolError(f"node {node} is not reachable from tree root {self.root}")
        path = [node]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
            if len(path) > self.n:
                raise ProtocolError("parent pointers contain a cycle")
        return path

    def nodes_by_depth_desc(self) -> list[int]:
        """All nodes ordered deepest-first (convergecast schedule order)."""
        return sorted(range(self.n), key=lambda v: -self.depth[v])


class BfsFloodProtocol(Protocol):
    """Distributed BFS-tree construction by flooding.

    Round 1: the root sends ``explore`` to every neighbor.  A node adopts as
    parent the lowest-ID sender among the explores it receives in the first
    round any arrive, then floods its remaining neighbors.  Completes in
    ``ecc(root)`` rounds — the ``O(D)`` the paper charges for Sweep 1 of
    SAMPLE-DESTINATION.
    """

    name = "bfs-flood"

    def __init__(self, root: int) -> None:
        self.root = root
        self.parent: dict[int, int] = {root: root}
        self.depth: dict[int, int] = {root: 0}

    def on_start(self, api: ProtocolAPI) -> None:
        for u in sorted(set(int(x) for x in api.graph.neighbors(self.root)) - {self.root}):
            api.send(self.root, u, ("explore", 0))

    def on_receive(self, api: ProtocolAPI, node: int, messages: Sequence[Message]) -> None:
        if node in self.parent:
            return
        explores = [m for m in messages if m.payload[0] == "explore"]
        if not explores:
            return
        best = min(explores, key=lambda m: (m.payload[1], m.src))
        self.parent[node] = best.src
        self.depth[node] = best.payload[1] + 1
        for u in sorted(set(int(x) for x in api.graph.neighbors(node)) - {node, best.src}):
            api.send(node, u, ("explore", self.depth[node]))

    def tree(self, n: int) -> BfsTree:
        if len(self.parent) != n:
            raise ProtocolError(
                f"BFS reached {len(self.parent)}/{n} nodes; graph must be connected"
            )
        parent = [self.parent[v] for v in range(n)]
        depth = [self.depth[v] for v in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            if v != self.root:
                children[parent[v]].append(v)
        return BfsTree(root=self.root, parent=parent, depth=depth, children=children)


def _vectorized_bfs(
    graph: Graph, root: int, *, allow_unreached: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """CSR frontier BFS: ``(depth, parent)`` with lowest-ID parent ties.

    Matches :class:`BfsFloodProtocol` exactly — a node's parent is the
    lowest-ID neighbor one level closer to the root (the flood's first-round
    tie-break).  Raises :class:`ProtocolError` on disconnected graphs with
    the protocol's message, unless ``allow_unreached`` (the crash-recovery
    regime, where crashed nodes are isolated by construction) — unreached
    nodes then keep depth ``-1`` and stay out of the tree.
    """
    n = graph.n
    depth = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, root, dtype=np.int64)
    depth[root] = 0
    frontier = np.array([root], dtype=np.int64)
    reached = 1
    level = 0
    while frontier.size:
        starts = graph.indptr[frontier]
        counts = graph.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Gather all outgoing slots of the frontier in one shot.
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        slots = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)
        targets = graph.csr_target[slots]
        senders = np.repeat(frontier, counts)
        fresh = depth[targets] == -1
        if not fresh.any():
            break
        cand_t = targets[fresh]
        cand_s = senders[fresh]
        # Lowest-ID sender per discovered node: sort by (node, sender) and
        # keep each group's first entry (reduceat-style min per segment).
        order = np.lexsort((cand_s, cand_t))
        cand_t = cand_t[order]
        cand_s = cand_s[order]
        first = np.ones(len(cand_t), dtype=bool)
        first[1:] = cand_t[1:] != cand_t[:-1]
        frontier = cand_t[first]
        parent[frontier] = cand_s[first]
        level += 1
        depth[frontier] = level
        reached += int(frontier.size)
    if reached != n and not allow_unreached:
        raise ProtocolError(f"BFS reached {reached}/{n} nodes; graph must be connected")
    return depth, parent


def _flood_cost(graph: Graph, root: int, depth: np.ndarray) -> tuple[int, int]:
    """Exact ``(rounds, messages)`` the event-driven flood would charge.

    Every node that joins the tree at depth ``d`` sends one ``explore`` to
    each distinct neighbor other than itself and its parent (the root skips
    only itself); unreached nodes never join.  The sends are delivered — and the
    run's last round happens — one round after the deepest sender adopts.
    One message per directed node pair means queues never exceed one, so
    congestion is 1 every delivering round, exactly as the engine observes.
    """
    n = graph.n
    non_loop = graph.csr_source != graph.csr_target
    pair_keys = np.unique(graph.csr_source[non_loop] * n + graph.csr_target[non_loop])
    distinct = np.bincount(pair_keys // n, minlength=n)
    sends = distinct - 1  # every non-root node skips its parent...
    sends[root] = distinct[root]  # ...the root skips only itself
    sends[depth < 0] = 0
    messages = int(sends.sum())
    rounds = 1 + int(depth[sends > 0].max()) if messages else 0
    return rounds, messages


def ancestor_closure(tree: BfsTree, nodes: Iterable[int]) -> set[int]:
    """Non-root nodes on the tree paths from reached ``nodes`` to the root.

    The reporters of a convergecast restricted to ``nodes``: exactly the
    nodes whose subtree holds one of them.
    """
    depth = tree.depth
    closure: set[int] = set()
    for node in nodes:
        if depth[node] < 0:
            continue  # cut off by a crash: no tree path to report along
        for hop in tree.path_to_root(node):
            if hop in closure:
                break
            closure.add(hop)
    closure.discard(tree.root)
    return closure


@charged_fast_path(
    equivalence_test="tests/test_congest_primitives.py::test_tree_and_ledger_identical"
)
def build_bfs_tree(
    network: Network,
    root: int,
    *,
    cache: dict[int, BfsTree] | None = None,
    use_protocol: bool = False,
    allow_unreached: bool = False,
) -> BfsTree:
    """Build (or recall) the BFS tree rooted at ``root``, charging rounds.

    By default this takes the **charged vectorized fast path**: the tree is
    computed by CSR frontier expansion and the ledger is charged the exact
    rounds/messages/congestion the event-driven
    :class:`BfsFloodProtocol` run would have produced (the flood's message
    pattern is deterministic given the topology, so re-simulating it adds
    wall-clock and nothing else — the same "charged fast path" contract as
    :func:`charged_convergecast`, proved by
    ``tests/test_congest_primitives.py``).  ``use_protocol=True`` forces the
    message-by-message execution instead.

    With a ``cache`` dict, the first call per root computes and records the
    exact cost; later calls charge the same recorded cost without
    recomputing.

    ``allow_unreached`` (vectorized path only) tolerates unreachable
    nodes — the crash-recovery regime where crashed nodes are isolated by
    construction.  Unreached nodes carry depth ``-1`` and join no
    children list; callers must not route to or through them.
    """
    if cache is not None and root in cache:
        tree = cache[root]
        if tree.build_rounds or tree.build_messages:
            network.charge(tree.build_rounds, FloodLoad(network, tree))
        return tree
    if use_protocol:
        proto = BfsFloodProtocol(root)
        messages_before = network.messages_sent
        rounds = network.run(proto)
        tree = proto.tree(network.graph.n)
        tree.build_rounds = rounds
        tree.build_messages = network.messages_sent - messages_before
    else:
        graph = network.graph
        depth, parent = _vectorized_bfs(graph, root, allow_unreached=allow_unreached)
        rounds, messages = _flood_cost(graph, root, depth)
        children: list[list[int]] = [[] for _ in range(graph.n)]
        parent_list = parent.tolist()
        depth_list = depth.tolist()
        for v, p in enumerate(parent_list):
            if v != root and depth_list[v] >= 0:
                children[p].append(v)
        tree = BfsTree(
            root=root,
            parent=parent_list,
            depth=depth.tolist(),
            children=children,
            build_rounds=rounds,
            build_messages=messages,
            unreached=int(np.count_nonzero(depth < 0)),
        )
        if rounds:
            network.charge(rounds, FloodLoad(network, tree))
    if cache is not None:
        cache[root] = tree
    return tree


class ConvergecastProtocol(Protocol):
    """Generic bottom-up aggregation over a BFS tree.

    Every node owns a value; interior nodes combine their own value with all
    children's results (via ``combine``) before reporting to their parent.
    Terminates in ``height`` rounds with ``n − 1`` messages.  ``combine``
    must be associative-ish in the usual convergecast sense: it receives the
    node's running value and one child value and returns the new value.
    """

    name = "convergecast"

    def __init__(
        self,
        tree: BfsTree,
        values: list[Any],
        combine: Callable[[Any, Any], Any],
        *,
        words: int = 1,
    ) -> None:
        self.tree = tree
        self.acc = list(values)
        self.combine = combine
        self.words = words
        self.pending = [len(tree.children[v]) for v in range(tree.n)]
        self.result: Any = None

    def _report(self, api: ProtocolAPI, node: int) -> None:
        if node == self.tree.root:
            self.result = self.acc[node]
        else:
            api.send(node, self.tree.parent[node], ("agg", self.acc[node]), words=self.words)

    def on_start(self, api: ProtocolAPI) -> None:
        ready = [v for v in range(self.tree.n) if self.pending[v] == 0]
        for v in ready:
            self._report(api, v)
        if self.tree.n == 1:
            self.result = self.acc[self.tree.root]

    def on_receive(self, api: ProtocolAPI, node: int, messages: Sequence[Message]) -> None:
        for msg in messages:
            self.acc[node] = self.combine(self.acc[node], msg.payload[1])
            self.pending[node] -= 1
        if self.pending[node] == 0:
            self._report(api, node)

    def is_done(self, api: ProtocolAPI) -> bool:
        return self.pending[self.tree.root] == 0


class BroadcastProtocol(Protocol):
    """Top-down dissemination of one payload over a BFS tree.

    ``height`` rounds, ``n − 1`` messages (each tree edge carries the
    payload once).
    """

    name = "broadcast"

    def __init__(self, tree: BfsTree, payload: Any, *, words: int = 1) -> None:
        self.tree = tree
        self.payload = payload
        self.words = words
        self.received: set[int] = set()

    def on_start(self, api: ProtocolAPI) -> None:
        self.received.add(self.tree.root)
        for child in self.tree.children[self.tree.root]:
            api.send(self.tree.root, child, self.payload, words=self.words)

    def on_receive(self, api: ProtocolAPI, node: int, messages: Sequence[Message]) -> None:
        self.received.add(node)
        for child in self.tree.children[node]:
            api.send(node, child, self.payload, words=self.words)


def charged_convergecast(
    network: Network,
    tree: BfsTree,
    values: list[Any],
    combine: Callable[[Any, Any], Any],
    *,
    words: int = 1,
    participants: set[int] | None = None,
) -> Any:
    """Fast-path convergecast: same result and cost as the protocol.

    ``participants`` optionally marks the nodes that actually carry
    information (e.g. holders of at least one walk token); nodes outside the
    ancestor closure of the participants stay silent, reducing the message
    charge — the sweep still takes ``height`` rounds because levels proceed
    in lockstep (Algorithm 3's "for i = D down to 0").
    """
    if words > network.max_words:
        raise ProtocolError(f"convergecast payload of {words} words exceeds cap")
    acc = list(values)
    for node in tree.nodes_by_depth_desc():
        if node == tree.root:
            continue
        acc[tree.parent[node]] = combine(acc[tree.parent[node]], acc[node])

    up = EVERY if participants is None else ancestor_closure(tree, participants)
    network.charge(tree.height, TreeSweep(network, tree, up=[(up, 1)]))
    return acc[tree.root]


def charged_broadcast(network: Network, tree: BfsTree, *, words: int = 1) -> None:
    """Fast-path broadcast cost: ``height`` rounds, one message per tree edge."""
    if words > network.max_words:
        raise ProtocolError(f"broadcast payload of {words} words exceeds cap")
    network.charge(tree.height, TreeSweep(network, tree, down=[(EVERY, 1)]))
