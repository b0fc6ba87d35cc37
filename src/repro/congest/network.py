"""The synchronous CONGEST engine.

This is the substrate every distributed algorithm in the library runs on.
It models the system of Section 1.1 of the paper:

* communication happens in synchronous *rounds*;
* in each round, each directed edge carries at most ``capacity`` messages of
  at most ``max_words`` words each (one ``O(log n)``-bit message per edge per
  round in the standard model, i.e. ``capacity=1``);
* local computation is free.

Two execution styles share one round/ledger namespace:

1. **Event-driven protocols** (:meth:`Network.run`) — per-node callbacks
   with FIFO queueing on congested edges.  Used for BFS construction,
   convergecast, broadcast, and the naive walk.
2. **Batch steps** (:meth:`Network.deliver_step`) — an algorithm hands the
   engine the full set of directed-edge traversals one logical iteration
   needs; the engine charges ``ceil(max-per-edge-load / capacity)`` rounds,
   which is exactly the congestion quantity bounded in the paper's
   Lemma 2.1 ("any iteration could require more than 1 round").  Used for
   the massively parallel short-walk phases where per-message callbacks
   would be needless overhead.

Both styles draw rounds from the same counter, so a composite algorithm
(e.g. SINGLE-RANDOM-WALK = batch Phase 1 + protocol-driven BFS sweeps +
batch stitching) reports one faithful total.  Every charge goes through
:meth:`Network.charge` with its per-edge load (:mod:`repro.congest.load`).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable, Sequence

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.congest.load import IDLE, EdgeLoad, NodePath, PairLoad, SlotLoad
from repro.congest.message import Message
from repro.congest.protocol import Protocol, ProtocolAPI
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.util.rng import make_rng

__all__ = ["Network"]


class Network:
    """A synchronous message-passing network over a :class:`Graph`.

    Parameters
    ----------
    graph:
        Topology.  Directed-edge identity uses the graph's CSR slots.
    capacity:
        Messages per directed edge per round (standard CONGEST: 1).
    max_words:
        Maximum words per message; a word is one ``O(log n)``-bit quantity.
        Default 8 admits constant-size payloads while rejecting accidental
        bulk transfer in one message.
    seed:
        Seed for the engine RNG handed to protocols (also accepts a
        :class:`numpy.random.Generator`).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        capacity: int = 1,
        max_words: int = 8,
        seed=None,
    ) -> None:
        if capacity < 1:
            raise ProtocolError(f"capacity must be >= 1, got {capacity}")
        if max_words < 1:
            raise ProtocolError(f"max_words must be >= 1, got {max_words}")
        self.graph = graph
        self.capacity = capacity
        self.max_words = max_words
        self.rng = make_rng(seed)
        self.ledger = RoundLedger()
        # Telemetry: total retransmissions reported by protocols run on
        # this network (protocols expose a `retransmissions` counter, e.g.
        # ReliableTokenWalkProtocol); aggregated here so engine/scheduler
        # stats can surface them without holding protocol objects.
        self.retransmissions_seen = 0
        self._pair_slot_index: tuple[np.ndarray, np.ndarray] | None = None
        # FIFO queue per directed edge, keyed by (src, dst).  Multi-edges
        # between the same pair pool their bandwidth, which matches the
        # multigraph-bandwidth equivalence used in Section 3.2.
        self._queues: dict[tuple[int, int], deque[Message]] = defaultdict(deque)
        self._build_multiplicity()

    def _build_multiplicity(self) -> None:
        # Directed adjacency with multiplicity, as sorted (u*n + v) keys —
        # built vectorized from the edge array; queries binary-search it.
        graph = self.graph
        ea = graph.edge_array
        if len(ea):
            u, v = ea[:, 0], ea[:, 1]
            non_loop = u != v
            keys = np.concatenate([u * graph.n + v, v[non_loop] * graph.n + u[non_loop]])
            self._mult_keys, self._mult_counts = np.unique(keys, return_counts=True)
        else:
            self._mult_keys = np.empty(0, dtype=np.int64)
            self._mult_counts = np.empty(0, dtype=np.int64)

    def refresh_topology(self) -> None:
        """Re-derive adjacency tables after the graph's edge set changed.

        Called by the churn cascade right after
        :meth:`~repro.graphs.graph.Graph.apply_delta` rebuilt the CSR
        arrays.  Only derived lookup state is rebuilt — the ledger, RNG,
        and round counters carry straight across the topology event (churn
        happens *between* rounds of one continuing execution).  Refusing
        to re-key in-flight messages is deliberate: protocols run to
        quiescence before control returns to the caller, so a non-empty
        queue here means a protocol was abandoned mid-run.
        """
        if any(self._queues.values()):
            raise ProtocolError("cannot change topology with messages in flight")
        self._queues.clear()
        self._build_multiplicity()
        self._pair_slot_index = None  # slot ids re-keyed by the churn remap

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rounds(self) -> int:
        """Total rounds consumed so far (the paper's complexity measure)."""
        return self.ledger.rounds

    @property
    def messages_sent(self) -> int:
        return self.ledger.messages

    def are_adjacent(self, u: int, v: int) -> bool:
        return self.edge_multiplicity(u, v) > 0

    def edge_multiplicity(self, u: int, v: int) -> int:
        """Number of parallel edges carrying ``u -> v`` traffic."""
        key = u * self.graph.n + v
        i = int(np.searchsorted(self._mult_keys, key))
        if i < len(self._mult_keys) and int(self._mult_keys[i]) == key:
            return int(self._mult_counts[i])
        return 0

    def phase(self, name: str):
        """Attribute subsequent costs to phase ``name`` (context manager)."""
        return self.ledger.phase(name)

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, rounds: int, load: EdgeLoad = IDLE) -> int:
        """Bill ``rounds`` rounds carrying ``load`` to the current phase.

        The one way into the ledger: ``load`` (a :mod:`repro.congest.load`
        value) supplies the message and congestion totals and reaches the
        ledger's observer whole, so per-edge attribution is the charge
        itself.  The default is a rounds-only charge.  Returns ``rounds``.
        """
        self.ledger.charge(rounds, load)
        return rounds

    def _pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        # Lazy (sorted pair-key, representative-slot) index: the first CSR
        # slot (stable argsort) represents each directed (src, dst) pair,
        # so parallel edges fold onto one canonical slot.  Invalidated by
        # refresh_topology().
        idx = self._pair_slot_index
        if idx is None:
            graph = self.graph
            keys = graph.csr_source.astype(np.int64) * graph.n + graph.csr_target
            order = np.argsort(keys, kind="stable").astype(np.int64)
            idx = self._pair_slot_index = (keys[order], order)
        return idx

    def edge_slots_for_pairs(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Representative directed CSR slot per (src, dst) pair; -1 if absent."""
        keys_sorted, order = self._pair_index()
        keys = np.asarray(sources, dtype=np.int64) * self.graph.n + np.asarray(
            targets, dtype=np.int64
        )
        if keys_sorted.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(keys_sorted, keys), keys_sorted.size - 1)
        return np.where(keys_sorted[pos] == keys, order[pos], -1)

    # ------------------------------------------------------------------
    # Batch-step execution
    # ------------------------------------------------------------------
    def _as_slot_array(self, slots: np.ndarray | Iterable[int]) -> np.ndarray:
        """Coerce to an int64 slot array and validate the CSR slot range."""
        arr = np.asarray(list(slots) if not isinstance(slots, np.ndarray) else slots, dtype=np.int64)
        if arr.size and (np.any(arr < 0) or np.any(arr >= self.graph.n_slots)):
            raise ProtocolError("slot index out of range")
        return arr

    def _check_words(self, words: int) -> None:
        if words > self.max_words:
            raise ProtocolError(f"message of {words} words exceeds the {self.max_words}-word cap")

    def _charge_iteration(self, load: EdgeLoad) -> int:
        """Charge one batch iteration: ``max(1, ceil(congestion/capacity))``."""
        return self.charge(max(1, -(-load.congestion // self.capacity)), load)

    def deliver_step(
        self,
        slots: np.ndarray | Iterable[int],
        *,
        aggregate: bool = False,
        words: int = 1,
    ) -> int:
        """Charge one logical iteration that pushes a message along each slot.

        ``slots`` are directed-edge CSR slot indices, one per message.  The
        iteration costs ``max(1, ceil(L / capacity))`` rounds where ``L`` is
        the heaviest per-edge load — the congestion measure from the
        paper's analysis.  With ``aggregate=True`` all messages sharing a
        directed edge collapse into a single *(payload, count)* message, the
        trick GET-MORE-WALKS uses ("only the count of the number of walks
        along an edge are passed"), making every iteration cost one round.

        Returns the number of rounds charged.
        """
        slot_arr = self._as_slot_array(slots)
        if slot_arr.size == 0:
            return 0
        self._check_words(words)
        return self._charge_iteration(SlotLoad.per_message(slot_arr, unit=aggregate))

    def deliver_step_grouped(
        self,
        slots: np.ndarray | Iterable[int],
        groups: np.ndarray | Iterable[int],
        *,
        words: int = 1,
    ) -> int:
        """Charge one iteration whose messages aggregate per (edge, group).

        The multi-source generalization of ``deliver_step(aggregate=True)``:
        ``groups[i]`` names the aggregation class of message ``i`` (for
        batched GET-MORE-WALKS, the walk's source ID).  Tokens of the *same*
        group crossing the same directed edge collapse into one
        *(group payload, count)* message — the paper's count-aggregation
        trick — while tokens of *different* groups stay distinct messages,
        so the per-edge load is the number of distinct groups on that edge.
        With a single group this charges exactly what
        ``deliver_step(aggregate=True)`` does.

        Returns the number of rounds charged.
        """
        slot_arr = self._as_slot_array(slots)
        group_arr = np.asarray(list(groups) if not isinstance(groups, np.ndarray) else groups, dtype=np.int64)
        if slot_arr.shape != group_arr.shape:
            raise ProtocolError("slots and groups must have equal length")
        if slot_arr.size == 0:
            return 0
        self._check_words(words)
        span = int(group_arr.max()) - int(group_arr.min()) + 1
        keys = slot_arr * span + (group_arr - int(group_arr.min()))
        used, per_edge = np.unique(np.unique(keys) // span, return_counts=True)
        return self._charge_iteration(SlotLoad(per_edge, used))

    def deliver_pairs(
        self,
        sources: np.ndarray | Iterable[int],
        targets: np.ndarray | Iterable[int],
        *,
        aggregate: bool = False,
        words: int = 1,
    ) -> int:
        """Like :meth:`deliver_step` but keyed by (src, dst) node pairs.

        Used when the caller has hop endpoints rather than CSR slots (walk
        regeneration re-sends along recorded trajectories).  Parallel edges
        between one node pair pool bandwidth here — identical to the
        event-driven engine's per-pair FIFO queues.
        """
        src = np.asarray(list(sources) if not isinstance(sources, np.ndarray) else sources, dtype=np.int64)
        dst = np.asarray(list(targets) if not isinstance(targets, np.ndarray) else targets, dtype=np.int64)
        if src.shape != dst.shape:
            raise ProtocolError("sources and targets must have equal length")
        if src.size == 0:
            return 0
        self._check_words(words)
        n = self.graph.n
        pair_keys, counts = np.unique(src * n + dst, return_counts=True)
        load = PairLoad(self, pair_keys // n, pair_keys % n, None if aggregate else counts)
        return self._charge_iteration(load)

    def deliver_sequential(self, path: Sequence[int]) -> int:
        """Charge a token travelling along ``path``, one hop per round.

        Hop ``i`` crosses ``path[i] → path[i + 1]``, so the charge is
        ``len(path) − 1`` rounds and messages.  For walk tokens and path
        routing, where congestion is structurally impossible (a single
        message moves per round).  Returns the number of hops.
        """
        load = NodePath(self, path)
        if load.messages:
            self.charge(load.messages, load)
        return load.messages

    # ------------------------------------------------------------------
    # Event-driven execution
    # ------------------------------------------------------------------
    def run(self, protocol: Protocol, *, max_rounds: int = 1_000_000, rng=None) -> int:
        """Execute ``protocol`` until quiescence; return rounds consumed.

        Messages queue FIFO per directed edge; at most ``capacity`` of them
        are delivered per round per edge.  The run ends when no messages are
        queued and ``protocol.is_done()`` holds.  Raises
        :class:`ProtocolError` if ``max_rounds`` elapse first (protocol
        bug or genuinely divergent algorithm).
        """
        api = ProtocolAPI(self, make_rng(rng) if rng is not None else self.rng)
        start_round = self.rounds
        protocol.on_start(api)
        self._enqueue(api.drain_outbox())

        rounds_used = 0
        while True:
            if not any(self._queues.values()):
                done = protocol.is_done(api)
                # is_done may queue recovery traffic (e.g. retransmissions
                # after message loss); pick it up before judging deadlock.
                self._enqueue(api.drain_outbox())
                if done:
                    break
                if not any(self._queues.values()):
                    raise ProtocolError(
                        f"protocol {protocol.name!r} is idle but not done (deadlock) "
                        f"after {rounds_used} rounds"
                    )
            if rounds_used >= max_rounds:
                raise ProtocolError(
                    f"protocol {protocol.name!r} exceeded the {max_rounds}-round budget"
                )
            protocol.on_round_begin(api)
            self._enqueue(api.drain_outbox())
            delivered = self._deliver_one_round()
            rounds_used += 1
            inbox: dict[int, list[Message]] = defaultdict(list)
            for msg in delivered:
                inbox[msg.dst].append(msg)
            for node in sorted(inbox):
                protocol.on_receive(api, node, inbox[node])
            self._enqueue(api.drain_outbox())
        self.retransmissions_seen += int(getattr(protocol, "retransmissions", 0))
        return self.rounds - start_round

    def _enqueue(self, messages: list[Message]) -> None:
        for msg in messages:
            self._queues[(msg.src, msg.dst)].append(msg)

    def _deliver_one_round(self) -> list[Message]:
        """Pop up to ``capacity`` messages from each directed edge; charge 1 round."""
        delivered: list[Message] = []
        # (src, dst, delivered, queued) per pair: the round's per-edge load.
        traffic: list[tuple[int, int, int, int]] = []
        for key in list(self._queues):
            queue = self._queues[key]
            load = len(queue)
            take = min(self.capacity, load)
            traffic.append((key[0], key[1], take, load))
            for _ in range(take):
                delivered.append(queue.popleft())
            if not queue:
                del self._queues[key]
        cols = np.asarray(traffic, dtype=np.int64).reshape(-1, 4)
        self.charge(1, PairLoad(self, cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3]))
        return delivered
