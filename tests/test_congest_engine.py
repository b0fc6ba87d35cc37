"""Tests for the CONGEST engine: charging rules, queueing, the ledger."""

from __future__ import annotations

import pytest

from repro.congest import Message, Network, Protocol
from repro.errors import ProtocolError
from repro.graphs import cycle_graph, path_graph, star_graph


class TestDeliverStep:
    def test_single_message_one_round(self):
        net = Network(path_graph(4))
        assert net.deliver_step([0]) == 1
        assert net.rounds == 1
        assert net.messages_sent == 1

    def test_congestion_charges_max_per_edge(self):
        g = star_graph(5)
        net = Network(g)
        # Three messages down the same directed edge -> 3 rounds.
        slot = int(g.indptr[0])
        rounds = net.deliver_step([slot, slot, slot])
        assert rounds == 3
        assert net.ledger.max_congestion == 3

    def test_parallel_edges_one_round(self):
        g = path_graph(4)
        net = Network(g)
        # One message per distinct slot -> 1 round regardless of count.
        slots = list(range(g.n_slots))
        assert net.deliver_step(slots) == 1
        assert net.messages_sent == g.n_slots

    def test_aggregation_collapses_congestion(self):
        g = star_graph(5)
        net = Network(g)
        slot = int(g.indptr[0])
        rounds = net.deliver_step([slot] * 10, aggregate=True)
        assert rounds == 1
        assert net.messages_sent == 1  # one (source, count) message

    def test_capacity_divides_congestion(self):
        g = star_graph(5)
        net = Network(g, capacity=2)
        slot = int(g.indptr[0])
        assert net.deliver_step([slot] * 5) == 3  # ceil(5/2)

    def test_empty_is_free(self):
        net = Network(path_graph(3))
        assert net.deliver_step([]) == 0
        assert net.rounds == 0

    def test_bad_slot_rejected(self):
        net = Network(path_graph(3))
        with pytest.raises(ProtocolError):
            net.deliver_step([999])

    def test_oversized_message_rejected(self):
        net = Network(path_graph(3), max_words=2)
        with pytest.raises(ProtocolError):
            net.deliver_step([0], words=3)


class TestDeliverStepGrouped:
    def test_same_group_aggregates_like_aggregate_true(self):
        g = star_graph(5)
        net = Network(g)
        slot = int(g.indptr[0])
        rounds = net.deliver_step_grouped([slot] * 10, [7] * 10)
        assert rounds == 1
        assert net.messages_sent == 1  # one (source, count) message

    def test_distinct_groups_congest_per_edge(self):
        g = star_graph(5)
        net = Network(g)
        slot = int(g.indptr[0])
        # Three distinct sources on one edge: three (source, count)
        # messages regardless of token multiplicity.
        rounds = net.deliver_step_grouped([slot] * 6, [1, 1, 2, 2, 3, 3])
        assert rounds == 3
        assert net.messages_sent == 3
        assert net.ledger.max_congestion == 3

    def test_groups_on_distinct_edges_one_round(self):
        g = path_graph(4)
        net = Network(g)
        slots = list(range(g.n_slots))
        assert net.deliver_step_grouped(slots, list(range(len(slots)))) == 1

    def test_capacity_divides_group_congestion(self):
        g = star_graph(5)
        net = Network(g, capacity=2)
        slot = int(g.indptr[0])
        assert net.deliver_step_grouped([slot] * 3, [1, 2, 3]) == 2  # ceil(3/2)

    def test_mismatched_shapes_rejected(self):
        net = Network(path_graph(3))
        with pytest.raises(ProtocolError, match="equal length"):
            net.deliver_step_grouped([0, 1], [0])

    def test_empty_is_free(self):
        net = Network(path_graph(3))
        assert net.deliver_step_grouped([], []) == 0
        assert net.rounds == 0

    def test_bad_slot_and_oversize_rejected(self):
        net = Network(path_graph(3), max_words=2)
        with pytest.raises(ProtocolError):
            net.deliver_step_grouped([999], [0])
        with pytest.raises(ProtocolError):
            net.deliver_step_grouped([0], [0], words=3)


class TestDeliverPairs:
    def test_pair_congestion(self):
        net = Network(path_graph(4))
        rounds = net.deliver_pairs([0, 0, 1], [1, 1, 2])
        assert rounds == 2  # (0,1) carries two messages
        assert net.messages_sent == 3

    def test_pair_aggregate(self):
        net = Network(path_graph(4))
        assert net.deliver_pairs([0, 0], [1, 1], aggregate=True) == 1
        assert net.messages_sent == 1

    def test_mismatched_shapes(self):
        net = Network(path_graph(4))
        with pytest.raises(ProtocolError):
            net.deliver_pairs([0, 1], [1])

    def test_empty(self):
        net = Network(path_graph(4))
        assert net.deliver_pairs([], []) == 0


class TestDeliverSequential:
    def test_charges_hops(self):
        net = Network(path_graph(5))
        assert net.deliver_sequential([0, 1, 2, 3, 4, 3, 2, 1]) == 7
        assert net.rounds == 7
        assert net.messages_sent == 7

    def test_zero_hops_free(self):
        net = Network(path_graph(5))
        assert net.deliver_sequential([3]) == 0
        assert net.rounds == 0

    def test_negative_rejected(self):
        net = Network(path_graph(5))
        with pytest.raises(ProtocolError):
            net.deliver_sequential([])


class TestLedgerPhases:
    def test_phase_attribution(self):
        net = Network(path_graph(4))
        with net.phase("alpha"):
            net.deliver_step([0])
        with net.phase("beta"):
            net.deliver_step([0])
            net.deliver_step([0])
        assert net.ledger.phase_rounds("alpha") == 1
        assert net.ledger.phase_rounds("beta") == 2
        assert net.rounds == 3

    def test_nested_phase_goes_to_inner(self):
        net = Network(path_graph(4))
        with net.phase("outer"):
            net.deliver_step([0])
            with net.phase("inner"):
                net.deliver_step([0])
        assert net.ledger.phase_rounds("outer") == 1
        assert net.ledger.phase_rounds("inner") == 1

    def test_snapshot_totals_match(self):
        net = Network(path_graph(4))
        with net.phase("a"):
            net.deliver_step([0, 1])
        snap = net.ledger.snapshot()
        assert snap["rounds"] == net.rounds
        assert snap["rounds[a]"] == net.rounds

    def test_phase_sum_equals_total(self):
        net = Network(path_graph(4))
        with net.phase("a"):
            net.deliver_step([0])
        with net.phase("b"):
            net.deliver_sequential([0, 1, 2, 3])
        total = sum(s.rounds for s in net.ledger.phases.values())
        assert total == net.rounds

    def test_invocation_count(self):
        net = Network(path_graph(4))
        for _ in range(3):
            with net.phase("p"):
                pass
        assert net.ledger.phases["p"].invocations == 3

    def test_negative_charge_rejected(self):
        net = Network(path_graph(4))
        with pytest.raises(ValueError):
            net.ledger.charge(-1)

    def test_phase_total_sums_family(self):
        # "family" and "family/sub" phases sum under phase_total; unrelated
        # names sharing the prefix as a substring do not.
        net = Network(path_graph(4))
        with net.phase("pool-refill"):
            net.deliver_step([0])
        with net.phase("pool-refill/maintain"):
            net.deliver_step([0])
            net.deliver_step([0])
        with net.phase("pool-refillable"):
            net.deliver_step([0])
        assert net.ledger.phase_total("pool-refill") == 3
        assert net.ledger.phase_total("pool-refill/maintain") == 2
        assert net.ledger.phase_total("absent") == 0


class _EchoProtocol(Protocol):
    """Node 0 sends a ping along a path; each node forwards until the end."""

    name = "echo"

    def __init__(self, hops: int) -> None:
        self.hops = hops
        self.done_at: int | None = None

    def on_start(self, api) -> None:
        api.send(0, 1, ("ping", self.hops - 1))

    def on_receive(self, api, node, messages) -> None:
        for msg in messages:
            _tag, remaining = msg.payload
            if remaining == 0:
                self.done_at = node
            else:
                api.send(node, node + 1, ("ping", remaining - 1))

    def is_done(self, api) -> bool:
        return self.done_at is not None


class _FloodAllProtocol(Protocol):
    """Node 0 sends one message to every neighbor at start."""

    name = "flood-all"

    def __init__(self) -> None:
        self.received: list[int] = []

    def on_start(self, api) -> None:
        for u in api.graph.neighbor_set(0):
            api.send(0, u, "hi")

    def on_receive(self, api, node, messages) -> None:
        self.received.extend(m.dst for m in messages)


class _CongestedProtocol(Protocol):
    """Sends `count` messages down one edge at start; measures queueing."""

    name = "congested"

    def __init__(self, count: int) -> None:
        self.count = count
        self.arrival_rounds: list[int] = []

    def on_start(self, api) -> None:
        for i in range(self.count):
            api.send(0, 1, i)

    def on_receive(self, api, node, messages) -> None:
        self.arrival_rounds.extend(api.round for _ in messages)


class TestEventDrivenEngine:
    def test_path_token_rounds(self):
        g = path_graph(6)
        net = Network(g)
        proto = _EchoProtocol(hops=5)
        rounds = net.run(proto)
        assert rounds == 5
        assert proto.done_at == 5

    def test_parallel_sends_one_round(self):
        g = star_graph(6)
        net = Network(g)
        proto = _FloodAllProtocol()
        rounds = net.run(proto)
        assert rounds == 1
        assert sorted(proto.received) == [1, 2, 3, 4, 5]

    def test_fifo_queueing_spreads_rounds(self):
        g = path_graph(3)
        net = Network(g)
        proto = _CongestedProtocol(4)
        rounds = net.run(proto)
        assert rounds == 4  # capacity 1: one message per round
        assert proto.arrival_rounds == [1, 2, 3, 4]

    def test_capacity_speeds_queue(self):
        g = path_graph(3)
        net = Network(g, capacity=2)
        proto = _CongestedProtocol(4)
        assert net.run(proto) == 2

    def test_send_to_non_neighbor_rejected(self):
        g = path_graph(4)
        net = Network(g)

        class Bad(Protocol):
            def on_start(self, api):
                api.send(0, 3, "x")

        with pytest.raises(ProtocolError):
            net.run(Bad())

    def test_oversized_protocol_message_rejected(self):
        g = path_graph(4)
        net = Network(g, max_words=2)

        class Wide(Protocol):
            def on_start(self, api):
                api.send(0, 1, "x", words=5)

        with pytest.raises(ProtocolError):
            net.run(Wide())

    def test_round_budget_enforced(self):
        g = cycle_graph(4)
        net = Network(g)

        class Forever(Protocol):
            def on_start(self, api):
                api.send(0, 1, None)

            def on_receive(self, api, node, messages):
                nxt = (node + 1) % 4
                api.send(node, nxt, None)

            def is_done(self, api):
                return False

        with pytest.raises(ProtocolError):
            net.run(Forever(), max_rounds=50)

    def test_idle_but_not_done_is_deadlock(self):
        g = path_graph(3)
        net = Network(g)

        class Stuck(Protocol):
            def is_done(self, api):
                return False

        with pytest.raises(ProtocolError):
            net.run(Stuck())

    def test_message_metadata(self):
        msg = Message(src=0, dst=1, payload="x", words=2)
        assert msg.words == 2
        with pytest.raises(ValueError):
            Message(src=0, dst=1, payload="x", words=0)

    def test_invalid_network_params(self):
        with pytest.raises(ProtocolError):
            Network(path_graph(3), capacity=0)
        with pytest.raises(ProtocolError):
            Network(path_graph(3), max_words=0)
