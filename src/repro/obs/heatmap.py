"""Congestion cartography: per-edge/per-node message attribution.

The CONGEST model the paper charges against is fundamentally *per-edge* —
bandwidth is constrained on every link — yet the :class:`RoundLedger`
collapses a whole execution into one global ``max_congestion`` scalar.
A :class:`HeatmapSink` recovers the map.  Every charge carries its
per-edge load (a :mod:`repro.congest.load` value whose totals *are* the
charge's messages and congestion), and the
:class:`~repro.obs.probe.Probe` hands that load to :meth:`settle_charge`
from the ledger's ``charged`` notification; the sink lists it and adds it
into columnar per-phase accumulators.

The ledger and the sink read one value, so the conservation identity
holds by construction: for every phase,

    Σ per-edge located + retired == ledger ``messages``

where *retired* is history that belonged to churn-deleted edge slots.
:meth:`residual_messages` reports whatever the two sides miss — always
zero, and pinned so by ``tests/test_obs_heatmap.py`` — and the per-edge
congestion maxima reproduce ``max_congestion`` exactly.

Strictly passive: the sink never charges the ledger, never draws from an
RNG, and never reads wall-clock (the ``obs-passivity`` analyzer rule).

Edge identity is the directed CSR slot (the ledger's congestion unit).
Across a churn event the accounting survives via :meth:`apply_remap`,
re-keying every column through the :class:`~repro.dynamic.delta.DeltaRemap`
slot map; deleted slots' history moves to per-phase retired buckets that
keep counting toward conservation.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["HeatmapSink"]

#: Counter-track sampling: ring capacity and the decimation applied when
#: it fills (keep every other sample, double the stride) — deterministic,
#: bounded, and still round-accurate at both ends of long runs.
DEFAULT_SAMPLE_CAP = 4096


class HeatmapSink:
    """Columnar per-edge message attribution keyed by directed CSR slot.

    Lifecycle: :meth:`bind_topology` once at attach (done by
    ``WalkEngine.attach_observability``), then the probe calls
    :meth:`settle_charge` with every charge's load from the ledger's
    ``charged`` hook.  On a churn/fault topology event :meth:`apply_remap`
    re-keys the columns.
    """

    __slots__ = (
        "n",
        "n_slots",
        "edge_src",
        "edge_dst",
        "charges",
        "rounds_total",
        "messages_total",
        "remaps",
        "_phase_messages",
        "_phase_charged",
        "_phase_rounds",
        "_slot_cmax",
        "_retired",
        "_retired_cmax",
        "_tenant_messages",
        "_tenant_rounds",
        "_samples",
        "_sample_cap",
        "_sample_stride",
    )

    def __init__(self, *, sample_cap: int = DEFAULT_SAMPLE_CAP) -> None:
        if sample_cap < 2:
            raise ValueError("sample_cap must be >= 2")
        self.n = 0
        self.n_slots = 0
        self.edge_src: np.ndarray | None = None
        self.edge_dst: np.ndarray | None = None
        self.charges = 0
        self.rounds_total = 0
        self.messages_total = 0
        self.remaps = 0
        self._phase_messages: dict[str, np.ndarray] = {}
        self._phase_charged: dict[str, int] = {}
        self._phase_rounds: dict[str, int] = {}
        self._slot_cmax: np.ndarray | None = None
        self._retired: dict[str, int] = {}
        self._retired_cmax = 0
        self._tenant_messages: dict[str, int] = {}
        self._tenant_rounds: dict[str, int] = {}
        self._samples: list[tuple[int, int, int]] = []
        self._sample_cap = sample_cap
        self._sample_stride = 1

    # ------------------------------------------------------------------
    # Topology binding
    # ------------------------------------------------------------------
    def bind_topology(self, n: int, edge_src: np.ndarray, edge_dst: np.ndarray) -> None:
        """(Re)bind the directed-slot identity arrays.

        The accumulator columns are sized to ``len(edge_src)``; rebinding
        to a different slot count without an intervening
        :meth:`apply_remap` would silently misattribute history, so it is
        an error.
        """
        edge_src = np.array(edge_src, dtype=np.int64)  # defensive copies:
        edge_dst = np.array(edge_dst, dtype=np.int64)  # CSR rebuilds in place
        if self._slot_cmax is not None and len(edge_src) != self.n_slots:
            raise ValueError(
                f"topology has {len(edge_src)} slots but accumulators hold "
                f"{self.n_slots}; churn must go through apply_remap()"
            )
        self.n = int(n)
        self.n_slots = len(edge_src)
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        if self._slot_cmax is None:
            self._slot_cmax = np.zeros(self.n_slots, dtype=np.int64)

    # ------------------------------------------------------------------
    # Settlement (hot path)
    # ------------------------------------------------------------------
    def settle_charge(self, phase: str, rounds: int, load, tenant: str | None = None) -> None:
        """Add one charge's per-edge ``load`` under ``phase``.

        Called by the probe from the ledger's ``charged`` notification
        with the :class:`~repro.congest.load.EdgeLoad` the ledger billed.
        A load with unit congestion skips the per-slot maximum: it can only
        lift a touched slot to 1, which the message column already proves
        (see :meth:`_cmax_floor`).
        """
        messages = load.messages
        if messages:
            col = self._phase_messages.get(phase)
            if col is None:
                col = np.zeros(self.n_slots, dtype=np.int64)
                self._phase_messages[phase] = col
            slots, msgs, cong = load.edges()
            cmax = self._slot_cmax
            if slots is None:
                m = msgs.size
                col[:m] += msgs
                if load.congestion > 1:
                    np.maximum(cmax[:m], cong, out=cmax[:m])
            else:
                np.add.at(col, slots, msgs)
                if load.congestion > 1:
                    np.maximum.at(cmax, slots, cong)
            self._phase_charged[phase] = self._phase_charged.get(phase, 0) + messages
        self.rounds_total += rounds
        self.messages_total += messages
        self._phase_rounds[phase] = self._phase_rounds.get(phase, 0) + rounds
        if tenant is not None:
            self._tenant_messages[tenant] = self._tenant_messages.get(tenant, 0) + messages
            self._tenant_rounds[tenant] = self._tenant_rounds.get(tenant, 0) + rounds
        if self.charges % self._sample_stride == 0:
            samples = self._samples
            samples.append((self.rounds_total, self.messages_total, load.congestion))
            if len(samples) >= self._sample_cap:
                del samples[::2]
                self._sample_stride *= 2
        self.charges += 1

    # ------------------------------------------------------------------
    # Churn survival
    # ------------------------------------------------------------------
    def apply_remap(self, remap, *, n: int, edge_src: np.ndarray, edge_dst: np.ndarray) -> None:
        """Re-key every column through a churn slot remap.

        ``remap`` is the :class:`~repro.dynamic.delta.DeltaRemap` returned
        by ``Graph.apply_delta``; history on deleted slots (``-1`` in
        ``slot_remap``) moves into per-phase retired buckets that still
        count toward the conservation identity.
        """
        slot_remap = np.asarray(remap.slot_remap, dtype=np.int64)
        if len(slot_remap) != self.n_slots:
            raise ValueError(
                f"remap covers {len(slot_remap)} slots, accumulators hold {self.n_slots}"
            )
        self._cmax_floor()  # retire exact maxima, unit-load charges included
        new_n_slots = int(remap.new_n_slots)
        live = slot_remap >= 0
        targets = slot_remap[live]
        for phase, col in self._phase_messages.items():
            fresh = np.zeros(new_n_slots, dtype=np.int64)
            np.add.at(fresh, targets, col[live])
            dead = int(col.sum()) - int(col[live].sum())
            if dead:
                self._retired[phase] = self._retired.get(phase, 0) + dead
            self._phase_messages[phase] = fresh
        fresh_cmax = np.zeros(new_n_slots, dtype=np.int64)
        np.maximum.at(fresh_cmax, targets, self._slot_cmax[live])
        dead_cmax = self._slot_cmax[~live]
        if dead_cmax.size:
            self._retired_cmax = max(self._retired_cmax, int(dead_cmax.max()))
        self._slot_cmax = fresh_cmax
        self.n_slots = new_n_slots
        self.remaps += 1
        self.bind_topology(n, edge_src, edge_dst)

    # ------------------------------------------------------------------
    # Conservation accessors (the tested identity)
    # ------------------------------------------------------------------
    def located_messages(self, phase: str | None = None) -> int:
        """Σ per-edge attributed messages (live columns only)."""
        if phase is not None:
            col = self._phase_messages.get(phase)
            return int(col.sum()) if col is not None else 0
        return sum(int(col.sum()) for col in self._phase_messages.values())

    def charged_messages(self, phase: str | None = None) -> int:
        """Σ messages of the settled charges (the ledger's side)."""
        if phase is not None:
            return self._phase_charged.get(phase, 0)
        return sum(self._phase_charged.values())

    def residual_messages(self, phase: str | None = None) -> int:
        """Charged − located − retired: messages no edge accounts for (0)."""
        return (
            self.charged_messages(phase)
            - self.located_messages(phase)
            - self.retired_messages(phase)
        )

    def retired_messages(self, phase: str | None = None) -> int:
        if phase is not None:
            return self._retired.get(phase, 0)
        return sum(self._retired.values())

    def attributed_messages(self, phase: str | None = None) -> int:
        """Located + retired — equals ledger ``messages`` exactly."""
        return self.located_messages(phase) + self.retired_messages(phase)

    def max_edge_congestion(self) -> int:
        """Max per-edge congestion ever settled (retired slots included)."""
        live = 0
        if self._slot_cmax is not None and self.n_slots:
            live = int(self._slot_cmax.max())
            if live == 0 and self.located_messages() > 0:
                live = 1  # only congestion-1 charges ever landed (see _cmax_floor)
        return max(live, self._retired_cmax)

    def _cmax_floor(self) -> None:
        """Materialize the unit-load floor into the tracked per-slot maxima.

        Dense settlement skips the per-slot maximum for congestion-1
        charges — exact because a unit load can only lift a touched slot's
        maximum to 1, and ``slot_totals() > 0`` identifies exactly the
        touched slots.  Reports and remaps fold the floor back in here.
        """
        if self._slot_cmax is not None and self.n_slots:
            np.maximum(
                self._slot_cmax,
                self.slot_totals() > 0,
                out=self._slot_cmax,
            )

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def slot_totals(self) -> np.ndarray:
        """Per-slot message totals summed across phases."""
        total = np.zeros(self.n_slots, dtype=np.int64)
        for col in self._phase_messages.values():
            total += col
        return total

    def node_totals(self) -> np.ndarray:
        """Per-node totals: each message attributed to the sending endpoint."""
        out = np.zeros(self.n, dtype=np.int64)
        if self.edge_src is not None and self.n_slots:
            np.add.at(out, self.edge_src, self.slot_totals())
        return out

    def top_edges(self, k: int = 10) -> list[dict]:
        """The ``k`` hottest directed edges, ties broken by slot id."""
        self._cmax_floor()
        totals = self.slot_totals()
        order = np.lexsort((np.arange(self.n_slots), -totals))
        out = []
        for slot in order[:k]:
            if totals[slot] == 0:
                break
            out.append(
                {
                    "slot": int(slot),
                    "src": int(self.edge_src[slot]),
                    "dst": int(self.edge_dst[slot]),
                    "messages": int(totals[slot]),
                    "max_congestion": int(self._slot_cmax[slot]),
                    "messages_per_round": round(
                        int(totals[slot]) / max(1, self.rounds_total), 6
                    ),
                }
            )
        return out

    def top_nodes(self, k: int = 10) -> list[dict]:
        """The ``k`` hottest sender nodes, ties broken by node id."""
        totals = self.node_totals()
        order = np.lexsort((np.arange(self.n), -totals))
        out = []
        for node in order[:k]:
            if totals[node] == 0:
                break
            out.append(
                {
                    "node": int(node),
                    "messages": int(totals[node]),
                    "messages_per_round": round(
                        int(totals[node]) / max(1, self.rounds_total), 6
                    ),
                }
            )
        return out

    def utilization(self) -> dict[str, float]:
        """Attributed messages per simulated round, per phase and overall."""
        out = {
            phase: round(self.attributed_messages(phase) / max(1, rounds), 6)
            for phase, rounds in sorted(self._phase_rounds.items())
        }
        out["*total*"] = round(self.messages_total / max(1, self.rounds_total), 6)
        return out

    def phase_table(self) -> dict[str, dict]:
        """Per-phase breakdown: located/retired/residual/rounds/utilization."""
        phases = set(self._phase_messages) | set(self._phase_rounds) | set(self._retired)
        table = {}
        for phase in sorted(phases):
            rounds = self._phase_rounds.get(phase, 0)
            table[phase] = {
                "located": self.located_messages(phase),
                "retired": self.retired_messages(phase),
                "residual": self.residual_messages(phase),
                "rounds": rounds,
                "messages_per_round": round(
                    self.attributed_messages(phase) / max(1, rounds), 6
                ),
            }
        return table

    def tenant_table(self) -> dict[str, dict]:
        return {
            tenant: {
                "messages": msgs,
                "rounds": self._tenant_rounds.get(tenant, 0),
            }
            for tenant, msgs in sorted(self._tenant_messages.items())
        }

    def summary(self, *, top: int = 10) -> dict:
        """One JSON-able document: totals, conservation, hot spots."""
        return {
            "schema": "congestion_heatmap/v1",
            "n": self.n,
            "n_slots": self.n_slots,
            "charges": self.charges,
            "remaps": self.remaps,
            "rounds": self.rounds_total,
            "messages": self.messages_total,
            "located_messages": self.located_messages(),
            "retired_messages": self.retired_messages(),
            "residual_messages": self.residual_messages(),
            "max_edge_congestion": self.max_edge_congestion(),
            "phases": self.phase_table(),
            "tenants": self.tenant_table(),
            "utilization": self.utilization(),
            "top_edges": self.top_edges(top),
            "top_nodes": self.top_nodes(top),
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def counter_events(self, *, pid: int = 1) -> list[dict]:
        """Perfetto counter-track events (``"ph": "C"``), one round = 1 µs.

        Merged into the Chrome trace via
        ``Tracer.to_chrome_trace(extra_events=sink.counter_events())``.
        """
        events = []
        for ts, messages, congestion in self._samples:
            events.append(
                {
                    "name": "attributed messages",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": 0,
                    "args": {"messages": messages},
                }
            )
            events.append(
                {
                    "name": "charge congestion",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": 0,
                    "args": {"congestion": congestion},
                }
            )
        return events

    def to_json(self, *, top: int = 10) -> str:
        return json.dumps(self.summary(top=top), indent=2, sort_keys=True) + "\n"

    def write(self, path, *, top: int = 10) -> Path:
        path = Path(path)
        path.write_text(self.to_json(top=top))
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeatmapSink(n={self.n}, n_slots={self.n_slots}, charges={self.charges}, "
            f"messages={self.messages_total}, residual={self.residual_messages()})"
        )
