"""Round/message accounting for CONGEST executions.

The quantity every theorem in the paper bounds is the number of
*rounds*; the ledger is the single source of truth for it.  It also tracks
message counts and the worst per-edge congestion observed, broken down by
named phase (e.g. ``"phase1"``, ``"stitch"``, ``"sample-destination"``), so
benches can report exactly where the rounds went — mirroring the paper's
analysis, which bounds each phase separately and sums.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.congest.load import IDLE, EdgeLoad
from repro.congest.phases import UNATTRIBUTED
from repro.errors import WalkError

__all__ = ["LedgerSnapshot", "PhaseStats", "RoundLedger"]


@dataclass(frozen=True)
class LedgerSnapshot:
    """Immutable point-in-time (or delta) view of a ledger.

    Produced by :meth:`RoundLedger.capture` (cumulative totals) and
    :meth:`RoundLedger.delta_since` (per-request accounting on a shared
    network: what one query cost between two captures).  ``max_congestion``
    is a running maximum, not additive, so a delta reports the value
    observed at capture time.
    """

    rounds: int
    messages: int
    max_congestion: int
    phase_rounds: dict[str, int] = field(default_factory=dict)
    phase_messages: dict[str, int] = field(default_factory=dict)


@dataclass
class PhaseStats:
    """Accumulated costs of one named phase."""

    rounds: int = 0
    messages: int = 0
    max_congestion: int = 0
    invocations: int = 0

    def merge_step(self, rounds: int, messages: int, congestion: int) -> None:
        self.rounds += rounds
        self.messages += messages
        self.max_congestion = max(self.max_congestion, congestion)


@dataclass
class RoundLedger:
    """Cumulative cost accounting across an algorithm execution.

    ``observer`` is the passive observability hook (``repro.obs.Probe``
    or anything with the same ``phase_pushed``/``phase_popped``/
    ``charged``/``delta_measured`` surface); ``charged`` receives each
    charge's :class:`~repro.congest.load.EdgeLoad`.  It defaults to ``None`` and
    every hook site is a single ``is not None`` check, so un-observed
    ledgers — the golden-ledger fast path — pay nothing.  Observers only
    *read* the ledger; they must never charge it.
    """

    rounds: int = 0
    messages: int = 0
    max_congestion: int = 0
    phases: dict[str, PhaseStats] = field(default_factory=dict)
    observer: object | None = None
    _phase_stack: list[str] = field(default_factory=list)

    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else UNATTRIBUTED

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseStats]:
        """Attribute all costs charged inside the block to ``name``.

        Phases nest: costs inside an inner phase are attributed to the inner
        name only (the totals on the ledger always include everything).
        """
        stats = self.phases.setdefault(name, PhaseStats())
        stats.invocations += 1
        self._phase_stack.append(name)
        # Captured at entry so push/pop notifications stay symmetric even
        # if the observer is installed or swapped while the phase is open.
        obs = self.observer
        if obs is not None:
            obs.phase_pushed(name, self)
        try:
            yield stats
        finally:
            popped = self._phase_stack.pop()
            if popped != name:
                # Not an assert: under `python -O` asserts vanish and the
                # stack corruption would silently misattribute every
                # subsequent charge.
                raise WalkError(
                    f"phase stack corrupted: popped {popped!r} while closing {name!r}"
                )
            if obs is not None:
                obs.phase_popped(name, self)

    def charge(self, rounds: int, load: EdgeLoad = IDLE) -> None:
        """Record ``rounds`` rounds carrying ``load`` in the current phase.

        The load's totals are the charge's messages and congestion; the
        observer receives the load itself.  Algorithms charge through
        :meth:`Network.charge <repro.congest.network.Network.charge>`.
        Every figure must be a Python ``int``: a numpy scalar would leak
        its fixed width into the totals and every export of them.
        """
        messages = load.messages
        congestion = load.congestion
        if not (isinstance(rounds, int) and isinstance(messages, int) and isinstance(congestion, int)):
            raise TypeError(
                "ledger charges take Python ints, got "
                f"{type(rounds).__name__}/{type(messages).__name__}/{type(congestion).__name__}"
            )
        if rounds < 0 or messages < 0:
            raise ValueError("cannot charge negative cost")
        self.rounds += rounds
        self.messages += messages
        self.max_congestion = max(self.max_congestion, congestion)
        name = self.current_phase
        self.phases.setdefault(name, PhaseStats()).merge_step(rounds, messages, congestion)
        obs = self.observer
        if obs is not None:
            obs.charged(name, rounds, load)

    def phase_rounds(self, name: str) -> int:
        stats = self.phases.get(name)
        return stats.rounds if stats else 0

    def phase_total(self, prefix: str) -> int:
        """Rounds of a phase *family*: ``prefix`` plus any ``prefix/sub``.

        Sub-phases are plain phase names spelled ``"family/detail"`` (e.g.
        ``"pool-refill"`` for reactive dry-connector refills vs.
        ``"pool-refill/maintain"`` for background watermark sweeps); this
        sums the family so callers asking "what did refilling cost overall"
        need not know the attribution split.
        """
        marker = prefix + "/"
        return sum(
            stats.rounds
            for name, stats in self.phases.items()
            if name == prefix or name.startswith(marker)
        )

    def capture(self) -> LedgerSnapshot:
        """Freeze the cumulative totals (for later :meth:`delta_since`)."""
        return LedgerSnapshot(
            rounds=self.rounds,
            messages=self.messages,
            max_congestion=self.max_congestion,
            phase_rounds={k: v.rounds for k, v in self.phases.items()},
            phase_messages={k: v.messages for k, v in self.phases.items()},
        )

    def delta_since(self, snapshot: LedgerSnapshot) -> LedgerSnapshot:
        """Costs accrued since ``snapshot``, with zero-delta phases dropped.

        This is how per-request accounting works on a *shared* network:
        the engine captures before serving a query and attributes the
        difference to it, so result ``rounds``/``phase_rounds`` stay
        per-request even though the ledger keeps one global total.
        """
        phase_rounds: dict[str, int] = {}
        phase_messages: dict[str, int] = {}
        for name, stats in self.phases.items():
            dr = stats.rounds - snapshot.phase_rounds.get(name, 0)
            dm = stats.messages - snapshot.phase_messages.get(name, 0)
            if dr or dm:
                phase_rounds[name] = dr
                phase_messages[name] = dm
        delta = LedgerSnapshot(
            rounds=self.rounds - snapshot.rounds,
            messages=self.messages - snapshot.messages,
            max_congestion=self.max_congestion,
            phase_rounds=phase_rounds,
            phase_messages=phase_messages,
        )
        obs = self.observer
        if obs is not None:
            obs.delta_measured(self, snapshot, delta)
        return delta

    def snapshot(self) -> dict[str, int]:
        """Flat summary used by benches and reports."""
        out = {"rounds": self.rounds, "messages": self.messages, "max_congestion": self.max_congestion}
        for name, stats in sorted(self.phases.items()):
            out[f"rounds[{name}]"] = stats.rounds
        return out

    def __repr__(self) -> str:
        per_phase = ", ".join(f"{k}={v.rounds}" for k, v in sorted(self.phases.items()))
        return f"RoundLedger(rounds={self.rounds}, messages={self.messages}, phases=[{per_phase}])"
