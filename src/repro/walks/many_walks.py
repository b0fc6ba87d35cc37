"""MANY-RANDOM-WALKS (§2.3): ``k`` walks in ``Õ(min(√(kℓD)+k, k+ℓ))`` rounds.

Theorem 2.8's case split, implemented exactly:

* When the computed ``λ > ℓ`` — short walks would be longer than the
  requested walk — run the **naive parallel** algorithm: all ``k`` tokens
  step simultaneously, each iteration charged by its worst per-edge
  congestion (tokens of different sources cannot aggregate), then each
  destination reports to its source over a BFS tree (the ``Ω(k)`` term:
  the tree root may relay up to ``k`` IDs, pipelined one per round).
* Otherwise run **one** Phase 1 at the enlarged
  ``λ = Θ(√(kℓD) + k)`` and stitch the ``k`` walks one after another
  against the shared pool (the paper: "stitch the short walks together to
  get a walk of length ℓ starting at s₁ then do the same thing for s₂,
  s₃, and so on").

The k-walk body of :class:`~repro.engine.core.WalkEngine` runs both
branches; this module holds the parameter choice, the parallel naive loop
and the result type.  Sources need not be distinct; the mixing-time application (§4.2) calls this
with ``k`` copies of the same source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.congest.network import Network
from repro.congest.phases import NAIVE_TAIL
from repro.engine.model import ResultBase
from repro.graphs.graph import Graph
from repro.walks.params import WalkParams, many_walks_params

__all__ = ["ManyWalksResult", "many_random_walks"]


@dataclass
class ManyWalksResult(ResultBase):
    """Outcome of a k-walk computation.

    Shared cost fields (``mode``/``rounds``/``lam``/``phase_rounds``/
    ``get_more_walks_calls``) live on :class:`~repro.engine.model.ResultBase`.
    """

    sources: list[int]
    length: int
    destinations: list[int]
    positions: list[np.ndarray] | None = None

    @property
    def k(self) -> int:
        return len(self.sources)


def _parallel_tails(
    network: Network,
    pre_tails: list[tuple[int, int]],
    rng: np.random.Generator,
    *,
    record_paths: bool,
    phase: str = NAIVE_TAIL,
) -> tuple[list[int], list[np.ndarray | None]]:
    """Advance every ``(node, steps)`` walk naively, all in parallel.

    Each iteration moves every walk with steps left one hop and is charged
    by its worst per-edge congestion.  The k-walk bodies run their deferred
    tails through it (see :func:`~repro.walks.single_walk.stitch_walk`),
    and the λ > ℓ branch runs every walk from its source for the full ℓ
    steps.  ``phase`` names the ledger phase: ``"naive-tail"`` (the
    default), ``"naive-parallel"`` for the λ > ℓ branch, ``"serve/tail"``
    for the serving scheduler's merged cohorts.
    """
    k = len(pre_tails)
    positions = np.array([node for node, _ in pre_tails], dtype=np.int64)
    remaining = np.array([r for _, r in pre_tails], dtype=np.int64)
    max_rem = int(remaining.max()) if k else 0
    paths = None
    if record_paths:
        # One shared (k, max_rem + 1) matrix; row i's tail occupies columns
        # 1..remaining[i] (column 0 repeats the pre-tail node).
        paths = np.empty((k, max_rem + 1), dtype=np.int64)
        paths[:, 0] = positions
    graph = network.graph
    with network.phase(phase):
        for step in range(1, max_rem + 1):
            active = remaining >= step
            if not np.any(active):
                break
            idx = np.nonzero(active)[0]
            slots = graph.step_walk_slots(positions[idx], rng)
            network.deliver_step(slots, words=2)
            positions[idx] = graph.csr_target[slots]
            if paths is not None:
                paths[idx, step] = positions[idx]
    destinations = [int(p) for p in positions]
    if paths is None:
        return destinations, [None] * k
    # Drop the duplicated pre-tail node from each path fragment.
    return destinations, [paths[i, 1 : int(remaining[i]) + 1].copy() for i in range(k)]


def _theorem_2_8_params(
    k: int,
    length: int,
    d_est: int,
    *,
    constant: float,
    lam: int | None,
    eta: float,
    n: int,
) -> WalkParams:
    """One-shot MANY-RANDOM-WALKS parameters: Theorem 2.8's λ and case split."""
    params = many_walks_params(k, length, d_est, constant=constant, lam=lam, eta=eta, n=n)
    if not params.use_naive and lam is None:
        # Theorem 2.8 takes the min of the two branches; at simulation
        # scale we compare predicted costs directly (the λ > ℓ test
        # alone encodes the asymptotic switch, not the constants).
        log_n = max(1.0, math.log2(n))
        stitched_estimate = (
            2 * params.lam * log_n
            + (k * length / params.lam) * (1.5 * d_est + 2)
            + k
        )
        naive_estimate = length + k + d_est
        if naive_estimate < stitched_estimate:
            params = replace(params, use_naive=True)
    return params


def many_random_walks(
    graph: Graph,
    sources: list[int],
    length: int,
    *,
    seed=None,
    params: WalkParams | None = None,
    lam: int | None = None,
    eta: float = 1.0,
    lambda_constant: float = 1.0,
    record_paths: bool = False,
    report_to_source: bool = True,
    network: Network | None = None,
) -> ManyWalksResult:
    """Compute ``k = len(sources)`` independent ℓ-step walks.

    ``record_paths`` defaults off here (applications usually need only the
    ``k`` endpoint samples; full trajectories for ``k`` long walks are
    memory-heavy).

    A request on a single-use Phase-1 pool of a throwaway
    :class:`~repro.engine.core.WalkEngine` (``pooled=False``); streams of
    batch queries on one graph should hold an engine and use
    :meth:`~repro.engine.core.WalkEngine.walks` instead.
    """
    from repro.engine.core import WalkEngine

    engine = WalkEngine(
        graph, seed=seed, lambda_constant=lambda_constant, eta=eta, network=network
    )
    return engine.walks(
        sources,
        length,
        pooled=False,
        params=params,
        lam=lam,
        record_paths=record_paths,
        report_to_source=report_to_source,
    )
