"""SINGLE-RANDOM-WALK (Algorithm 1): sample an ℓ-step walk in Õ(√(ℓD)) rounds.

Structure, mirroring the paper:

* **Setup** — one BFS flood from the source; its eccentricity gives the
  ``Θ(D)`` estimate used to pick ``λ`` (and seeds the tree cache the
  stitching sweeps reuse).
* **Phase 1** — every node ``v`` prepares ``⌈η·deg(v)⌉`` short walks of
  length uniform in ``[λ, 2λ−1]`` (:mod:`repro.walks.short_walks`).
* **Phase 2** — starting at the source, repeatedly SAMPLE-DESTINATION at the
  current *connector*, route the walk token to the sampled endpoint
  (``≤ D`` rounds along the BFS tree), and advance the completed-length
  counter by the sampled walk's length.  If a connector's pool is empty,
  GET-MORE-WALKS refills it (w.h.p. never needed at theorem parameters —
  Lemmas 2.6/2.7).
* **Tail** — once fewer than ``2λ`` steps remain, walk naively.

The result is an exact sample: each stitched segment is an unused,
independently generated random walk from the current node, so the
concatenation is distributed exactly as an ℓ-step walk from ``s`` (the
algorithm is Las Vegas — randomness affects only the round count).
``tests/test_single_walk.py`` verifies the endpoint law against the exact
``P^ℓ`` distribution by chi-square.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.congest.network import Network
from repro.congest.phases import GET_MORE_WALKS, NAIVE, NAIVE_TAIL, REPORT, SETUP, STITCH_ROUTE
from repro.congest.primitives import BfsTree, build_bfs_tree
from repro.engine.model import ResultBase
from repro.errors import WalkError
from repro.graphs.graph import Graph
from repro.walks.get_more_walks import get_more_walks
from repro.walks.params import WalkParams, single_walk_params
from repro.walks.sample_destination import sample_destination
from repro.walks.short_walks import perform_short_walks, token_counts
from repro.walks.store import TokenRecord, WalkStore

__all__ = ["WalkResult", "single_random_walk", "stitch_walk", "estimate_diameter"]


@dataclass
class WalkResult(ResultBase):
    """Outcome of one distributed walk computation.

    The shared cost fields (``mode``, ``rounds``, ``lam``,
    ``phase_rounds``, ``get_more_walks_calls``) come from
    :class:`~repro.engine.model.ResultBase`.  ``positions`` holds the full
    ℓ+1-node trajectory when path recording was on (the paper's
    "regenerating the entire walk" — every node can learn its positions);
    ``None`` otherwise.  ``segments`` are the stitched short-walk records
    in order, materialized lazily by the columnar
    :class:`~repro.walks.store.WalkStore` as each one was popped (only
    ``O(ℓ/λ)`` of the Θ(η·m) Phase-1 tokens ever become objects);
    ``connectors`` the nodes where stitches happened (Figure 2's stitch
    points).
    """

    source: int
    length: int
    destination: int
    positions: np.ndarray | None = None
    segments: list[TokenRecord] = field(default_factory=list)
    connectors: list[int] = field(default_factory=list)
    tokens_prepared: int = 0

    def verify_positions(self, graph: Graph) -> None:
        """Assert the recorded trajectory is a genuine ℓ-step walk.

        Probes :meth:`~repro.graphs.graph.Graph.has_edge` once per hop —
        O(log deg) each against the graph's sorted-neighbor view.
        """
        if self.positions is None:
            raise WalkError("positions were not recorded")
        if len(self.positions) != self.length + 1:
            raise WalkError(
                f"trajectory has {len(self.positions)} nodes, expected {self.length + 1}"
            )
        if self.positions[0] != self.source or self.positions[-1] != self.destination:
            raise WalkError("trajectory endpoints do not match source/destination")
        for a, b in zip(self.positions[:-1], self.positions[1:]):
            if not graph.has_edge(int(a), int(b)):
                raise WalkError(f"trajectory uses non-edge ({a}, {b})")


def estimate_diameter(
    network: Network,
    source: int,
    tree_cache: dict[int, BfsTree] | None = None,
    *,
    allow_unreached: bool = False,
) -> tuple[int, BfsTree]:
    """Distributed Θ(D) estimate: one BFS flood, ``D ≤ 2·ecc(source)``.

    Charged to phase ``"setup"``; the built tree goes into the cache the
    later SAMPLE-DESTINATION sweeps rooted at the source reuse.
    ``allow_unreached`` tolerates isolated (crashed) nodes: the estimate
    then covers the source's live component only.
    """
    with network.phase(SETUP):
        tree = build_bfs_tree(
            network, source, cache=tree_cache, allow_unreached=allow_unreached
        )
    return max(1, 2 * tree.height), tree


def stitch_walk(
    network: Network,
    store: WalkStore,
    source: int,
    length: int,
    lam: int,
    rng: np.random.Generator,
    *,
    loop_margin: int,
    gmw_count: int,
    randomized_lengths: bool,
    record_paths: bool,
    tree_cache: dict[int, BfsTree] | None,
    defer_tail: bool = False,
    gmw_phase: str = GET_MORE_WALKS,
    refill_record_paths: bool | None = None,
    allow_unreached: bool = False,
) -> tuple[int, np.ndarray | None, list[TokenRecord], list[int], int, int]:
    """Phase 2 + tail, shared by this paper's algorithm and the PODC'09 baseline.

    Returns ``(current, positions, segments, connectors, gmw_calls,
    remaining)``.  ``loop_margin`` is ``2λ`` for randomized segment lengths
    (paper's loop guard, Algorithm 1 line 4) and ``λ`` for fixed-length
    segments.

    With ``defer_tail=True`` the trailing ``< loop_margin`` naive steps are
    *not* performed: the caller receives the pre-tail node and the
    remaining step count.  MANY-RANDOM-WALKS uses this to run all ``k``
    tails concurrently (they are independent walks, so running them as one
    parallel batch costs ``O(λ + k)`` instead of ``O(k·λ)`` — required for
    the Theorem 2.8 bound, whose Phase-2 accounting covers only stitching).

    ``gmw_phase`` names the ledger phase refills charge to; the engine's
    pooled mode uses ``"pool-refill"`` so the refill protocol's cost is
    separately visible from one-shot GET-MORE-WALKS emergencies.
    ``refill_record_paths`` (default: same as ``record_paths``) controls
    whether refill tokens record their hop sequences — the pooled engine
    pins it to the pool's policy so an endpoint-only query never pollutes a
    path-recording pool with pathless tokens.
    """
    if refill_record_paths is None:
        refill_record_paths = record_paths
    completed = 0
    current = source
    segments: list[TokenRecord] = []
    connectors: list[int] = []
    chunks: list[np.ndarray] = [np.array([source], dtype=np.int64)]
    gmw_calls = 0

    while completed <= length - loop_margin:
        connectors.append(current)
        record, tree = sample_destination(
            network, store, current, rng,
            tree_cache=tree_cache, allow_unreached=allow_unreached,
        )
        if record is None:
            get_more_walks(
                network,
                store,
                current,
                gmw_count,
                lam,
                rng,
                randomized_lengths=randomized_lengths,
                record_paths=refill_record_paths,
                phase=gmw_phase,
            )
            gmw_calls += 1
            record, tree = sample_destination(
                network, store, current, rng,
                tree_cache=tree_cache, allow_unreached=allow_unreached,
            )
            if record is None:
                raise WalkError("GET-MORE-WALKS produced no walks (engine bug)")
        with network.phase(STITCH_ROUTE):
            network.deliver_sequential(tree.path_to_root(record.destination)[::-1])
        segments.append(record)
        if record_paths:
            if record.path is None:
                raise WalkError("record_paths=True requires Phase 1 to record paths")
            chunks.append(record.path[1:])
        completed += record.length
        current = record.destination

    remaining = length - completed
    if remaining > 0 and not defer_tail:
        tail = network.graph.walk(current, remaining, rng)
        with network.phase(NAIVE_TAIL):
            network.deliver_sequential(tail)
        current = tail[-1]
        if record_paths:
            chunks.append(np.asarray(tail[1:], dtype=np.int64))
        remaining = 0

    positions = np.concatenate(chunks) if record_paths else None
    if positions is not None and len(positions) != length + 1 - remaining:
        raise WalkError(
            f"stitched trajectory has {len(positions)} nodes, expected {length + 1 - remaining}"
        )
    return current, positions, segments, connectors, gmw_calls, remaining


def _run_single_walk(
    graph: Graph,
    source: int,
    length: int,
    rng: np.random.Generator,
    net: Network,
    *,
    params: WalkParams | None = None,
    lam: int | None = None,
    eta: float = 1.0,
    lambda_constant: float = 1.0,
    record_paths: bool = True,
    report_to_source: bool = True,
) -> WalkResult:
    """One-shot SINGLE-RANDOM-WALK execution on a resolved (rng, network).

    This is the legacy free-function body, unchanged: the golden-ledger
    suite freezes its round/message totals and sampled walks at fixed
    seeds, so both the :func:`single_random_walk` wrapper and the
    engine's non-pooled path funnel through it verbatim.
    """
    if not 0 <= source < graph.n:
        raise WalkError(f"source {source} out of range")
    if length < 1:
        raise WalkError(f"walk length must be >= 1, got {length}")
    rounds_before = net.rounds
    tree_cache: dict[int, BfsTree] = {}

    d_est, source_tree = estimate_diameter(net, source, tree_cache)
    if params is None:
        params = single_walk_params(
            length, d_est, constant=lambda_constant, lam=lam, eta=eta, n=graph.n
        )

    if params.use_naive:
        positions_list = graph.walk(source, length, rng)
        with net.phase(NAIVE):
            net.deliver_sequential(positions_list)
        destination = positions_list[-1]
        if report_to_source:
            with net.phase(REPORT):
                net.deliver_sequential(source_tree.path_to_root(destination))
        return WalkResult(
            source=source,
            length=length,
            destination=destination,
            mode="naive",
            rounds=net.rounds - rounds_before,
            lam=params.lam,
            positions=np.asarray(positions_list, dtype=np.int64) if record_paths else None,
            phase_rounds={k: v.rounds for k, v in net.ledger.phases.items()},
        )

    store = WalkStore()
    counts = token_counts(graph.degrees, params.eta, degree_proportional=params.degree_proportional)
    perform_short_walks(
        net,
        store,
        params.lam,
        rng,
        counts=counts,
        randomized_lengths=params.randomized_lengths,
        record_paths=record_paths,
    )
    tokens_prepared = store.tokens_created

    loop_margin = 2 * params.lam if params.randomized_lengths else params.lam
    destination, positions, segments, connectors, gmw_calls, _remaining = stitch_walk(
        net,
        store,
        source,
        length,
        params.lam,
        rng,
        loop_margin=loop_margin,
        gmw_count=max(1, length // params.lam),
        randomized_lengths=params.randomized_lengths,
        record_paths=record_paths,
        tree_cache=tree_cache,
    )

    if report_to_source:
        with net.phase(REPORT):
            net.deliver_sequential(source_tree.path_to_root(destination))

    return WalkResult(
        source=source,
        length=length,
        destination=destination,
        mode="stitched",
        rounds=net.rounds - rounds_before,
        lam=params.lam,
        positions=positions,
        segments=segments,
        connectors=connectors,
        phase_rounds={k: v.rounds for k, v in net.ledger.phases.items()},
        get_more_walks_calls=gmw_calls,
        tokens_prepared=tokens_prepared,
    )


def single_random_walk(
    graph: Graph,
    source: int,
    length: int,
    *,
    seed=None,
    params: WalkParams | None = None,
    lam: int | None = None,
    eta: float = 1.0,
    lambda_constant: float = 1.0,
    capacity: int = 1,
    record_paths: bool = True,
    report_to_source: bool = True,
    network: Network | None = None,
) -> WalkResult:
    """Sample the endpoint of an ℓ-step random walk from ``source``.

    Parameters mirror the paper: ``λ`` defaults to
    ``lambda_constant·√(ℓ·D̂)`` using the distributed diameter estimate,
    ``η = 1`` walk per unit of degree.  ``report_to_source=True`` also
    routes the destination's ID back to the source (the 1-RW-SoD variant of
    the problem statement; ``≤ D`` extra rounds), so the quoted round count
    covers the full "source outputs destination" contract.

    Pass an existing ``network`` to accumulate rounds across calls (the RST
    application does this); otherwise a fresh engine is created.

    This is a thin wrapper over a one-shot
    :class:`~repro.engine.core.WalkEngine`; repeated queries on one graph
    should hold an engine instead and let its persistent Phase-1 pool
    amortize the Θ(η·m) token preparation.
    """
    from repro.engine.core import WalkEngine

    engine = WalkEngine(
        graph,
        seed=seed,
        capacity=capacity,
        lambda_constant=lambda_constant,
        eta=eta,
        network=network,
    )
    return engine.walk(
        source,
        length,
        pooled=False,
        params=params,
        lam=lam,
        record_paths=record_paths,
        report_to_source=report_to_source,
    )
