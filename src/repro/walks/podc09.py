"""The PODC'09 baseline (Das Sarma, Nanongkai, Pandurangan 2009).

The ``Õ(ℓ^{2/3}D^{1/3})``-round predecessor this paper improves on.  Per
the recap in §2.1, it differs from SINGLE-RANDOM-WALK in exactly three
ways, and all three are *parameters* — there is no PODC'09 code path:

1. short walks have **fixed** length ``λ`` (``randomized_lengths=False``:
   no ``[λ, 2λ−1]`` randomization, so no Lemma 2.7 protection against
   periodic connector pile-ups; the stitching loop stops ``λ`` rather
   than ``2λ`` short of ℓ);
2. Phase 1 prepares ``η`` walks **per node** (``degree_proportional=False``),
   with ``η = Θ((ℓ/D)^{1/3})``, and GET-MORE-WALKS launches ``η`` more;
3. parameters balance the *worst-case* amortization
   ``ηλ + ℓD/λ + ℓ/η`` (GET-MORE-WALKS is expected to be invoked), giving
   ``λ = ℓ^{1/3}D^{2/3}``.

:func:`~repro.walks.params.podc09_params` is that parameter set, and the
engine's single-walk body runs it on a single-use Phase-1 pool exactly as
it runs SINGLE-RANDOM-WALK, so the E1 comparison is apples-to-apples:
identical engine, identical charging rules, different parameters.
"""

from __future__ import annotations

from repro.congest.network import Network
from repro.graphs.graph import Graph
from repro.walks.params import WalkParams
from repro.walks.single_walk import WalkResult

__all__ = ["podc09_random_walk"]


def podc09_random_walk(
    graph: Graph,
    source: int,
    length: int,
    *,
    seed=None,
    params: WalkParams | None = None,
    lam: int | None = None,
    eta: float | None = None,
    lambda_constant: float = 1.0,
    record_paths: bool = True,
    report_to_source: bool = True,
    network: Network | None = None,
) -> WalkResult:
    """Run the PODC'09 algorithm; same contract as :func:`single_random_walk`.

    A request on a single-use Phase-1 pool of a throwaway
    :class:`~repro.engine.core.WalkEngine` (``algorithm="podc09"``).
    """
    from repro.engine.core import WalkEngine

    engine = WalkEngine(graph, seed=seed, lambda_constant=lambda_constant, network=network)
    return engine.walk(
        source,
        length,
        algorithm="podc09",
        pooled=False,
        params=params,
        lam=lam,
        eta=eta,
        record_paths=record_paths,
        report_to_source=report_to_source,
    )
