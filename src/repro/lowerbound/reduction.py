"""Section 3.2: reducing PATH-VERIFICATION to the random-walk problem.

The construction weights path edge ``(v_i, v_{i+1})`` of ``G_n`` with
``(2n)^{2i}``, so a walk standing on ``P`` continues forward with
probability ``≥ 1 − 1/(2n)²`` per step and hence follows the *entire* path
w.h.p.  Any distributed walk algorithm must in effect verify the realized
ℓ-length path (every node must learn its correct positions), so the
verification lower bound transfers: Ω(√(ℓ/log ℓ)) rounds (Theorem 3.7).

The raw weights overflow any machine representation almost immediately
(``(2n)^{2i}`` at ``i ≈ 50`` already exceeds float64 for n=1000), but a
walk only ever needs *local weight ratios*, which have a closed form
(:meth:`~repro.graphs.lower_bound.LowerBoundInstance.forward_probability`).
:func:`weighted_walk` samples from those exact per-node laws in place of
the paper's unbounded multigraph (Section 3.2 of arXiv:0911.3195):
transition probabilities are preserved exactly, only the representation
changes.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.errors import GraphError
from repro.graphs.lower_bound import LowerBoundInstance, build_lower_bound_graph, round_bound
from repro.lowerbound.path_verification import (
    IntervalMergingVerifier,
    PathVerificationInstance,
)
from repro.util.rng import make_rng

__all__ = ["ReductionTrial", "ReductionReport", "weighted_walk", "simulate_reduction"]


def weighted_walk(instance: LowerBoundInstance, length: int, rng) -> list[int]:
    """Sample a ``length``-step walk on ``G'_n`` starting at ``v_1``.

    At path node ``v_i`` the transition law over (forward, backward, tree)
    is computed from exact weight ratios; everywhere off the path all
    incident edges have weight 1, so steps are uniform.
    """
    if length < 1:
        raise GraphError("length must be >= 1")
    rng = make_rng(rng)
    graph = instance.graph
    w = 2.0 * instance.n_prime
    walk = [instance.path_node(1)]
    for _ in range(length):
        node = walk[-1]
        if instance.is_path_node(node):
            i = instance.path_index(node)
            # Relative weights, normalized by the dominant forward weight
            # (or backward weight at the path's end).
            forward = 1.0 if i < instance.n_prime else 0.0
            backward = w**-2.0 if 1 < i <= instance.n_prime else 0.0
            if i == instance.n_prime:
                backward = 1.0  # at the last vertex the backward edge dominates
                tree = w ** (-2.0 * (i - 1))
            else:
                tree = w ** (-2.0 * i)
            total = forward + backward + tree
            u = rng.random() * total
            if u < forward:
                walk.append(instance.path_node(i + 1))
            elif u < forward + backward:
                walk.append(instance.path_node(i - 1))
            else:
                walk.append(instance.leaf_of_path_node(node))
        else:
            walk.append(graph.random_neighbor(node, rng))
    return walk


@dataclass(frozen=True)
class ReductionTrial:
    """One sampled walk on ``G'_n``."""

    followed_path: bool
    first_deviation: int | None


@dataclass(frozen=True)
class ReductionReport:
    """Aggregate of :func:`simulate_reduction`.

    ``follow_fraction`` should be ``≥ 1 − 1/n`` (the paper's w.h.p. bound);
    ``verification_rounds`` is the measured cost of verifying the realized
    path with the interval-merging algorithm, to be compared against
    ``lower_bound_curve = √(ℓ/log ℓ)``.
    """

    n: int
    length: int
    trials: int
    follow_fraction: float
    verification_rounds: int
    lower_bound_curve: float
    diameter_bound: int


def simulate_reduction(
    n: int,
    *,
    length: int | None = None,
    trials: int = 20,
    seed=None,
    verify: bool = True,
) -> ReductionReport:
    """Run the Theorem 3.7 experiment end to end.

    Builds ``G'_n``, samples ``trials`` weighted walks of the given length
    (default: the full path), records how often the walk is exactly the
    path prefix, and measures the rounds the interval-merging verifier
    needs on that path.
    """
    if trials < 1:
        raise GraphError("need at least one trial")
    rng = make_rng(seed)
    instance = build_lower_bound_graph(n)
    length = instance.n_prime - 1 if length is None else length
    if not 1 <= length <= instance.n_prime - 1:
        raise GraphError(f"length must be in [1, {instance.n_prime - 1}]")
    expected = [instance.path_node(i) for i in range(1, length + 2)]

    followed = 0
    for _ in range(trials):
        walk = weighted_walk(instance, length, rng)
        trial_follow = walk == expected
        followed += int(trial_follow)

    rounds = 0
    if verify:
        pv = PathVerificationInstance(
            graph=instance.graph, sequence=tuple(expected)
        )
        result = IntervalMergingVerifier(pv).run()
        if not result.verified:
            raise GraphError("verifier failed on a genuine path (bug)")
        rounds = result.rounds

    from repro.graphs.properties import pseudo_diameter

    return ReductionReport(
        n=n,
        length=length,
        trials=trials,
        follow_fraction=followed / trials,
        verification_rounds=rounds,
        lower_bound_curve=round_bound(length + 1),
        diameter_bound=pseudo_diameter(instance.graph),
    )
