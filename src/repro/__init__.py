"""repro — reproduction of "Efficient Distributed Random Walks with Applications".

Das Sarma, Nanongkai, Pandurangan, Tetali — PODC 2010 (arXiv:0911.3195).

The recommended entry point is the session façade::

    from repro import WalkEngine, torus_graph

    engine = WalkEngine(torus_graph(16, 16), seed=7)
    engine.prepare(length_hint=4096)      # optional: warm the Phase-1 pool
    result = engine.walk(0, 4096)         # pooled; later queries skip Phase 1
    tree = engine.spanning_tree(root=0)
    print(engine.stats())

The legacy free functions (``single_random_walk`` & co.) remain available;
each serves one request from a single-use pool.  Package tour (see README):

* :mod:`repro.engine`    — the ``WalkEngine`` session API and the unified
  request/result model
* :mod:`repro.serve`     — the round-driven request scheduler (admission
  control, deadlines, merged cohort serving) and synthetic workloads
* :mod:`repro.dynamic`   — graph churn: batched edge deltas, incremental
  pool invalidation, charged regeneration, churn workloads
* :mod:`repro.obs`       — passive round-time observability: span tracing
  (Chrome trace / JSONL), metrics (Prometheus text), overhead-free probes
* :mod:`repro.graphs`    — graph substrate and generators
* :mod:`repro.congest`   — the CONGEST-model simulator
* :mod:`repro.markov`    — exact Markov-chain ground truth
* :mod:`repro.walks`     — the paper's walk algorithms and baselines
* :mod:`repro.lowerbound` — Section-3 path verification and reduction
* :mod:`repro.apps`      — random spanning trees and mixing-time estimation
"""

from repro.apps import (
    estimate_mixing_time,
    power_iteration_mixing_time,
    random_spanning_tree,
)
from repro.congest import Network
from repro.dynamic import ChurnReport, ChurnSpec, GraphDelta
from repro.engine import (
    ALGORITHMS,
    EngineStats,
    ResultBase,
    WalkEngine,
    WalkRequest,
)
from repro.errors import (
    ConvergenceError,
    GraphError,
    ProtocolError,
    ReproError,
    WalkError,
)
from repro.graphs import (
    Graph,
    barbell_graph,
    binary_tree_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    random_geometric_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)
from repro.walks import (
    ManyWalksResult,
    WalkResult,
    many_random_walks,
    naive_metropolis_walk,
    naive_random_walk,
    podc09_random_walk,
    single_random_walk,
)

__version__ = "1.2.0"

__all__ = [
    # session API + request/result model
    "WalkEngine",
    "WalkRequest",
    "ResultBase",
    "EngineStats",
    "ALGORITHMS",
    # substrate
    "Network",
    "Graph",
    # dynamic graphs (churn)
    "GraphDelta",
    "ChurnReport",
    "ChurnSpec",
    # graph generators
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "torus_graph",
    "hypercube_graph",
    "binary_tree_graph",
    "barbell_graph",
    "lollipop_graph",
    "erdos_renyi_graph",
    "random_regular_graph",
    "random_geometric_graph",
    # one-shot walk entry points
    "single_random_walk",
    "many_random_walks",
    "naive_random_walk",
    "podc09_random_walk",
    "naive_metropolis_walk",
    "WalkResult",
    "ManyWalksResult",
    # applications
    "random_spanning_tree",
    "estimate_mixing_time",
    "power_iteration_mixing_time",
    # errors
    "ReproError",
    "GraphError",
    "ProtocolError",
    "WalkError",
    "ConvergenceError",
    "__version__",
]
