"""Golden ledger totals, frozen from the pre-columnar seed implementation.

The columnar walk-token engine, the vectorized CSR build, and the charged
BFS fast path are *wall-clock* optimizations: the simulated complexity
measure — rounds, messages, worst congestion, per-phase attribution, and
the sampled walks themselves — must be **bit-identical** to the seed
implementation at fixed seeds.  These totals were captured by running the
seed (pre-optimization) code; any drift here means an optimization changed
the model, not just the speed.

The PODC'09 and pooled-engine goldens were captured later, from the
separate one-shot and pooled serving bodies that predate the shared
single-walk / k-walk bodies, so they pin that those bodies merged without
moving a charge.
"""

from __future__ import annotations

import pytest

from repro.congest import Network
from repro.engine import WalkEngine
from repro.graphs import (
    barbell_graph,
    grid_graph,
    hypercube_graph,
    random_regular_graph,
    torus_graph,
)
from repro.walks import many_random_walks, podc09_random_walk, single_random_walk

SINGLE_CASES = {
    "torus8x8-l256-s7": (lambda: torus_graph(8, 8), 0, 256, 7, {}),
    "grid6x6-l144-s3": (lambda: grid_graph(6, 6), 5, 144, 3, {}),
    "hypercube5-l300-s11": (lambda: hypercube_graph(5), 2, 300, 11, {}),
    "regular64-l200-s13": (lambda: random_regular_graph(64, 4, 12345), 1, 200, 13, {}),
    "barbell6x3-l100-s5": (lambda: barbell_graph(6, 3), 0, 100, 5, {}),
    "torus6x6-l400-s17-eta0.05": (lambda: torus_graph(6, 6), 3, 400, 17, {"eta": 0.05}),
    "grid5x5-l200-s23-lam4": (lambda: grid_graph(5, 5), 0, 200, 23, {"lam": 4}),
}

MANY_CASES = {
    "torus8x8-k4-l128-s7": (lambda: torus_graph(8, 8), [0, 5, 17, 33], 128, 7, {}),
    "hypercube5-k3-l200-s2": (lambda: hypercube_graph(5), [0, 0, 9], 200, 2, {}),
    "torus8x8-k3-l256-s5-lam12": (lambda: torus_graph(8, 8), [0, 9, 21], 256, 5, {"lam": 12}),
    "grid6x6-k4-l144-s3-lam8": (lambda: grid_graph(6, 6), [0, 7, 14, 35], 144, 3, {"lam": 8}),
}

GOLDEN_SINGLE = {
    "torus8x8-l256-s7": {
        "destination": 4,
        "mode": "stitched",
        "gmw": 0,
        "rounds": 398,
        "messages": 11853,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 9,
            "phase1": 195,
            "sample-destination": 150,
            "stitch-route": 26,
            "naive-tail": 14,
            "report": 4
        },
        "phase_messages": {
            "setup": 193,
            "phase1": 10004,
            "sample-destination": 1612,
            "stitch-route": 26,
            "naive-tail": 14,
            "report": 4
        }
    },
    "grid6x6-l144-s3": {
        "destination": 18,
        "mode": "stitched",
        "gmw": 0,
        "rounds": 322,
        "messages": 4775,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 11,
            "phase1": 174,
            "sample-destination": 81,
            "stitch-route": 14,
            "naive-tail": 34,
            "report": 8
        },
        "phase_messages": {
            "setup": 85,
            "phase1": 4249,
            "sample-destination": 385,
            "stitch-route": 14,
            "naive-tail": 34,
            "report": 8
        }
    },
    "hypercube5-l300-s11": {
        "destination": 25,
        "mode": "stitched",
        "gmw": 0,
        "rounds": 366,
        "messages": 7234,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 6,
            "phase1": 170,
            "sample-destination": 128,
            "stitch-route": 21,
            "naive-tail": 37,
            "report": 4
        },
        "phase_messages": {
            "setup": 129,
            "phase1": 5682,
            "sample-destination": 1361,
            "stitch-route": 21,
            "naive-tail": 37,
            "report": 4
        }
    },
    "regular64-l200-s13": {
        "destination": 29,
        "mode": "stitched",
        "gmw": 0,
        "rounds": 302,
        "messages": 9070,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 6,
            "phase1": 143,
            "sample-destination": 112,
            "stitch-route": 23,
            "naive-tail": 15,
            "report": 3
        },
        "phase_messages": {
            "setup": 193,
            "phase1": 6977,
            "sample-destination": 1859,
            "stitch-route": 23,
            "naive-tail": 15,
            "report": 3
        }
    },
    "barbell6x3-l100-s5": {
        "destination": 9,
        "mode": "stitched",
        "gmw": 0,
        "rounds": 189,
        "messages": 1885,
        "max_congestion": 5,
        "phase_rounds": {
            "setup": 6,
            "phase1": 98,
            "sample-destination": 61,
            "stitch-route": 7,
            "naive-tail": 12,
            "report": 5
        },
        "phase_messages": {
            "setup": 53,
            "phase1": 1526,
            "sample-destination": 282,
            "stitch-route": 7,
            "naive-tail": 12,
            "report": 5
        }
    },
    "torus6x6-l400-s17-eta0.05": {
        "destination": 30,
        "mode": "stitched",
        "gmw": 1,
        "rounds": 417,
        "messages": 3611,
        "max_congestion": 3,
        "phase_rounds": {
            "setup": 7,
            "phase1": 108,
            "sample-destination": 165,
            "stitch-route": 24,
            "get-more-walks": 59,
            "naive-tail": 50,
            "report": 4
        },
        "phase_messages": {
            "setup": 109,
            "phase1": 1569,
            "sample-destination": 1299,
            "stitch-route": 24,
            "get-more-walks": 556,
            "naive-tail": 50,
            "report": 4
        }
    },
    "grid5x5-l200-s23-lam4": {
        "destination": 16,
        "mode": "stitched",
        "gmw": 0,
        "rounds": 792,
        "messages": 3525,
        "max_congestion": 5,
        "phase_rounds": {
            "setup": 9,
            "phase1": 21,
            "sample-destination": 680,
            "stitch-route": 71,
            "naive-tail": 7,
            "report": 4
        },
        "phase_messages": {
            "setup": 56,
            "phase1": 422,
            "sample-destination": 2965,
            "stitch-route": 71,
            "naive-tail": 7,
            "report": 4
        }
    }
}

GOLDEN_MANY = {
    "torus8x8-k4-l128-s7": {
        "destinations": [
            48,
            49,
            39,
            14
        ],
        "mode": "naive-parallel",
        "gmw": 0,
        "rounds": 152,
        "messages": 713,
        "max_congestion": 4,
        "phase_rounds": {
            "setup": 9,
            "naive-parallel": 131,
            "report": 12
        },
        "phase_messages": {
            "setup": 193,
            "naive-parallel": 512,
            "report": 8
        }
    },
    "hypercube5-k3-l200-s2": {
        "destinations": [
            17,
            5,
            12
        ],
        "mode": "naive-parallel",
        "gmw": 0,
        "rounds": 223,
        "messages": 735,
        "max_congestion": 3,
        "phase_rounds": {
            "setup": 6,
            "naive-parallel": 209,
            "report": 8
        },
        "phase_messages": {
            "setup": 129,
            "naive-parallel": 600,
            "report": 6
        }
    },
    "torus8x8-k3-l256-s5-lam12": {
        "destinations": [
            48,
            63,
            53
        ],
        "mode": "stitched",
        "gmw": 0,
        "rounds": 1329,
        "messages": 16108,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 9,
            "phase1": 90,
            "sample-destination": 1050,
            "stitch-route": 155,
            "naive-tail": 16,
            "report": 9
        },
        "phase_messages": {
            "setup": 193,
            "phase1": 4484,
            "sample-destination": 11234,
            "stitch-route": 155,
            "naive-tail": 33,
            "report": 9
        }
    },
    "grid6x6-k4-l144-s3-lam8": {
        "destinations": [
            35,
            0,
            14,
            26
        ],
        "mode": "stitched",
        "gmw": 3,
        "rounds": 1527,
        "messages": 8576,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 11,
            "phase1": 60,
            "sample-destination": 1240,
            "stitch-route": 136,
            "get-more-walks": 45,
            "naive-tail": 15,
            "report": 20
        },
        "phase_messages": {
            "setup": 85,
            "phase1": 1380,
            "sample-destination": 6495,
            "stitch-route": 136,
            "get-more-walks": 424,
            "naive-tail": 36,
            "report": 20
        }
    }
}


PODC09_CASES = {
    "torus8x8-l300-s7": (lambda: torus_graph(8, 8), 0, 300, 7, {}),
    # Fixed η=1 on a grid runs connectors dry: two GET-MORE-WALKS calls.
    "grid6x6-l400-s2-eta1": (lambda: grid_graph(6, 6), 0, 400, 2, {"eta": 1.0}),
}

# Pooled queries on one engine (η=0.25 so the pool runs dry and refills):
# the per-query result plus the session ledger after each query.
POOLED_SINGLE_QUERIES = [(0, 256), (9, 256)]
POOLED_MANY_QUERIES = [([0, 5, 17, 33], 512), ([1, 9, 40], 512)]

GOLDEN_PODC09 = {
    "torus8x8-l300-s7": {
        "destination": 34,
        "mode": "podc09",
        "gmw": 0,
        "rounds": 420,
        "messages": 10122,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 9,
            "phase1": 187,
            "sample-destination": 150,
            "stitch-route": 26,
            "naive-tail": 42,
            "report": 6
        },
        "phase_messages": {
            "setup": 193,
            "phase1": 8256,
            "sample-destination": 1599,
            "stitch-route": 26,
            "naive-tail": 42,
            "report": 6
        }
    },
    "grid6x6-l400-s2-eta1": {
        "destination": 2,
        "mode": "podc09",
        "gmw": 2,
        "rounds": 493,
        "messages": 3215,
        "max_congestion": 4,
        "phase_rounds": {
            "setup": 11,
            "phase1": 126,
            "sample-destination": 202,
            "stitch-route": 22,
            "get-more-walks": 108,
            "naive-tail": 22,
            "report": 2
        },
        "phase_messages": {
            "setup": 85,
            "phase1": 1944,
            "sample-destination": 1032,
            "stitch-route": 22,
            "get-more-walks": 108,
            "naive-tail": 22,
            "report": 2
        }
    }
}

GOLDEN_POOLED_SINGLE = [
    {
        "destination": 0,
        "mode": "stitched",
        "gmw": 0,
        "request_rounds": 305,
        "request_phase_rounds": {
            "setup": 9,
            "phase1": 101,
            "sample-destination": 125,
            "stitch-route": 20,
            "naive-tail": 50
        },
        "rounds": 305,
        "messages": 4085,
        "max_congestion": 3,
        "phase_rounds": {
            "setup": 9,
            "phase1": 101,
            "sample-destination": 125,
            "stitch-route": 20,
            "naive-tail": 50,
            "report": 0
        },
        "phase_messages": {
            "setup": 193,
            "phase1": 2522,
            "sample-destination": 1300,
            "stitch-route": 20,
            "naive-tail": 50,
            "report": 0
        }
    },
    {
        "destination": 29,
        "mode": "stitched",
        "gmw": 1,
        "request_rounds": 299,
        "request_phase_rounds": {
            "setup": 9,
            "sample-destination": 167,
            "stitch-route": 25,
            "naive-tail": 43,
            "report": 6,
            "pool-refill": 49
        },
        "rounds": 604,
        "messages": 6464,
        "max_congestion": 3,
        "phase_rounds": {
            "setup": 18,
            "phase1": 101,
            "sample-destination": 292,
            "stitch-route": 45,
            "naive-tail": 93,
            "report": 6,
            "pool-refill": 49
        },
        "phase_messages": {
            "setup": 386,
            "phase1": 2522,
            "sample-destination": 3075,
            "stitch-route": 45,
            "naive-tail": 93,
            "report": 6,
            "pool-refill": 337
        }
    }
]

GOLDEN_POOLED_MANY = {
    "batch=None": [
        {
            "destinations": [
                63,
                39,
                51,
                3
            ],
            "mode": "batch-stitched",
            "gmw": 1,
            "request_rounds": 785,
            "request_phase_rounds": {
                "setup": 9,
                "phase1": 329,
                "batch-sample": 118,
                "stitch-route": 44,
                "pool-refill": 132,
                "naive-tail": 141,
                "report": 12
            },
            "rounds": 785,
            "messages": 10611,
            "max_congestion": 4,
            "phase_rounds": {
                "setup": 9,
                "phase1": 329,
                "batch-sample": 118,
                "stitch-route": 44,
                "pool-refill": 132,
                "naive-tail": 141,
                "report": 12
            },
            "phase_messages": {
                "setup": 193,
                "phase1": 7634,
                "batch-sample": 1652,
                "stitch-route": 100,
                "pool-refill": 632,
                "naive-tail": 392,
                "report": 8
            }
        },
        {
            "destinations": [
                49,
                63,
                3
            ],
            "mode": "batch-stitched",
            "gmw": 3,
            "request_rounds": 645,
            "request_phase_rounds": {
                "setup": 9,
                "batch-sample": 114,
                "stitch-route": 40,
                "pool-refill": 323,
                "naive-tail": 148,
                "report": 11
            },
            "rounds": 1430,
            "messages": 14732,
            "max_congestion": 4,
            "phase_rounds": {
                "setup": 18,
                "phase1": 329,
                "batch-sample": 232,
                "stitch-route": 84,
                "pool-refill": 455,
                "naive-tail": 289,
                "report": 23
            },
            "phase_messages": {
                "setup": 386,
                "phase1": 7634,
                "batch-sample": 3206,
                "stitch-route": 166,
                "pool-refill": 2588,
                "naive-tail": 738,
                "report": 14
            }
        }
    ],
    "batch=False": [
        {
            "destinations": [
                13,
                3,
                55,
                21
            ],
            "mode": "stitched",
            "gmw": 1,
            "request_rounds": 1020,
            "request_phase_rounds": {
                "setup": 9,
                "phase1": 329,
                "sample-destination": 342,
                "stitch-route": 53,
                "pool-refill": 132,
                "naive-tail": 143,
                "report": 12
            },
            "rounds": 1020,
            "messages": 12496,
            "max_congestion": 4,
            "phase_rounds": {
                "setup": 9,
                "phase1": 329,
                "sample-destination": 342,
                "stitch-route": 53,
                "pool-refill": 132,
                "naive-tail": 143,
                "report": 12
            },
            "phase_messages": {
                "setup": 193,
                "phase1": 7634,
                "sample-destination": 3589,
                "stitch-route": 53,
                "pool-refill": 632,
                "naive-tail": 387,
                "report": 8
            }
        },
        {
            "destinations": [
                1,
                63,
                19
            ],
            "mode": "stitched",
            "gmw": 2,
            "request_rounds": 816,
            "request_phase_rounds": {
                "setup": 9,
                "sample-destination": 309,
                "stitch-route": 44,
                "pool-refill": 297,
                "naive-tail": 146,
                "report": 11
            },
            "rounds": 1836,
            "messages": 17697,
            "max_congestion": 4,
            "phase_rounds": {
                "setup": 18,
                "phase1": 329,
                "sample-destination": 651,
                "stitch-route": 97,
                "pool-refill": 429,
                "naive-tail": 289,
                "report": 23
            },
            "phase_messages": {
                "setup": 386,
                "phase1": 7634,
                "sample-destination": 6862,
                "stitch-route": 97,
                "pool-refill": 2021,
                "naive-tail": 683,
                "report": 14
            }
        }
    ]
}


def _snapshot(net: Network) -> dict:
    return {
        "rounds": net.ledger.rounds,
        "messages": net.ledger.messages,
        "max_congestion": net.ledger.max_congestion,
        "phase_rounds": {k: v.rounds for k, v in net.ledger.phases.items()},
        "phase_messages": {k: v.messages for k, v in net.ledger.phases.items()},
    }


class TestGoldenLedger:
    @pytest.mark.parametrize("name", sorted(SINGLE_CASES))
    def test_single_random_walk_matches_seed(self, name):
        factory, source, length, seed, kwargs = SINGLE_CASES[name]
        graph = factory()
        net = Network(graph, seed=0)
        result = single_random_walk(graph, source, length, seed=seed, network=net, **kwargs)
        want = GOLDEN_SINGLE[name]
        got = {
            "destination": int(result.destination),
            "mode": result.mode,
            "gmw": result.get_more_walks_calls,
            **_snapshot(net),
        }
        assert got == want

    @pytest.mark.parametrize("name", sorted(MANY_CASES))
    def test_many_random_walks_matches_seed(self, name):
        factory, sources, length, seed, kwargs = MANY_CASES[name]
        graph = factory()
        net = Network(graph, seed=0)
        result = many_random_walks(
            graph, sources, length, seed=seed, record_paths=True, network=net, **kwargs
        )
        want = GOLDEN_MANY[name]
        got = {
            "destinations": [int(d) for d in result.destinations],
            "mode": result.mode,
            "gmw": result.get_more_walks_calls,
            **_snapshot(net),
        }
        assert got == want

    @pytest.mark.parametrize("name", sorted(PODC09_CASES))
    def test_podc09_random_walk_matches_seed(self, name):
        factory, source, length, seed, kwargs = PODC09_CASES[name]
        graph = factory()
        net = Network(graph, seed=0)
        result = podc09_random_walk(graph, source, length, seed=seed, network=net, **kwargs)
        got = {
            "destination": int(result.destination),
            "mode": result.mode,
            "gmw": result.get_more_walks_calls,
            **_snapshot(net),
        }
        assert got == GOLDEN_PODC09[name]


def _pooled_engine():
    graph = torus_graph(8, 8)
    return WalkEngine(graph, seed=7, eta=0.25, network=Network(graph, seed=0))


class TestGoldenPooledLedger:
    def test_pooled_single_cold_then_warm(self):
        engine = _pooled_engine()
        got = []
        for source, length in POOLED_SINGLE_QUERIES:
            result = engine.walk(source, length)
            got.append(
                {
                    "destination": int(result.destination),
                    "mode": result.mode,
                    "gmw": result.get_more_walks_calls,
                    "request_rounds": result.rounds,
                    "request_phase_rounds": result.phase_rounds,
                    **_snapshot(engine.network),
                }
            )
        assert got == GOLDEN_POOLED_SINGLE

    @pytest.mark.parametrize("batch", [None, False], ids=["batch=None", "batch=False"])
    def test_pooled_many_cold_then_warm(self, batch):
        engine = _pooled_engine()
        got = []
        for sources, length in POOLED_MANY_QUERIES:
            result = engine.walks(sources, length, batch=batch, record_paths=True)
            got.append(
                {
                    "destinations": [int(d) for d in result.destinations],
                    "mode": result.mode,
                    "gmw": result.get_more_walks_calls,
                    "request_rounds": result.rounds,
                    "request_phase_rounds": result.phase_rounds,
                    **_snapshot(engine.network),
                }
            )
        assert got == GOLDEN_POOLED_MANY[f"batch={batch}"]
