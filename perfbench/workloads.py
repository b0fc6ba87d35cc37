"""The benchmark's three workloads: inputs, set-up, measured phase, checks.

Each workload replays a fixed part and draws the rest from the run's
seed, all *before* timing starts.  Fixed (from :data:`WORKLOAD_SEED`):
the random 4-regular graph and, for the serving workloads, the traffic
trace (per-tick arrivals with every request's arguments, and how many
edges each tick deletes and inserts).  From ``--seed``: the one-shot walk
sources, which edges each churn tick deletes and inserts, and the
program's own random generator.  The program sees only the generated
inputs; the repository's own generators (``sample_request_args``,
``sample_churn_delta`` with its connectivity check) never run inside a
timed region.

Why these three (see ``README.md`` for the layer → metric predictions):

* ``walk_oneshot`` — the paper's API as a researcher calls it: one-shot
  ``single_random_walk`` (paths recorded, the default) and
  ``many_random_walks`` at n=100k.  BFS-tree rebuilds and the
  SAMPLE-DESTINATION convergecast dominate; no pool is reused.
* ``serve_tenants`` — read-only three-tenant serving at n=100k on a
  prepared pool.  The topology never changes, so any per-topology cache
  stays warm.
* ``serve_churn_observed`` — serving with edge churn and every obs sink
  attached at n=10k: the only workload where the ``dynamic`` and ``obs``
  layers work and where per-topology state is invalidated.
"""

from __future__ import annotations

import contextlib
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS", "Outcome", "build_graph"]

DEGREE = 4
WALK_LENGTH = 4096
MANY_K = 16
LENGTHS = (1024, 4096)
KS = (1, 4, 16)
HOT_FRACTION = 0.2
CHURN_RATE = 0.25  # edge deletions, and separately insertions, per tick
TENANTS = "alice:1:0,bob:2:0,carol:4:0"
SLO_SPEC = "name=request-latency,metric=latency,target=8192,objective=0.1,window=8"

#: Seed of every workload's graph and serving traffic trace; ``--seed``
#: draws the rest.  ``random_regular_graph`` retries its pairing model a
#: seed-dependent number of times (1.2-6 s at n=100k), which made
#: ``setup_s`` vary by seed; and a fresh arrival trace per seed moved the
#: request-latency percentiles of ``serve_churn_observed`` by 0.23-0.38
#: (interquartile range over median) between seeds.
WORKLOAD_SEED = 0

# Independent RNG streams derived from a seed.
_GRAPH, _TRAFFIC, _INPUTS, _PROGRAM = 0, 1, 2, 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _program_seed(seed: int) -> int:
    return int(_rng(seed, _PROGRAM).integers(2**31))


def build_graph(n: int):
    from repro.graphs.generators import random_regular_graph

    return random_regular_graph(n, DEGREE, _rng(WORKLOAD_SEED, _GRAPH))


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _traffic(n: int, rates: dict, min_requests: int, rng: np.random.Generator) -> list[list]:
    """Open-loop arrivals: per tick, the ``submit`` kwargs of each request.

    Each tenant gets Poisson(``rate``) arrivals per tick until at least
    ``min_requests`` have arrived; ``sample_request_args`` draws each
    request from the menus.
    """
    from repro.serve.workload import TrafficSpec, sample_request_args

    specs = {
        tenant: TrafficSpec(
            n=n, lengths=LENGTHS, ks=KS, hot_fraction=HOT_FRACTION, tenant=tenant
        )
        for tenant in rates
    }
    ticks, total = [], 0
    while total < min_requests:
        tick = [
            sample_request_args(specs[tenant], rng)
            for tenant, rate in rates.items()
            for _ in range(rng.poisson(rate))
        ]
        ticks.append(tick)
        total += len(tick)
    return ticks


@dataclass
class Outcome:
    """What one measured phase produced, before it is turned into metrics.

    Every request and every whole-run check (ledger balance, heatmap
    residual, ...) is one attempted operation; ``failures`` names the
    ones that failed.
    """

    measured_s: float = 0.0
    steps: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    sim: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def _sim(rounds: int, messages: int, latency_rounds) -> dict[str, float]:
    """Simulated-time totals of one measured phase (deterministic per seed)."""
    return {
        "sim_rounds": rounds,
        "sim_messages": messages,
        "sim_latency_p50_rounds": _percentile(latency_rounds, 50),
        "sim_latency_p90_rounds": _percentile(latency_rounds, 90),
    }


# ----------------------------------------------------------------------
# walk_oneshot
# ----------------------------------------------------------------------
class WalkOneshot:
    name = "walk_oneshot"
    n = 100_000

    def inputs(self, seed: int, graph) -> dict:
        rng = _rng(seed, _INPUTS)
        return {
            "source": int(rng.integers(self.n)),
            "sources": [int(s) for s in rng.integers(self.n, size=MANY_K)],
        }

    def setup(self, graph, seed: int) -> dict:
        # The one-shot API builds its own engine inside each call.
        return {"graph": graph, "seed": seed}

    def run(self, state: dict, inputs: dict, export_span) -> Outcome:
        from repro.congest.network import Network
        from repro.errors import WalkError
        from repro.walks.many_walks import many_random_walks
        from repro.walks.single_walk import single_random_walk

        graph = state["graph"]
        seed = _program_seed(state["seed"])
        # Each call gets the network its wrapper would build itself
        # (seeded with the engine's own generator), passed in so the
        # ledger stays readable after the call.
        start = time.perf_counter()
        rng_one = np.random.default_rng(seed)
        net_one = Network(graph, seed=rng_one)
        single = single_random_walk(
            graph, inputs["source"], WALK_LENGTH, seed=rng_one, network=net_one
        )
        mid = time.perf_counter()
        rng_many = np.random.default_rng(seed + 1)
        net_many = Network(graph, seed=rng_many)
        many = many_random_walks(
            graph, inputs["sources"], WALK_LENGTH, seed=rng_many, network=net_many
        )
        end = time.perf_counter()
        measured = end - start
        call_s = (mid - start, end - mid)

        out = Outcome(measured_s=measured)
        try:
            single.verify_positions(graph)
            ok, why = 0 <= single.destination < self.n, f"destination {single.destination}"
        except WalkError as exc:
            ok, why = False, str(exc)
        if out.check(ok, f"single_random_walk: {why}"):
            out.steps += WALK_LENGTH
        dests = list(many.destinations)
        if out.check(
            len(dests) == MANY_K and all(0 <= d < self.n for d in dests),
            f"many_random_walks: bad destinations {dests}",
        ):
            out.steps += MANY_K * WALK_LENGTH
        for label, res, net in (("single", single, net_one), ("many", many, net_many)):
            ledger = net.ledger
            phases = sum(p.rounds for p in ledger.phases.values())
            out.check(
                res.rounds == ledger.rounds == phases,
                f"{label}: ledger balance result={res.rounds} ledger={ledger.rounds} "
                f"phases={phases}",
            )
        # Each API call is one request: host latency is the call's wall
        # time, simulated latency its rounds.
        out.latencies_ms = [t * 1e3 for t in call_s]
        out.sim = _sim(
            net_one.rounds + net_many.rounds,
            net_one.messages_sent + net_many.messages_sent,
            [single.rounds, many.rounds],
        )
        out.counts = {
            "congest.max_congestion": max(
                net_one.ledger.max_congestion, net_many.ledger.max_congestion
            )
        }
        return out


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
def _serve_ticks(scheduler, engine, inputs: dict, clock, out: Outcome) -> list:
    """Drive pre-generated ticks open-loop, then drain; fills host latencies.

    A request is due at the start of the tick it arrives in; its latency
    runs to the end of the tick after which its ticket is terminal.  A
    churn delta lands between ticks, after the tick's service and before
    the next arrivals (where background maintenance runs), so it delays
    exactly the requests still outstanding.
    """
    from repro.serve.model import DONE, QUEUED

    tickets = []
    pending: list[tuple[object, float]] = []

    def settle(now: float) -> None:
        still = []
        for ticket, due in pending:
            if ticket.status == QUEUED:
                still.append((ticket, due))
            elif ticket.status == DONE:
                out.latencies_ms.append((now - due) * 1e3)
        pending[:] = still

    for requests, delta in zip(inputs["ticks"], inputs["deltas"]):
        due = clock()
        for kwargs in requests:
            ticket = scheduler.submit(**kwargs)
            tickets.append(ticket)
            pending.append((ticket, due))
        scheduler.tick()
        settle(clock())
        if delta is not None:
            engine.apply_churn(delta)
    while scheduler.queue_depth:
        scheduler.tick()
        settle(clock())
    return tickets


def _check_tickets(tickets, n: int, out: Outcome) -> list:
    from repro.serve.model import DONE

    done = []
    for ticket in tickets:
        dests = list(ticket.result.destinations) if ticket.status == DONE else []
        if out.check(
            ticket.status == DONE
            and not ticket.deadline_missed
            and len(dests) == ticket.k
            and all(0 <= d < n for d in dests),
            f"ticket {ticket.ticket_id}: status={ticket.status} reject={ticket.reject_reason} "
            f"deadline_missed={ticket.deadline_missed} destinations={dests}",
        ):
            done.append(ticket)
    return done


def _serve_outcome(engine, scheduler, tickets, base, measured, out: Outcome, n: int) -> None:
    from repro.engine.pool import CHURN_PHASE

    out.measured_s = measured
    done = _check_tickets(tickets, n, out)
    out.steps = sum(t.k * t.request.length for t in done)
    ledger = engine.network.ledger
    session = ledger.rounds - base.rounds
    attributed = sum(t.rounds_attributed for t in tickets)
    maintain = ledger.phase_rounds("pool-refill/maintain") - base.phase_rounds.get(
        "pool-refill/maintain", 0
    )
    churn = ledger.phase_rounds(CHURN_PHASE) - base.phase_rounds.get(CHURN_PHASE, 0)
    out.check(
        attributed + maintain + churn == session,
        f"ledger balance: attributed {attributed} + maintain {maintain} + churn {churn} "
        f"!= session {session}",
    )
    out.sim = _sim(session, ledger.messages - base.messages, [t.latency_rounds for t in done])
    stats = scheduler.stats()
    est = engine.stats()
    out.counts = {
        "congest.max_congestion": ledger.max_congestion,
        "serve.cohorts": stats.cohorts,
        "serve.walks_per_cohort": stats.walks_served / stats.cohorts if stats.cohorts else 0.0,
        "dynamic.churn_events": est.churn_events,
        "dynamic.tokens_evicted": est.churn_tokens_evicted,
        "dynamic.tokens_regenerated": est.churn_tokens_regenerated,
    }


class ServeTenants:
    name = "serve_tenants"
    n = 100_000
    min_requests = 400

    def inputs(self, seed: int, graph) -> dict:
        rates = dict.fromkeys(("alice", "bob", "carol"), 1.0)
        ticks = _traffic(self.n, rates, self.min_requests, _rng(WORKLOAD_SEED, _TRAFFIC))
        return {"ticks": ticks, "deltas": [None] * len(ticks)}

    def setup(self, graph, seed: int) -> dict:
        from repro.engine.core import WalkEngine
        from repro.serve.tenants import TenantRegistry

        engine = WalkEngine(
            graph, seed=_program_seed(seed), record_paths=False, auto_maintain=False
        )
        engine.prepare(length_hint=WALK_LENGTH)
        scheduler = engine.scheduler(
            tenants=TenantRegistry.parse(TENANTS),
            max_batch_requests=8,
            max_batch_walks=64,
            pipelined_report=True,
        )
        return {"engine": engine, "scheduler": scheduler}

    def run(self, state: dict, inputs: dict, export_span) -> Outcome:
        engine, scheduler = state["engine"], state["scheduler"]
        out = Outcome()
        base = engine.network.ledger.capture()
        start = time.perf_counter()
        tickets = _serve_ticks(scheduler, engine, inputs, time.perf_counter, out)
        measured = time.perf_counter() - start
        _serve_outcome(engine, scheduler, tickets, base, measured, out, self.n)
        return out


class ServeChurnObserved:
    name = "serve_churn_observed"
    n = 10_000
    min_requests = 150

    def inputs(self, seed: int, graph) -> dict:
        from repro.dynamic.workload import sample_churn_delta
        from repro.graphs.graph import Graph

        traffic = _rng(WORKLOAD_SEED, _TRAFFIC)
        ticks = _traffic(self.n, {None: 3.0}, self.min_requests, traffic)
        # The trace fixes how many edges each tick deletes and inserts; the
        # run's seed picks which.  Deltas are drawn against a scratch copy
        # that replays them, so the session graph is untouched until the
        # program applies them.
        rng = _rng(seed, _INPUTS)
        scratch = Graph(self.n, graph.edge_array.copy(), name="churn-inputs")
        deltas = []
        deletes = traffic.poisson(CHURN_RATE, len(ticks))
        inserts = traffic.poisson(CHURN_RATE, len(ticks))
        for d, i in zip(deletes, inserts):
            delta = None
            if d or i:
                delta = sample_churn_delta(scratch, rng, deletes=int(d), inserts=int(i))
                if delta.is_empty:
                    delta = None
                else:
                    scratch.apply_delta(delta)
            deltas.append(delta)
        return {
            "ticks": ticks,
            "deltas": deltas,
            "final_edges": scratch.edge_array,
        }

    def setup(self, graph, seed: int) -> dict:
        from repro.engine.core import WalkEngine
        from repro.obs import HeatmapSink, MetricsRegistry, SloMonitor, SloSpec, Tracer

        engine = WalkEngine(
            graph, seed=_program_seed(seed), record_paths=False, auto_maintain=False
        )
        sinks = {
            "tracer": Tracer(),
            "metrics": MetricsRegistry(),
            "heatmap": HeatmapSink(),
            "slo": SloMonitor(specs=[SloSpec.parse(SLO_SPEC)]),
        }
        engine.attach_observability(**sinks)
        engine.prepare(length_hint=WALK_LENGTH)
        return {"engine": engine, "scheduler": engine.scheduler(), **sinks}

    def run(self, state: dict, inputs: dict, export_span) -> Outcome:
        engine, scheduler = state["engine"], state["scheduler"]
        tracer, metrics, heatmap = state["tracer"], state["metrics"], state["heatmap"]
        out = Outcome()
        base = engine.network.ledger.capture()
        out_dir = Path(__file__).resolve().parent.parent / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        start = time.perf_counter()
        tickets = _serve_ticks(scheduler, engine, inputs, time.perf_counter, out)
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp, export_span():
            tracer.write(Path(tmp) / "trace.json", extra_events=heatmap.counter_events())
            metrics.write(Path(tmp) / "metrics.prom")
            heatmap.write(Path(tmp) / "heatmap.json")
        measured = time.perf_counter() - start
        _serve_outcome(engine, scheduler, tickets, base, measured, out, self.n)
        residual = heatmap.residual_messages()
        out.check(residual == 0, f"heatmap residual {residual} != 0")
        out.check(
            np.array_equal(engine.graph.edge_array, inputs["final_edges"]),
            "session graph diverged from the generated churn inputs",
        )
        out.counts["obs.spans"] = tracer.emitted
        out.counts["obs.heatmap_residual"] = residual
        return out


WORKLOADS = {w.name: w for w in (WalkOneshot(), ServeTenants(), ServeChurnObserved())}

#: ``export_span`` of an untraced run.
no_span = contextlib.nullcontext
