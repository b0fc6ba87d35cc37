"""End-to-end host-time benchmark of the repro walk library.

Usage (from the repository root)::

    python3 perfbench/run.py --workload walk_oneshot --seed 1 --seconds 10 --trace 0

Each repetition runs in a fresh ``worker.py`` process (see there).  With
``--trace 0`` the run repeats full repetitions until at least
``--seconds`` of measured phase have accumulated (at least one), adds
set-up-only repetitions until it holds :data:`SETUP_SAMPLES` set-up
times, and prints every end-to-end metric.  With ``--trace 1`` it
runs an untraced, a traced and (budget permitting) another untraced
repetition and prints the traced one's per-layer metrics plus
``trace_overhead_pct``.

Human-readable lines go first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 0 when
the run completed (``correct`` says whether every output check passed)
and non-zero when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected_sim.json"
DECLARED = ROOT / "BENCHMARK.json"

#: Set-up times per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Wall-clock budget for one invocation, below the 180 s hard limit.
BUDGET_S = 165.0

WORKLOAD_NAMES = ("walk_oneshot", "serve_tenants", "serve_churn_observed")
SIM_METRICS = ("sim_rounds", "sim_messages", "sim_latency_p50_rounds", "sim_latency_p90_rounds")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class RunError(RuntimeError):
    """A repetition could not produce a result."""


def _spawn(workload: str, seed: int, mode: str, trace: int, timeout: float) -> dict:
    env = dict(os.environ)
    # One thread everywhere: the workloads are single-threaded by design.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--trace", str(trace),
    ]
    spawned = _now()
    try:
        proc = subprocess.run(
            [*cmd, "--spawned-at", repr(spawned)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} repetition exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise RunError(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["wall_s"] = _now() - spawned
    return rep


def _expected_sim(workload: str, seed: int) -> dict | None:
    if not EXPECTED.exists():
        return None
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


class Checks:
    """Run-level correctness bookkeeping (each check is one attempted op)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add_rep(self, rep: dict) -> None:
        self.attempted += rep["attempted"]
        self.failures.extend(rep["failures"])

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def sims_agree(self, reps: list[dict], workload: str, seed: int) -> None:
        first = reps[0]["sim"]
        for rep in reps[1:]:
            self.check(rep["sim"] == first, f"simulated totals differ between repetitions: {rep['sim']} != {first}")
        expected = _expected_sim(workload, seed)
        if expected is not None:
            self.check(
                {k: first[k] for k in expected} == expected,
                f"simulated totals {first} differ from the recorded values {expected}",
            )


def _untraced(args, checks: Checks, deadline: float) -> tuple[dict, list[str]]:
    full: list[dict] = []
    while True:
        rep = _spawn(args.workload, args.seed, "full", 0, deadline - _now())
        full.append(rep)
        checks.add_rep(rep)
        if sum(r["measured_s"] for r in full) >= args.seconds:
            break
        if _now() + rep["wall_s"] * 1.2 > deadline:
            break
    setups = [r["setup_s"] for r in full]
    while len(setups) < SETUP_SAMPLES:
        est = max(setups) * 1.5
        if _now() + est > deadline:
            break
        setups.append(_spawn(args.workload, args.seed, "setup", 0, deadline - _now())["setup_s"])
    checks.sims_agree(full, args.workload, args.seed)

    latencies = [x for r in full for x in r["latencies_ms"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(setups),
        "walk_steps_per_s": statistics.median(r["steps"] / r["measured_s"] for r in full),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        # Linear interpolation between order statistics, as numpy's default.
        "request_p50_ms": deciles[4],
        "request_p90_ms": deciles[8],
        **{name: full[0]["sim"][name] for name in SIM_METRICS},
    }
    notes = [
        f"repetitions: {len(full)} full, {len(setups) - len(full)} set-up only; "
        f"measured {sum(r['measured_s'] for r in full):.2f} s",
        f"setup_s is the median of {len(setups)} set-ups "
        f"(import {statistics.median(r['import_s'] for r in full):.2f} s, "
        f"graph {statistics.median(r['graph_s'] for r in full):.2f} s, "
        f"engine {statistics.median(r['engine_setup_s'] for r in full):.2f} s)",
        f"request latencies: {len(latencies)} samples",
    ]
    return metrics, notes


def _traced(args, checks: Checks, deadline: float) -> tuple[dict, list[str]]:
    # U T U: the traced repetition is compared with the mean of the untraced
    # ones on either side, which cancels a steady drift of the machine's
    # speed.  The second U is skipped when the budget cannot hold it.
    plain = [_spawn(args.workload, args.seed, "full", 0, deadline - _now())]
    traced = _spawn(args.workload, args.seed, "full", 1, deadline - _now())
    if _now() + plain[0]["wall_s"] * 1.2 <= deadline:
        plain.append(_spawn(args.workload, args.seed, "full", 0, deadline - _now()))
    for rep in (*plain, traced):
        checks.add_rep(rep)
    # The wrappers must be passive: identical simulated totals.
    checks.sims_agree([*plain, traced], args.workload, args.seed)
    untraced_s = [r["workload_s"] for r in plain]
    metrics = dict(traced["layers"])
    metrics["trace_overhead_pct"] = (traced["workload_s"] / statistics.mean(untraced_s) - 1.0) * 100.0
    if len(plain) == 2:
        noise = f"the two untraced repetitions differ by {abs(untraced_s[1] / untraced_s[0] - 1.0) * 100.0:.1f}%"
    else:
        noise = "one untraced repetition only, so its noise is unknown"
    notes = [
        f"traced repetition: {traced['spans']} spans, workload {traced['workload_s']:.2f} s "
        f"vs untraced {' and '.join(f'{t:.2f}' for t in untraced_s)} s",
        f"trace_overhead_pct is not resolved below the run-to-run noise: {noise}",
    ]
    return metrics, notes


def _declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    declared = json.loads(DECLARED.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = _declared_units(args.trace)

    deadline = _now() + BUDGET_S
    checks = Checks()
    try:
        if args.trace:
            metrics, notes = _traced(args, checks, deadline)
        else:
            metrics, notes = _untraced(args, checks, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with {DECLARED.name}", file=sys.stderr)
        return 1

    failed = len(checks.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    ratio = failed / checks.attempted if checks.attempted else 0.0
    print(f"  {'failed_ratio':48s} {ratio:>16.6g} ({failed}/{checks.attempted} operations)")
    for failure in checks.failures[:20]:
        print(f"  FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": checks.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
