"""Self-test of the outside-in tracing harness.

Run from the repository root::

    python3 -m pytest -q perfbench/test_tracing.py
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import SpanRecorder  # noqa: E402


def _toy_package():
    """A two-module package whose caller imported its callee by name."""
    lib = types.ModuleType("toylib.lib")

    def leaf(x):
        time.sleep(0.002)
        return x + 1

    def middle(x):
        time.sleep(0.001)
        return lib.leaf(x) + lib.leaf(x)

    class Box:
        def run(self, x):
            return api.middle(x)

    lib.leaf, lib.middle, lib.Box = leaf, middle, Box
    api = types.ModuleType("toylib.api")
    api.middle = middle  # ``from toylib.lib import middle``
    pkg = types.ModuleType("toylib")
    pkg.lib, pkg.api = lib, api
    return {"toylib": pkg, "toylib.lib": lib, "toylib.api": api}


TOY_TARGETS = (
    ("toy", "toylib.lib", "leaf"),
    ("toy", "toylib.lib", "middle"),
    ("toy", "toylib.lib", "Box.run"),
)


def _traced_toy(monkeypatch):
    for name, module in _toy_package().items():
        monkeypatch.setitem(sys.modules, name, module)
    rec = SpanRecorder()
    rebound = rec.install(TOY_TARGETS, packages=("toylib",))
    return rec, rebound, sys.modules["toylib.lib"]


def test_rebinds_every_module_binding(monkeypatch):
    rec, rebound, lib = _traced_toy(monkeypatch)
    # ``middle`` lives in lib and in api (imported by name); both rebound.
    assert rebound == {"toy.leaf": 1, "toy.middle": 2, "toy.Box.run": 1}
    with rec.span("run"):
        assert lib.Box().run(1) == 4
    rec.uninstall()
    summary = rec.summary()
    assert summary["toy.Box.run"]["calls"] == 1
    assert summary["toy.middle"]["calls"] == 1
    assert summary["toy.leaf"]["calls"] == 2
    # Uninstalled: further calls record nothing.
    lib.Box().run(1)
    assert len(rec) == 5


def test_spans_nest_and_self_times_sum_to_run_time(monkeypatch):
    rec, _rebound, lib = _traced_toy(monkeypatch)
    start = time.perf_counter()
    with rec.span("run"):
        for i in range(3):
            lib.Box().run(i)
    elapsed = time.perf_counter() - start
    rec.uninstall()
    rec.check_nesting()
    own = rec.self_times()
    assert all(s >= 0 for s in own)
    root = rec.end[0] - rec.start[0]
    assert abs(sum(own) - root) < 1e-9
    assert sum(own) <= elapsed
    names = [rec.names[i] for i in rec.name_of]
    parents = [names[p] if p >= 0 else None for p in rec.parent]
    assert list(zip(names, parents))[:5] == [
        ("run", None),
        ("toy.Box.run", "run"),
        ("toy.middle", "toy.Box.run"),
        ("toy.leaf", "toy.middle"),
        ("toy.leaf", "toy.middle"),
    ]
    summary = rec.summary()
    # leaf sleeps 2 ms and has no children: its self time is its duration.
    assert summary["toy.leaf"]["self_s"] >= 6 * 0.002
    assert summary["toy.middle"]["self_s"] < summary["toy.leaf"]["self_s"]


def test_span_closes_when_the_call_raises(monkeypatch):
    rec, _rebound, lib = _traced_toy(monkeypatch)
    with rec.span("run"):
        try:
            lib.leaf("not a number")
        except TypeError:
            pass
    rec.uninstall()
    rec.check_nesting()
    assert rec.summary()["toy.leaf"]["calls"] == 1


def test_call_hook_and_idle_callback(monkeypatch):
    for name, module in _toy_package().items():
        monkeypatch.setitem(sys.modules, name, module)
    rec = SpanRecorder()
    seen, idle = [], []
    rec.on_call["toy.leaf"] = lambda args: seen.append(args[0])
    rec.on_idle.append(lambda: idle.append(len(seen)))
    rec.install(TOY_TARGETS, packages=("toylib",))
    with rec.span("run"):
        sys.modules["toylib.lib"].Box().run(5)
    rec.uninstall()
    assert seen == [5, 5]
    # Fired once when the top-level call returned and once for the root.
    assert idle == [2, 2]
