"""The invariant rules the analyzer enforces.

Each rule encodes one standing invariant from ROADMAP.md as a source-level
check (the static-analysis move of distributed-systems tooling: the
protocol's accounting discipline becomes a checkable property of the
*code*, not just of one test run):

``phase-registry``
    Every ledger phase name must be a constant from
    :mod:`repro.congest.phases`.  A typo'd phase string silently opens a
    fresh phase and leaks rounds out of the family a balance identity or
    telemetry sum is watching.
``bulk-only``
    Token creation goes through ``WalkStore.add_batch`` — a per-record
    ``add_token`` (or a store-column ``append``) inside a loop is the
    exact regression the columnar engine removed.
``seeded-rng``
    All randomness flows through the seeded ``numpy`` Generator plumbing
    of :mod:`repro.util.rng`; module-global ``random.*`` / ``np.random.*``
    state or a bare ``default_rng()`` breaks bit-reproducible replays.
``fast-path-pairing``
    Every ``@charged_fast_path`` marker names a pytest node that exists —
    the equivalence proof cannot silently rot away.
``capture-balance``
    ``RoundLedger.capture()`` and ``delta_since()`` come in pairs within a
    scope; a lone capture is dead accounting, a lone ``delta_since``
    measures against someone else's baseline.
``dead-import``
    The dependency-free dead-import walk formerly inlined in
    ``tests/test_lint.py``.
``obs-passivity``
    The observability layer observes; it never perturbs.  Wall-clock
    reads inside ``src/repro`` go through the audited wrapper
    ``repro.obs.clock`` only, and code under ``src/repro/obs/`` never
    calls simulation mutators (``charge``, ``add_batch``, eviction,
    topology refresh, ...) or draws randomness — either would change
    golden ledgers or replay streams the moment tracing is switched on.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.core import Finding, Rule, SourceFile, attr_chain
from repro.congest.phases import is_registered

__all__ = [
    "BulkOnlyRule",
    "CaptureBalanceRule",
    "DeadImportRule",
    "FastPathPairingRule",
    "ObsPassivityRule",
    "PhaseRegistryRule",
    "SeededRngRule",
    "default_rules",
]

#: Paths under this marker get the stricter "use the constant" treatment.
_PRODUCTION_MARKER = ("src", "repro")


def _in_production_tree(path: Path) -> bool:
    parts = path.resolve().parts
    for i in range(len(parts) - 1):
        if parts[i : i + 2] == _PRODUCTION_MARKER:
            return True
    return False


def _in_obs_tree(path: Path) -> bool:
    parts = path.resolve().parts
    for i in range(len(parts) - 2):
        if parts[i : i + 3] == ("src", "repro", "obs"):
            return True
    return False


class PhaseRegistryRule(Rule):
    """Ledger phase names must come from :mod:`repro.congest.phases`."""

    name = "phase-registry"
    description = (
        "ledger.phase()/phase_rounds()/phase_total() literals must be phases "
        "registered in repro.congest.phases (and, in src/repro, spelled via "
        "the constants)"
    )

    #: Methods whose first argument is a phase (or family) name.
    PHASE_METHODS = frozenset({"phase", "phase_rounds", "phase_total"})
    #: Mapping attributes whose ``.get(...)`` / ``[...]`` key is a phase name.
    PHASE_MAPPINGS = frozenset({"phases", "phase_rounds", "phase_messages"})

    def applies_to(self, path: Path) -> bool:
        # The registry itself is where the strings are *defined*.
        return not path.as_posix().endswith("congest/phases.py")

    def check(self, src: SourceFile, *, root: Path) -> list[Finding]:
        findings: list[Finding] = []
        strict = _in_production_tree(src.path)

        def inspect(node: ast.AST, literal: ast.expr, where: str) -> None:
            if not (isinstance(literal, ast.Constant) and isinstance(literal.value, str)):
                return
            name = literal.value
            if not is_registered(name):
                findings.append(
                    self.finding(
                        src,
                        node,
                        f"phase literal {name!r} in {where} is not registered in "
                        "repro.congest.phases (typo'd phases silently leak rounds)",
                    )
                )
            elif strict:
                findings.append(
                    self.finding(
                        src,
                        node,
                        f"raw phase literal {name!r} in {where}: use the "
                        "repro.congest.phases constant",
                    )
                )

        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if func.attr in self.PHASE_METHODS and node.args:
                        inspect(node, node.args[0], f"{func.attr}() call")
                    elif (
                        func.attr == "get"
                        and isinstance(func.value, ast.Attribute)
                        and func.value.attr in self.PHASE_MAPPINGS
                        and node.args
                    ):
                        inspect(node, node.args[0], f"{func.value.attr}.get() lookup")
                for kw in node.keywords:
                    if kw.arg and (kw.arg == "phase" or kw.arg.endswith("_phase")):
                        inspect(node, kw.value, f"keyword {kw.arg}=")
            elif isinstance(node, ast.Subscript):
                if (
                    isinstance(node.value, ast.Attribute)
                    and node.value.attr in self.PHASE_MAPPINGS
                ):
                    inspect(node, node.slice, f"{node.value.attr}[...] lookup")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                defaults = (
                    [None] * (len(args.posonlyargs) + len(args.args) - len(args.defaults))
                    + list(args.defaults)
                    + list(args.kw_defaults)
                )
                for param, default in zip(params, defaults):
                    if default is None:
                        continue
                    pname = param.arg
                    if pname == "phase" or pname.endswith("_phase"):
                        inspect(default, default, f"default of parameter {pname!r}")
        return findings


class BulkOnlyRule(Rule):
    """Token creation inside loops must use ``WalkStore.add_batch``."""

    name = "bulk-only"
    description = (
        "no per-record WalkStore.add_token / store-column append inside "
        "for/while bodies — bulk paths go through add_batch"
    )

    #: Receiver chain segments that identify a walk store / pool object.
    STORE_HINTS = ("store", "pool")

    def check(self, src: SourceFile, *, root: Path) -> list[Finding]:
        findings: list[Finding] = []

        def looks_like_store(parts: tuple[str, ...]) -> bool:
            return any(
                part == hint or part.endswith(hint)
                for part in parts
                for hint in self.STORE_HINTS
            )

        def visit(node: ast.AST, in_loop: bool) -> None:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                chain = attr_chain(node.func)
                receiver = tuple(chain.split(".")[:-1])
                if in_loop and attr == "add_token":
                    findings.append(
                        self.finding(
                            src,
                            node,
                            "per-record add_token inside a loop: build columns and "
                            "hand them over in ONE WalkStore.add_batch call",
                        )
                    )
                elif in_loop and attr in ("append", "extend") and looks_like_store(receiver):
                    findings.append(
                        self.finding(
                            src,
                            node,
                            f"per-record {chain}(...) inside a loop mutates store "
                            "columns record-by-record: use WalkStore.add_batch",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                child_in_loop = in_loop
                if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                    child_in_loop = True
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    # A nested function defined in a loop body is not itself
                    # per-record work; its own loops are walked fresh.
                    visit(child, False)
                else:
                    visit(child, child_in_loop)

        visit(src.tree, False)
        return findings


class SeededRngRule(Rule):
    """All randomness must flow through the seeded RNG plumbing."""

    name = "seeded-rng"
    description = (
        "no module-global random.*/np.random.* state, bare default_rng(), or "
        "time.time() outside util/rng.py — randomness must be seed-derived"
    )

    #: ``np.random`` attributes that are seeded-constructor surfaces, not
    #: global-state draws.
    ALLOWED_NP_RANDOM = frozenset(
        {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
    )
    CLOCK_CALLS = frozenset({"time.time", "time.time_ns"})

    def applies_to(self, path: Path) -> bool:
        # The plumbing module itself is where seeds meet numpy.
        return not path.as_posix().endswith("util/rng.py")

    def check(self, src: SourceFile, *, root: Path) -> list[Finding]:
        findings: list[Finding] = []
        stdlib_random_names = {"random"}  # receiver spellings of the stdlib module

        for node in ast.walk(src.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                findings.append(
                    self.finding(
                        src,
                        node,
                        "stdlib `random` is process-global unseeded state: draw from "
                        "a numpy Generator via repro.util.rng instead",
                    )
                )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        stdlib_random_names.add(alias.asname or "random")

        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if not chain:
                continue
            parts = chain.split(".")
            if chain in self.CLOCK_CALLS:
                findings.append(
                    self.finding(
                        src,
                        node,
                        f"{chain}() is nondeterministic wall-clock state: thread a "
                        "seed (or the session RNG) through instead",
                    )
                )
            elif len(parts) == 2 and parts[0] in stdlib_random_names:
                findings.append(
                    self.finding(
                        src,
                        node,
                        f"{chain}() draws from the process-global stdlib RNG: use "
                        "the seeded numpy Generator plumbing (repro.util.rng)",
                    )
                )
            elif (
                len(parts) >= 3
                and parts[-3:-1] in (["np", "random"], ["numpy", "random"])
                and parts[-1] not in self.ALLOWED_NP_RANDOM
            ):
                findings.append(
                    self.finding(
                        src,
                        node,
                        f"{chain}() uses numpy's module-global RNG state: draw from "
                        "a Generator created by repro.util.rng",
                    )
                )
            elif parts[-1] == "default_rng" and not node.args and not node.keywords:
                findings.append(
                    self.finding(
                        src,
                        node,
                        "bare default_rng() seeds from the OS and breaks replays: "
                        "pass an explicit seed or use repro.util.rng.make_rng",
                    )
                )
        return findings


class FastPathPairingRule(Rule):
    """``@charged_fast_path`` markers must name equivalence tests that exist."""

    name = "fast-path-pairing"
    description = (
        "every @charged_fast_path(equivalence_test=...) names a pytest node "
        "(literal 'tests/file.py::test_name') that exists"
    )

    def __init__(self) -> None:
        self._test_names: dict[Path, set[str] | None] = {}

    def _names_in(self, test_file: Path) -> set[str] | None:
        """Test function names defined in ``test_file`` (None: unreadable)."""
        cached = self._test_names.get(test_file)
        if cached is not None or test_file in self._test_names:
            return cached
        names: set[str] | None
        try:
            tree = ast.parse(test_file.read_text())
        except (OSError, SyntaxError, UnicodeDecodeError):
            names = None
        else:
            names = {
                n.name
                for n in ast.walk(tree)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
        self._test_names[test_file] = names
        return names

    def check(self, src: SourceFile, *, root: Path) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                if not isinstance(deco, ast.Call):
                    continue
                if attr_chain(deco.func).split(".")[-1] != "charged_fast_path":
                    continue
                kw = next((k for k in deco.keywords if k.arg == "equivalence_test"), None)
                if kw is None or not (
                    isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str)
                ):
                    findings.append(
                        self.finding(
                            src,
                            deco,
                            f"@charged_fast_path on {node.name!r} needs a literal "
                            "equivalence_test='tests/file.py::test_name'",
                        )
                    )
                    continue
                node_id = kw.value.value
                rel, _, test_part = node_id.partition("::")
                test_name = test_part.split("::")[-1]
                if not test_part or not test_name:
                    findings.append(
                        self.finding(
                            src,
                            deco,
                            f"equivalence_test {node_id!r} on {node.name!r} is not a "
                            "'path::test_name' pytest node id",
                        )
                    )
                    continue
                test_file = root / rel
                names = self._names_in(test_file)
                if names is None:
                    findings.append(
                        self.finding(
                            src,
                            deco,
                            f"equivalence test file {rel!r} named by {node.name!r} "
                            "does not exist (or cannot be parsed)",
                        )
                    )
                elif test_name not in names:
                    findings.append(
                        self.finding(
                            src,
                            deco,
                            f"equivalence test {test_name!r} not found in {rel!r}: "
                            f"the fast path {node.name!r} has lost its proof",
                        )
                    )
        return findings


class CaptureBalanceRule(Rule):
    """``ledger.capture()`` and ``ledger.delta_since()`` pair up per scope."""

    name = "capture-balance"
    description = (
        "a scope calling RoundLedger.capture() must also call delta_since() "
        "(and vice versa) — unpaired calls are broken per-request accounting"
    )

    def applies_to(self, path: Path) -> bool:
        # The ledger defines both methods; it does not consume them.
        return not path.as_posix().endswith("congest/ledger.py")

    def check(self, src: SourceFile, *, root: Path) -> list[Finding]:
        findings: list[Finding] = []

        def scan_scope(scope: ast.AST, label: str) -> None:
            captures: list[ast.Call] = []
            deltas: list[ast.Call] = []

            def visit(node: ast.AST) -> None:
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    parts = attr_chain(node.func).split(".")
                    if "ledger" in parts[:-1]:
                        if node.func.attr == "capture":
                            captures.append(node)
                        elif node.func.attr == "delta_since":
                            deltas.append(node)
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        scan_scope(child, child.name)
                    else:
                        visit(child)

            for stmt in ast.iter_child_nodes(scope):
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan_scope(stmt, stmt.name)
                else:
                    visit(stmt)
            if captures and not deltas:
                findings.append(
                    self.finding(
                        src,
                        captures[0],
                        f"{label} captures the ledger but never calls delta_since(): "
                        "the snapshot is dead accounting",
                    )
                )
            elif deltas and not captures:
                findings.append(
                    self.finding(
                        src,
                        deltas[0],
                        f"{label} calls delta_since() without its own capture(): the "
                        "delta is measured against someone else's baseline",
                    )
                )

        scan_scope(src.tree, "module scope")
        return findings


class DeadImportRule(Rule):
    """Every top-level import must be referenced outside the import itself."""

    name = "dead-import"
    description = (
        "names bound by top-level imports must be used somewhere outside the "
        "import statement (package __init__ re-export modules are exempt)"
    )

    def applies_to(self, path: Path) -> bool:
        # Re-export modules: imports exist to populate __all__.
        return path.name != "__init__.py"

    def check(self, src: SourceFile, *, root: Path) -> list[Finding]:
        import_spans: list[tuple[int, int]] = []
        bound: list[tuple[str, int]] = []  # (name, first import line)
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                import_spans.append((node.lineno, node.end_lineno or node.lineno))
                for alias in node.names:
                    bound.append((alias.asname or alias.name.split(".")[0], node.lineno))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                import_spans.append((node.lineno, node.end_lineno or node.lineno))
                for alias in node.names:
                    if alias.name != "*":
                        bound.append((alias.asname or alias.name, node.lineno))

        def inside_import(lineno: int) -> bool:
            return any(lo <= lineno <= hi for lo, hi in import_spans)

        findings: list[Finding] = []
        for name, lineno in bound:
            pattern = re.compile(r"\b" + re.escape(name) + r"\b")
            used = any(
                pattern.search(line)
                for i, line in enumerate(src.lines, 1)
                if not inside_import(i)
            )
            if not used:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=src.path,
                        lineno=lineno,
                        message=f"unused import {name!r}",
                    )
                )
        return findings


class ObsPassivityRule(Rule):
    """The observability layer observes; it never perturbs the simulation."""

    name = "obs-passivity"
    description = (
        "wall-clock reads in src/repro go through repro.obs.clock only, "
        "src/repro/obs/ never calls simulation mutators or draws randomness, "
        "and ledger.charge is called only from congest/network.py"
    )

    #: The perf-timer family (``time.time`` is ``seeded-rng``'s beat).
    CLOCK_ATTRS = frozenset(
        {
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
            "thread_time",
            "thread_time_ns",
        }
    )
    #: Methods that advance or mutate simulation state — poison in a hook
    #: that runs mid-charge: the golden ledgers would shift the moment
    #: tracing is switched on.
    MUTATOR_METHODS = frozenset(
        {
            "charge",
            "merge_step",
            "add_batch",
            "add_token",
            "evict_rows",
            "apply_delta",
            "refresh_topology",
            "restore_shards",
            "rebuild_quotas",
        }
    )
    #: RNG draws and seeded-generator factories — an observer consuming
    #: stream state changes every replay it watches.
    RNG_CALLS = frozenset(
        {
            "integers",
            "choice",
            "shuffle",
            "permutation",
            "normal",
            "uniform",
            "make_rng",
            "derive_rng",
            "spawn_rngs",
            "default_rng",
        }
    )

    def applies_to(self, path: Path) -> bool:
        # clock.py *is* the audited wall-clock wrapper.
        return not path.as_posix().endswith("obs/clock.py")

    def check(self, src: SourceFile, *, root: Path) -> list[Finding]:
        findings: list[Finding] = []
        if not _in_production_tree(src.path):
            return findings
        in_obs = _in_obs_tree(src.path)

        time_names = {"time"}
        clock_aliases: set[str] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_names.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self.CLOCK_ATTRS:
                        clock_aliases.add(alias.asname or alias.name)

        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if not chain:
                continue
            parts = chain.split(".")
            is_clock = (
                len(parts) == 2 and parts[0] in time_names and parts[1] in self.CLOCK_ATTRS
            ) or (len(parts) == 1 and parts[0] in clock_aliases)
            if is_clock:
                findings.append(
                    self.finding(
                        src,
                        node,
                        f"{chain}() reads the wall clock inside src/repro: route "
                        "timing through repro.obs.clock, the audited wrapper",
                    )
                )
            elif in_obs and len(parts) >= 2 and (
                parts[-1] in self.MUTATOR_METHODS or parts[-1].startswith("deliver")
            ):
                findings.append(
                    self.finding(
                        src,
                        node,
                        f"{chain}() mutates simulation state from the observability "
                        "layer: observers are passive (golden ledgers must stay "
                        "bit-identical with tracing on)",
                    )
                )
            elif in_obs and parts[-1] in self.RNG_CALLS:
                findings.append(
                    self.finding(
                        src,
                        node,
                        f"{chain}() draws from (or constructs) an RNG inside the "
                        "observability layer: an observer consuming stream state "
                        "perturbs every replay it watches",
                    )
                )
            elif (
                parts[-2:] == ["ledger", "charge"]
                and not src.path.as_posix().endswith("congest/network.py")
            ):
                # Network.charge is the one way into the ledger: it carries
                # the per-edge load the observers read.  A direct ledger
                # charge elsewhere could bill messages no edge accounts for.
                findings.append(
                    self.finding(
                        src,
                        node,
                        f"{chain}() bypasses Network.charge: charges go through "
                        "congest/network.py so every charge carries its edge load",
                    )
                )
        return findings


def default_rules() -> list[Rule]:
    """Fresh instances of every rule, in reporting order."""
    return [
        PhaseRegistryRule(),
        BulkOnlyRule(),
        SeededRngRule(),
        FastPathPairingRule(),
        CaptureBalanceRule(),
        DeadImportRule(),
        ObsPassivityRule(),
    ]
