"""The project-specific rules of ``repro check``.

Each rule pins an invariant that an earlier PR of this repository
learned the hard way — see ``docs/static-analysis.md`` for the full
story behind every code.  Rules are deliberately narrow: they match
this repository's layout and naming conventions, which is what makes
them precise enough to run with zero tolerated violations.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Any, ClassVar, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.tools.check.core import FileContext, Rule, Violation, _match, register
from repro.tools.check.dataflow import (
    MUTATING_METHODS,
    ScopeTaint,
    TaintPolicy,
    is_unresolved,
    module_constants,
    resolve_constant,
    scope_walk,
    taint_scopes,
)

__all__ = [
    "IntExactIntervals",
    "VersionedWireMessages",
    "RawSendOutsideRetryHelper",
    "SimulatorDeterminism",
    "NoBlockingIOInAsync",
    "TypedCoreDiscipline",
    "DurableCheckpointWrites",
    "FrontierIntExactness",
    "OpaqueJobIds",
    "WireSchemaCompatibility",
    "AsyncioConcurrencyDiscipline",
    "CheckpointFsyncCoverage",
    "HandlerExceptionSafety",
    "compute_wire_schema",
    "update_wire_schemas",
]


def _identifiers(node: ast.AST) -> Set[str]:
    """Every Name id and Attribute attr mentioned under ``node``."""
    found: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _is_float_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register
class IntExactIntervals(Rule):
    """RC01 — interval/number arithmetic must stay int-exact.

    The wire format and the checkpoint files carry leaf numbers up to
    ``50!``; a single float creeping into an interval endpoint or a
    tree weight silently rounds it (floats hold 53 bits) and the
    §4.1 covering invariant is gone.  In the pure number-coding
    modules *any* ``/``, ``float()`` or float literal is flagged; in
    the wider grid/ scope only expressions touching interval-ish
    identifiers are, so wall-clock floats stay legal there.

    Since the dataflow upgrade the "touching" is taint-based, not just
    lexical: ``b = interval[0]; b / 2`` is caught because ``b`` is
    bound from an interval-derived value, even though the division
    itself mentions no interval-ish name.  The old identifier
    heuristic is retained as a floor, so everything PR 5 caught is
    still caught.
    """

    code: ClassVar[str] = "RC01"
    title: ClassVar[str] = "interval arithmetic must stay int-exact"
    invariant: ClassVar[str] = (
        "interval endpoints and tree weights are exact bignum ints "
        "(PAPER eq. 1-9; floats round above 2**53)"
    )
    #: Modules where numbers are leaf counts by definition: zero floats.
    exact_scope: ClassVar[Tuple[str, ...]] = (
        "repro/core/interval.py",
        "repro/core/tree.py",
        "repro/core/numbering.py",
        "repro/core/fold.py",
        "repro/core/unfold.py",
    )
    #: Modules where floats are legal (clocks, costs) but must not mix
    #: with interval-ish values.
    tainted_scope: ClassVar[Tuple[str, ...]] = (
        "repro/core/interval_set.py",
        "repro/grid/*.py",
    )
    scope: ClassVar[Tuple[str, ...]] = exact_scope + tainted_scope

    #: Identifiers that mark a value as an interval endpoint / weight.
    TAINTED: ClassVar[FrozenSet[str]] = frozenset(
        {
            "begin",
            "end",
            "interval",
            "intervals",
            "root_interval",
            "remaining_interval",
            "consumed",
            "weight",
            "weights",
            "leaves",
            "total_leaves",
            "leaf_number",
        }
    )

    def _lexical(self, node: ast.AST) -> bool:
        """PR 5's identifier-name heuristic, kept as the floor: the
        dataflow upgrade widens what is caught, never narrows it."""
        return bool(_identifiers(node) & self.TAINTED)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        exact = any(_match(ctx.rel, p) for p in self.exact_scope)
        policy = TaintPolicy(seeds=self.TAINTED)
        for scope in taint_scopes(ctx.tree, policy):
            yield from self._check_scope(ctx, scope, exact)

    def _check_scope(
        self, ctx: FileContext, scope: ScopeTaint, exact: bool
    ) -> Iterator[Violation]:
        for node in scope.walk():
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div
            ):
                operands = (
                    [node.left, node.right]
                    if isinstance(node, ast.BinOp)
                    else [node.target, node.value]
                )
                if exact or self._lexical(node) or any(
                    scope.tainted(op) for op in operands
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "true division on interval arithmetic — "
                        "use // to stay int-exact",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                if exact or any(
                    self._lexical(arg) or scope.tainted(arg)
                    for arg in node.args
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "float() conversion of an interval-valued "
                        "expression loses exactness above 2**53",
                    )
            elif exact and _is_float_constant(node):
                yield self.violation(
                    ctx,
                    node,
                    f"float literal {node.value!r} in an int-exact "
                    "number-coding module",
                )
            elif not exact and isinstance(node, (ast.BinOp, ast.Compare)):
                operands = (
                    [node.left, node.right]
                    if isinstance(node, ast.BinOp)
                    else [node.left, *node.comparators]
                )
                floats = [op for op in operands if _is_float_constant(op)]
                others = [op for op in operands if not _is_float_constant(op)]
                if floats and any(
                    self._lexical(op) or scope.tainted(op) for op in others
                ):
                    yield self.violation(
                        ctx,
                        floats[0],
                        "float literal mixed into interval arithmetic",
                    )


@register
class VersionedWireMessages(Rule):
    """RC03 — wire dataclasses carry ``version`` and are codec-registered.

    PR 4's framing refuses frames from the future by reading each
    message's explicit ``version`` field; a message without one decodes
    as v1 forever, and one missing from ``_WIRE_TYPES`` cannot travel
    over TCP at all (it only works over fork, a mixed-transport trap).
    """

    code: ClassVar[str] = "RC03"
    title: ClassVar[str] = "protocol messages are versioned and registered"
    invariant: ClassVar[str] = (
        "every wire dataclass has an explicit version field and a "
        "_WIRE_TYPES registration (PR 4 framing contract)"
    )
    scope: ClassVar[Tuple[str, ...]] = (
        "repro/grid/runtime/protocol.py",
        "repro/grid/net/framing.py",
    )

    def __init__(self) -> None:
        self._registry: Optional[Set[str]] = None

    # -------------------------------------------------------- phase 1
    def collect(self, ctx: FileContext) -> None:
        if _match(ctx.rel, "*framing.py"):
            registry = self._parse_registry(ctx.tree)
            if registry is not None:
                self._registry = registry

    @staticmethod
    def _parse_registry(tree: ast.Module) -> Optional[Set[str]]:
        """Names registered in the ``_WIRE_TYPES`` codec dict."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if "_WIRE_TYPES" not in targets:
                continue
            names: Set[str] = set()
            if isinstance(node.value, ast.DictComp):
                source: ast.AST = node.value.generators[0].iter
            else:
                source = node.value
            for sub in ast.walk(source):
                if isinstance(sub, ast.Name) and sub.id != "cls":
                    names.add(sub.id)
            return names
        return None

    # -------------------------------------------------------- phase 2
    def _registry_for(self, ctx: FileContext) -> Optional[Set[str]]:
        if self._registry is not None:
            return self._registry
        # Checking protocol.py alone: resolve the sibling framing.py.
        framing = ctx.path.resolve().parent.parent / "net" / "framing.py"
        if framing.exists():
            try:
                self._registry = self._parse_registry(
                    ast.parse(framing.read_text(encoding="utf-8"))
                )
            except (OSError, SyntaxError):
                self._registry = None
        return self._registry

    @staticmethod
    def _dataclasses(tree: ast.Module) -> Iterator[ast.ClassDef]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = (
                    target.id
                    if isinstance(target, ast.Name)
                    else target.attr
                    if isinstance(target, ast.Attribute)
                    else None
                )
                if name == "dataclass":
                    yield node
                    break

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        registry = self._registry_for(ctx)
        for cls in self._dataclasses(ctx.tree):
            fields = {
                stmt.target.id
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            }
            registered = registry is not None and cls.name in registry
            # A dataclass is a wire message when the codec knows it or
            # when it carries the protocol's ``seq`` field; plain value
            # types (e.g. ProblemSpec) are neither.
            if not registered and "seq" not in fields:
                continue
            if "version" not in fields:
                yield self.violation(
                    ctx,
                    cls,
                    f"wire message {cls.name} lacks an explicit "
                    "'version' field (decoders cannot refuse future "
                    "frames without one)",
                )
            if registry is not None and not registered:
                yield self.violation(
                    ctx,
                    cls,
                    f"wire message {cls.name} is not registered in "
                    "_WIRE_TYPES — it cannot travel over the network "
                    "transports",
                )


@register
class RawSendOutsideRetryHelper(Rule):
    """RC04 — worker RPCs go through the ``_RpcChannel`` retry helper.

    PR 1's at-least-once discipline (same-seq retries, the
    coordinator's reply cache) only holds if every message is stamped
    and retried by the helper; a raw ``connection.send`` bypasses the
    seq counter and can wedge the single-outstanding pipeline.
    """

    code: ClassVar[str] = "RC04"
    title: ClassVar[str] = "no raw sends outside the RPC retry helper"
    invariant: ClassVar[str] = (
        "every worker->coordinator message is an at-least-once RPC "
        "(PR 1 seq/retry discipline)"
    )
    scope: ClassVar[Tuple[str, ...]] = ("repro/grid/runtime/bbprocess.py",)
    helper_class: ClassVar[str] = "_RpcChannel"

    @classmethod
    def _helper_names(cls, tree: ast.Module) -> Set[str]:
        """Local names bound to a ``_RpcChannel(...)`` instance.

        ``chan.send(...)`` *is* the retry helper (its ``send`` stamps a
        seq and arms ``collect``); only sends on anything else bypass
        the at-least-once machinery.
        """
        names: Set[str] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == cls.helper_class
            ):
                names.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
        return names

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        helpers = self._helper_names(ctx.tree)
        yield from self._walk(ctx, ctx.tree, helpers, inside_helper=False)

    def _walk(
        self,
        ctx: FileContext,
        node: ast.AST,
        helpers: Set[str],
        inside_helper: bool,
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            inside = inside_helper or (
                isinstance(child, ast.ClassDef)
                and child.name == self.helper_class
            )
            if (
                not inside
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "send"
                and not (
                    isinstance(child.func.value, ast.Name)
                    and child.func.value.id in helpers
                )
            ):
                yield self.violation(
                    ctx,
                    child,
                    "raw .send() outside _RpcChannel — unstamped, "
                    "unretried messages break the at-least-once protocol",
                )
            yield from self._walk(ctx, child, helpers, inside)


@register
class SimulatorDeterminism(Rule):
    """RC05 — the simulator draws no unseeded randomness or wall time.

    Chaos schedules and Table 2 reproductions replay byte-identically
    only because every stochastic source is a seeded ``random.Random``
    and every clock is virtual.  ``random.<fn>()`` module calls share
    one ambient global state, and ``time.time()`` / ``time.monotonic()``
    read the host.  The worker core is in scope because the simulator
    runs it.
    """

    code: ClassVar[str] = "RC05"
    title: ClassVar[str] = "simulator determinism discipline"
    invariant: ClassVar[str] = (
        "simulation runs replay exactly from their seed (Table 2 / "
        "chaos schedules)"
    )
    scope: ClassVar[Tuple[str, ...]] = (
        "repro/grid/simulator/*.py",
        "repro/grid/runtime/worker.py",
    )
    #: --strict extends the no-global-randomness part to benchmarks
    #: and examples, whose results are committed / copy-pasted.
    strict_scope: ClassVar[Tuple[str, ...]] = (
        "benchmarks/*.py",
        "examples/*.py",
    )

    UNSEEDED: ClassVar[FrozenSet[str]] = frozenset(
        {
            "betavariate",
            "choice",
            "choices",
            "expovariate",
            "gauss",
            "getrandbits",
            "lognormvariate",
            "normalvariate",
            "paretovariate",
            "randint",
            "random",
            "randrange",
            "sample",
            "seed",
            "shuffle",
            "triangular",
            "uniform",
            "vonmisesvariate",
            "weibullvariate",
        }
    )
    WALL_CLOCKS: ClassVar[FrozenSet[str]] = frozenset(
        {"monotonic", "perf_counter", "time"}
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        in_simulator = any(_match(ctx.rel, p) for p in self.scope)
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
            ):
                continue
            owner, attr = node.func.value.id, node.func.attr
            if owner == "random" and attr in self.UNSEEDED:
                yield self.violation(
                    ctx,
                    node,
                    f"random.{attr}() uses the ambient global RNG — "
                    "thread a seeded random.Random instance instead",
                )
            elif in_simulator and owner == "time" and attr in self.WALL_CLOCKS:
                yield self.violation(
                    ctx,
                    node,
                    f"time.{attr}() reads the wall clock inside the "
                    "simulator — use the virtual clock",
                )


@register
class NoBlockingIOInAsync(Rule):
    """RC06 — no blocking socket/file I/O inside ``async def`` bodies.

    The TCP listener runs one asyncio loop for *every* connected
    worker; one blocking call inside a coroutine stalls heartbeat
    processing for the whole fleet and turns the half-open-peer
    detector into a half-open-server generator.
    """

    code: ClassVar[str] = "RC06"
    title: ClassVar[str] = "async bodies never block"
    invariant: ClassVar[str] = (
        "the listener's event loop services every peer; blocking calls "
        "freeze heartbeats fleet-wide"
    )
    scope: ClassVar[Tuple[str, ...]] = (
        "repro/grid/net/*.py",
        "repro/grid/service/*.py",
    )

    #: module-level calls that always block
    BLOCKING_MODULE_CALLS: ClassVar[Dict[str, FrozenSet[str]]] = {
        "time": frozenset({"sleep"}),
        "socket": frozenset(
            {
                "socket",
                "create_connection",
                "getaddrinfo",
                "gethostbyname",
                "gethostbyaddr",
            }
        ),
        "subprocess": frozenset({"run", "call", "check_call", "check_output"}),
    }
    #: method names that only exist on blocking socket/file objects
    BLOCKING_METHODS: ClassVar[FrozenSet[str]] = frozenset(
        {"accept", "makefile", "recv", "recv_into", "recvfrom", "sendall"}
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        yield from self._walk(ctx, ctx.tree, in_async=False)

    def _walk(
        self, ctx: FileContext, node: ast.AST, in_async: bool
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            inside = in_async or isinstance(child, ast.AsyncFunctionDef)
            if in_async and isinstance(child, ast.Call):
                yield from self._check_call(ctx, child)
            yield from self._walk(ctx, child, inside)

    def _check_call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterator[Violation]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            yield self.violation(
                ctx, node, "blocking open() inside an async def"
            )
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                blocked = self.BLOCKING_MODULE_CALLS.get(func.value.id)
                if blocked is not None and func.attr in blocked:
                    yield self.violation(
                        ctx,
                        node,
                        f"blocking {func.value.id}.{func.attr}() inside "
                        "an async def stalls the whole listener loop",
                    )
                    return
            if func.attr in self.BLOCKING_METHODS:
                yield self.violation(
                    ctx,
                    node,
                    f"blocking .{func.attr}() inside an async def — "
                    "use the asyncio stream APIs",
                )


@register
class TypedCoreDiscipline(Rule):
    """RC07 — the strictly-typed core keeps complete annotations.

    ``mypy --strict`` guards these modules in CI, but mypy is an
    optional dev dependency; this rule keeps the biggest strict-mode
    regression class (untyped defs creeping in) catchable by
    ``make check`` alone, offline images included.
    """

    code: ClassVar[str] = "RC07"
    title: ClassVar[str] = "typed-core functions are fully annotated"
    invariant: ClassVar[str] = (
        "the engine/interval/runtime/net perimeter stays mypy-strict "
        "clean; unannotated defs are its largest regression class"
    )
    scope: ClassVar[Tuple[str, ...]] = (
        "repro/core/engine.py",
        "repro/core/interval.py",
        "repro/core/tree.py",
        "repro/core/operators.py",
        "repro/core/stats.py",
        "repro/core/problem.py",
        "repro/core/kernels.py",
        "repro/grid/runtime/*.py",
        "repro/grid/net/*.py",
        "repro/grid/service/*.py",
        # the simulator's two drivers, between the typed runtime classes
        # they drive (Coordinator, WorkerCore) and the typed protocol
        "repro/grid/simulator/farmer.py",
        "repro/grid/simulator/worker.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params: List[ast.arg] = [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
            ]
            if params and params[0].arg in ("self", "cls"):
                params = params[1:]
            if args.vararg is not None:
                params.append(args.vararg)
            if args.kwarg is not None:
                params.append(args.kwarg)
            missing = [p.arg for p in params if p.annotation is None]
            if missing:
                yield self.violation(
                    ctx,
                    node,
                    f"def {node.name}: parameter(s) "
                    f"{', '.join(missing)} lack type annotations "
                    "(typed-core module)",
                )
            if node.returns is None and node.name != "__init__":
                yield self.violation(
                    ctx,
                    node,
                    f"def {node.name}: missing return annotation "
                    "(typed-core module)",
                )


@register
class DurableCheckpointWrites(Rule):
    """RC08 — checkpoint state reaches disk only through the durable API.

    PR 6's crash-only recovery holds because every checkpoint artifact
    is either written atomically (tmpfile + fsync + ``os.replace`` in
    ``_atomic_write_json``) or appended with a per-record CRC through
    ``CheckpointJournal``.  A raw ``open(path, "w")`` on a checkpoint
    path can be torn by a ``kill -9`` mid-write, and a torn INTERVALS
    file silently drops sub-intervals — lost work the §4.1 invariant
    can never detect.
    """

    code: ClassVar[str] = "RC08"
    title: ClassVar[str] = "checkpoint writes go through the durable API"
    invariant: ClassVar[str] = (
        "INTERVALS/SOLUTION/journal/epoch files survive kill -9 "
        "mid-write (atomic replace or CRC-framed append only)"
    )
    scope: ClassVar[Tuple[str, ...]] = (
        "repro/core/*.py",
        "repro/grid/*.py",
    )
    #: The durable API's own implementation — the one place raw file
    #: writes on checkpoint paths are the point.
    allowed: ClassVar[Tuple[str, ...]] = ("repro/core/checkpoint.py",)

    #: Identifiers that mark an expression as a checkpoint artifact.
    TAINTED: ClassVar[FrozenSet[str]] = frozenset(
        {
            "checkpoint",
            "checkpoint_dir",
            "checkpoint_path",
            "intervals_path",
            "solution_path",
            "journal_path",
            "epoch_path",
            "snapshot_path",
        }
    )
    WRITE_MODES: ClassVar[FrozenSet[str]] = frozenset(
        {"w", "w+", "wb", "w+b", "wt", "a", "a+", "ab", "a+b", "at", "x", "xb"}
    )

    def _tainted(self, node: ast.AST) -> bool:
        return bool(_identifiers(node) & self.TAINTED)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if any(_match(ctx.rel, p) for p in self.allowed):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id == "open"
                and node.args
                and self._tainted(node.args[0])
                and self._write_mode(node)
            ):
                yield self.violation(
                    ctx,
                    node,
                    "raw open(..., 'w'/'a') on a checkpoint path — a "
                    "kill -9 mid-write tears the file; use "
                    "_atomic_write_json or the CheckpointJournal API",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in ("write_text", "write_bytes")
                and self._tainted(func.value)
            ):
                yield self.violation(
                    ctx,
                    node,
                    f".{func.attr}() on a checkpoint path is not "
                    "atomic — use _atomic_write_json or the "
                    "CheckpointJournal API",
                )

    def _write_mode(self, node: ast.Call) -> bool:
        mode: Optional[ast.AST] = None
        if len(node.args) > 1:
            mode = node.args[1]
        else:
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
        if mode is None:
            return False  # bare open(path) is read-only
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value in self.WRITE_MODES
        return True  # dynamic mode: assume the worst


@register
class FrontierIntExactness(Rule):
    """RC10 — frontier node numbering must stay int-exact.

    The engine's one exploration loop derives ``child_number = number
    + rank * weight`` from tree weights as large as ``50!``, and sizes
    its waves with integer arithmetic on node counts.  RC01 protects
    the number-coding modules; this rule extends the same discipline
    to the engine and the resumable wrapper, where exploration
    statistics and wall-clock floats live *beside* the exact
    arithmetic.  Any ``/``, ``float()`` or float literal touching a
    node-number identifier in these modules is a rounding bug waiting
    for a tree deeper than 2**53 — the loop folds to
    ``[stack[-1].number, end)``, so one rounded number corrupts the
    checkpoint, not just a bound.
    """

    code: ClassVar[str] = "RC10"
    title: ClassVar[str] = "frontier node numbering stays int-exact"
    invariant: ClassVar[str] = (
        "node numbers, tree weights and fold endpoints in the engine "
        "are exact bignum ints at every wave width "
        "(PAPER eq. 6-9; floats round above 2**53)"
    )
    scope: ClassVar[Tuple[str, ...]] = (
        "repro/core/engine.py",
        "repro/core/resumable.py",
    )

    #: Identifiers that hold node numbers / weights / fold endpoints.
    #: Deliberately excludes cost/bound/seconds names: those are float
    #: country, and mixing them here would drown the signal.
    TAINTED: ClassVar[FrozenSet[str]] = frozenset(
        {
            "number",
            "child_number",
            "numbers",
            "child_weight",
            "weights",
            "_weights",
            "_end",
            "new_end",
            "begin",
            "end",
            "interval",
            "remaining_interval",
            "total_leaves",
        }
    )

    def _lexical(self, node: ast.AST) -> bool:
        return bool(_identifiers(node) & self.TAINTED)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        policy = TaintPolicy(seeds=self.TAINTED)
        for scope in taint_scopes(ctx.tree, policy):
            yield from self._check_scope(ctx, scope)

    def _check_scope(
        self, ctx: FileContext, scope: ScopeTaint
    ) -> Iterator[Violation]:
        for node in scope.walk():
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div
            ):
                operands = (
                    [node.left, node.right]
                    if isinstance(node, ast.BinOp)
                    else [node.target, node.value]
                )
                if self._lexical(node) or any(
                    scope.tainted(op) for op in operands
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "true division on a node-number expression — "
                        "use // so frontier folds stay int-exact",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                if any(
                    self._lexical(arg) or scope.tainted(arg)
                    for arg in node.args
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "float() conversion of a node number loses "
                        "exactness above 2**53",
                    )
            elif isinstance(node, (ast.BinOp, ast.Compare)):
                operands = (
                    [node.left, node.right]
                    if isinstance(node, ast.BinOp)
                    else [node.left, *node.comparators]
                )
                floats = [op for op in operands if _is_float_constant(op)]
                others = [
                    op for op in operands if not _is_float_constant(op)
                ]
                if floats and any(
                    self._lexical(op) or scope.tainted(op) for op in others
                ):
                    yield self.violation(
                        ctx,
                        floats[0],
                        "float literal mixed into node-number "
                        "arithmetic",
                    )


@register
class OpaqueJobIds(Rule):
    """RC11 — job ids are opaque tokens, never numbers.

    The multi-tenant service (PR 9) identifies jobs by random hex
    strings precisely so that nothing can *mean* anything: scheduling
    order comes from the admission counter (``record.order``), fair
    share from ``(active / priority)``, and recovery from the
    directory listing.  The moment scheduler code does arithmetic on a
    job id, orders by it, or coerces it to a number, submission order
    leaks back in through the id generator and every fairness property
    silently depends on how ids happen to sort.  Equality (routing a
    message to its ledger) and hashing (dict keys) are the only
    operations a job id supports.
    """

    code: ClassVar[str] = "RC11"
    title: ClassVar[str] = "job ids are opaque"
    invariant: ClassVar[str] = (
        "scheduling never depends on how job ids sort or parse — "
        "fairness comes from the admission counter and priorities "
        "alone (PR 9 multi-tenant contract)"
    )
    scope: ClassVar[Tuple[str, ...]] = ("repro/grid/service/*.py",)

    #: Names that hold job ids in the service modules by convention.
    TAINTED: ClassVar[FrozenSet[str]] = frozenset(
        {"job", "job_id", "jobs", "job_ids"}
    )
    ORDERING_CALLS: ClassVar[FrozenSet[str]] = frozenset(
        {"sorted", "min", "max", "int", "float"}
    )

    @classmethod
    def _tainted_name(cls, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in cls.TAINTED

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and (
                self._tainted_name(node.left)
                or self._tainted_name(node.right)
            ):
                yield self.violation(
                    ctx,
                    node,
                    "arithmetic on a job id — ids are opaque tokens; "
                    "derive scheduling from record.order / priority",
                )
            elif isinstance(node, ast.Compare) and any(
                self._tainted_name(op)
                for op in [node.left, *node.comparators]
            ):
                if all(
                    isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn, ast.Is, ast.IsNot))
                    for op in node.ops
                ):
                    continue  # equality/membership is the id's one job
                yield self.violation(
                    ctx,
                    node,
                    "ordering comparison on a job id — ids are opaque; "
                    "order by record.order, not by how ids sort",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self.ORDERING_CALLS
                and node.args
                and self._tainted_name(node.args[0])
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"{node.func.id}() over job ids — ids are opaque "
                    "tokens; any order or numeric reading of them is "
                    "scheduler state leaking through the id generator",
                )


# ---------------------------------------------------------------------------
# Wire-schema snapshot gate (RC12)
# ---------------------------------------------------------------------------

#: Relative location of the golden wire-schema snapshot, both inside
#: this package and inside any checked tree that ships its own.
_SCHEMA_RELPATH = ("tools", "check", "schemas", "wire.json")


def _schema_fields(cls: ast.ClassDef) -> Dict[str, str]:
    """``{field: annotation-source}`` for one wire dataclass."""
    fields: Dict[str, str] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            fields[stmt.target.id] = ast.unparse(stmt.annotation)
    return fields


def _schema_version(
    cls: ast.ClassDef, constants: Dict[str, object]
) -> Optional[int]:
    """The resolved default of the ``version`` field, when resolvable."""
    for stmt in cls.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "version"
            and stmt.value is not None
        ):
            value = resolve_constant(stmt.value, constants)
            if not is_unresolved(value) and isinstance(value, int):
                return value
    return None


@register
class WireSchemaCompatibility(Rule):
    """RC12 — wire-schema changes must bump the message version.

    RC03 guarantees every wire dataclass *has* a ``version`` field;
    nothing guaranteed anyone ever changed it.  Adding, removing or
    retyping a field while the version stays put means an old worker
    (or a checkpoint journal written by one) decodes the new frame as
    the old shape — silent field loss across a crash/resume epoch.
    The golden schemas under ``tools/check/schemas/wire.json`` make
    the wire contract a reviewed, diffable artifact: this rule fails
    when the live dataclasses drift from the snapshot without a
    version bump, and ``repro check --update-schemas`` refreshes the
    snapshot once the bump (or the revert) is in place.
    """

    code: ClassVar[str] = "RC12"
    title: ClassVar[str] = "wire-schema changes bump the message version"
    invariant: ClassVar[str] = (
        "every _WIRE_TYPES dataclass matches its golden schema or "
        "carries a bumped version (WIRE_VERSION for framing-level "
        "messages) — old decoders must be able to refuse new shapes"
    )
    scope: ClassVar[Tuple[str, ...]] = (
        "repro/grid/runtime/protocol.py",
        "repro/grid/net/framing.py",
    )

    def __init__(self) -> None:
        self._registry: Optional[Set[str]] = None
        #: message name -> (defining rel path, classdef, fields, version)
        self._classes: Dict[
            str, Tuple[str, ast.ClassDef, Dict[str, str], Optional[int]]
        ] = {}

    # -------------------------------------------------------- phase 1
    def collect(self, ctx: FileContext) -> None:
        if _match(ctx.rel, "*framing.py"):
            registry = VersionedWireMessages._parse_registry(ctx.tree)
            if registry is not None:
                self._registry = registry
        constants = module_constants(ctx.tree)
        for cls in VersionedWireMessages._dataclasses(ctx.tree):
            self._classes[cls.name] = (
                ctx.rel,
                cls,
                _schema_fields(cls),
                _schema_version(cls, constants),
            )

    # -------------------------------------------------------- schema IO
    @staticmethod
    def locate_schema(start: Path) -> Optional[Path]:
        """Find the golden snapshot governing a checked file.

        Walks up from the file so a fixture tree can carry its own
        snapshot; falls back to the one shipped next to this module.
        """
        for parent in start.resolve().parents:
            candidate = parent.joinpath(*_SCHEMA_RELPATH)
            if candidate.exists():
                return candidate
        fallback = Path(__file__).resolve().parent / "schemas" / "wire.json"
        return fallback if fallback.exists() else None

    def snapshot(self) -> Dict[str, Any]:
        """The golden-schema document for the collected wire types."""
        registry = self._registry or set()
        messages: Dict[str, Any] = {}
        for name, (_rel, _cls, fields, version) in self._classes.items():
            if name in registry:
                messages[name] = {"version": version, "fields": fields}
        return {
            "_comment": (
                "Golden wire-message schemas enforced by repro check "
                "RC12; refresh with `repro check --update-schemas` "
                "after bumping the changed message's version."
            ),
            "messages": messages,
        }

    # -------------------------------------------------------- phase 2
    def check(self, ctx: FileContext) -> Iterator[Violation]:
        registry = self._registry
        if registry is None:
            registry = self._sibling_registry(ctx)
        if registry is None:
            return
        schema_path = self.locate_schema(ctx.path)
        local = [
            (name, cls, fields, version)
            for name, (rel, cls, fields, version) in self._classes.items()
            if rel == ctx.rel and name in registry
        ]
        if schema_path is None:
            if local:
                yield self.violation(
                    ctx,
                    local[0][1],
                    "no golden wire schema found "
                    "(tools/check/schemas/wire.json) — run "
                    "`repro check --update-schemas` to create it",
                )
            return
        try:
            golden = json.loads(schema_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            yield Violation(
                rule=self.code,
                path=ctx.rel,
                line=1,
                col=1,
                message=f"unreadable golden wire schema at {schema_path}",
            )
            return
        recorded: Dict[str, Any] = golden.get("messages", {})
        for name, cls, fields, version in sorted(local):
            yield from self._check_message(
                ctx, name, cls, fields, version, recorded.get(name)
            )
        if _match(ctx.rel, "*framing.py"):
            for name in sorted(set(recorded) - registry):
                yield Violation(
                    rule=self.code,
                    path=ctx.rel,
                    line=1,
                    col=1,
                    message=(
                        f"wire message {name} left _WIRE_TYPES but is "
                        "still in the golden schema — deployed peers "
                        "may still speak it; if the removal is "
                        "deliberate, run `repro check --update-schemas`"
                    ),
                )

    def _check_message(
        self,
        ctx: FileContext,
        name: str,
        cls: ast.ClassDef,
        fields: Dict[str, str],
        version: Optional[int],
        gold: Optional[Dict[str, Any]],
    ) -> Iterator[Violation]:
        if gold is None:
            yield self.violation(
                ctx,
                cls,
                f"new wire message {name} is not in the golden schema "
                "— run `repro check --update-schemas` to record it",
            )
            return
        gold_fields: Dict[str, str] = gold.get("fields", {})
        gold_version = gold.get("version")
        if fields != gold_fields:
            drift = self._describe_drift(fields, gold_fields)
            if version == gold_version or version is None:
                yield self.violation(
                    ctx,
                    cls,
                    f"wire schema of {name} changed ({drift}) without "
                    f"a version bump (still {gold_version!r}) — old "
                    "decoders will mis-read the new shape; bump the "
                    "message's version (WIRE_VERSION for framing-level "
                    "messages), then run `repro check --update-schemas`",
                )
            else:
                yield self.violation(
                    ctx,
                    cls,
                    f"wire schema of {name} changed ({drift}) with a "
                    f"version bump to {version} — refresh the golden "
                    "snapshot: `repro check --update-schemas`",
                )
        elif version != gold_version:
            yield self.violation(
                ctx,
                cls,
                f"version of {name} is {version!r} but the golden "
                f"schema records {gold_version!r} — stale snapshot; "
                "run `repro check --update-schemas`",
            )

    @staticmethod
    def _describe_drift(
        fields: Dict[str, str], gold_fields: Dict[str, str]
    ) -> str:
        added = sorted(set(fields) - set(gold_fields))
        removed = sorted(set(gold_fields) - set(fields))
        retyped = sorted(
            name
            for name in set(fields) & set(gold_fields)
            if fields[name] != gold_fields[name]
        )
        parts = []
        if added:
            parts.append(f"added: {', '.join(added)}")
        if removed:
            parts.append(f"removed: {', '.join(removed)}")
        if retyped:
            parts.append(f"retyped: {', '.join(retyped)}")
        return "; ".join(parts) or "reordered"

    @staticmethod
    def _sibling_registry(ctx: FileContext) -> Optional[Set[str]]:
        framing = ctx.path.resolve().parent.parent / "net" / "framing.py"
        if framing.exists():
            try:
                return VersionedWireMessages._parse_registry(
                    ast.parse(framing.read_text(encoding="utf-8"))
                )
            except (OSError, SyntaxError):
                return None
        return None


def compute_wire_schema(
    paths: Sequence[Path],
) -> Tuple[Dict[str, Any], Optional[Path]]:
    """Extract the live wire schema from the trees under ``paths``.

    Returns the snapshot document plus the golden file it should be
    written to (an existing snapshot governing the tree, else the
    checker package's own ``schemas/`` directory).
    """
    from repro.tools.check.core import iter_python_files, load_context

    rule = WireSchemaCompatibility()
    target: Optional[Path] = None
    for path in iter_python_files(list(paths)):
        ctx = load_context(path)
        if not any(_match(ctx.rel, p) for p in rule.scope):
            continue
        rule.collect(ctx)
        if target is None:
            target = rule.locate_schema(ctx.path)
    if target is None:
        target = Path(__file__).resolve().parent / "schemas" / "wire.json"
    return rule.snapshot(), target


def update_wire_schemas(paths: Sequence[Path]) -> Tuple[Path, int]:
    """The ``--update-schemas`` flow: rewrite the golden snapshot.

    Returns the file written and the number of messages recorded.
    """
    snapshot, target = compute_wire_schema(paths)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target, len(snapshot["messages"])


# ---------------------------------------------------------------------------
# Asyncio concurrency discipline (RC13)
# ---------------------------------------------------------------------------


def _lock_name(name: str) -> bool:
    parts = name.lower().split("_")
    return any(
        part in ("lock", "locks", "rlock", "mutex", "semaphore")
        for part in parts
    )


@register
class AsyncioConcurrencyDiscipline(Rule):
    """RC13 — the service/net event loop is a single-threaded world.

    Two hazards, both learned from the PR 4/PR 9 listener design
    (asyncio loop on a daemon thread, synchronous callers marshalling
    in via ``loop.call_soon_threadsafe``):

    * ``await`` while holding a *synchronous* lock parks the coroutine
      with the lock held; every other coroutine on the loop that wants
      the lock then blocks the loop thread itself — instant deadlock
      under load, invisible in single-connection tests.
    * an attribute mutated by async handlers is loop-confined by
      contract; mutating the same attribute from a synchronous method
      (which runs on the caller's thread) is a data race that Python's
      GIL hides until a dict resize or a reconnect interleaves.
      ``__init__`` is exempt (it happens-before the loop thread
      starts), as are closures handed to ``call_soon_threadsafe`` /
      ``run_coroutine_threadsafe`` (they run *on* the loop).
    """

    code: ClassVar[str] = "RC13"
    title: ClassVar[str] = "asyncio concurrency discipline"
    invariant: ClassVar[str] = (
        "no await under a held sync lock; loop-confined state is "
        "mutated only from the event-loop thread (PR 9 service "
        "threading contract)"
    )
    scope: ClassVar[Tuple[str, ...]] = (
        "repro/grid/net/*.py",
        "repro/grid/service/*.py",
    )

    _LOCK_POLICY: ClassVar[TaintPolicy] = TaintPolicy(
        seeds=frozenset(
            {"Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition"}
        ),
        seed_predicate=_lock_name,
        sanitizers=frozenset(),
    )
    _MARSHALLERS: ClassVar[FrozenSet[str]] = frozenset(
        {"call_soon_threadsafe", "run_coroutine_threadsafe"}
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        yield from self._await_under_lock(ctx)
        yield from self._loop_confinement(ctx)

    # ----------------------------------------------- await under lock
    def _await_under_lock(self, ctx: FileContext) -> Iterator[Violation]:
        for scope in taint_scopes(ctx.tree, self._LOCK_POLICY):
            if not isinstance(scope.node, ast.AsyncFunctionDef):
                continue
            for node in scope.walk():
                if isinstance(node, ast.With) and any(
                    scope.tainted(item.context_expr) for item in node.items
                ):
                    for body_stmt in node.body:
                        yield from self._awaits_in(ctx, body_stmt)

    def _awaits_in(
        self, ctx: FileContext, root: ast.AST
    ) -> Iterator[Violation]:
        stack: List[ast.AST] = [root]
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue  # a nested def does not run under the lock
            if isinstance(node, ast.Await):
                yield self.violation(
                    ctx,
                    node,
                    "await while holding a synchronous lock — the "
                    "coroutine parks with the lock held and any other "
                    "coroutine contending for it wedges the whole "
                    "event loop; release first or use asyncio.Lock "
                    "with `async with`",
                )
            stack.extend(ast.iter_child_nodes(node))

    # ----------------------------------------------- loop confinement
    def _loop_confinement(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Violation]:
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        async_methods = [
            m for m in methods if isinstance(m, ast.AsyncFunctionDef)
        ]
        if not async_methods:
            return
        loop_owned: Dict[str, str] = {}
        for method in async_methods:
            for attr, _node, _closure in self._self_mutations(method):
                loop_owned.setdefault(attr, method.name)
        sync_methods = [
            m for m in methods if isinstance(m, ast.FunctionDef)
        ]
        # Closures a sync method hands to the loop run loop-side: their
        # mutations *define* loop-owned state rather than violating it.
        scheduled: Dict[str, Set[str]] = {
            m.name: self._scheduled_closures(m) for m in sync_methods
        }
        for method in sync_methods:
            for attr, _node, closure in self._self_mutations(method):
                if closure is not None and closure in scheduled[method.name]:
                    loop_owned.setdefault(attr, f"{method.name}.{closure}")
        for method in sync_methods:
            if method.name == "__init__":
                continue  # happens-before the loop thread exists
            for attr, node, closure in self._self_mutations(method):
                if closure is not None and closure in scheduled[method.name]:
                    continue
                if attr in loop_owned:
                    yield self.violation(
                        ctx,
                        node,
                        f"self.{attr} is loop-confined (mutated by "
                        f"async {loop_owned[attr]}() on the event-loop "
                        f"thread) but sync {method.name}() mutates it "
                        "from the caller's thread — marshal the write "
                        "through loop.call_soon_threadsafe",
                    )

    def _scheduled_closures(self, func: ast.FunctionDef) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MARSHALLERS
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        names.add(arg.id)
                    elif isinstance(arg, ast.Call) and isinstance(
                        arg.func, ast.Name
                    ):
                        names.add(arg.func.id)
        return names

    def _self_mutations(
        self, func: ast.AST
    ) -> Iterator[Tuple[str, ast.AST, Optional[str]]]:
        """``(attr, node, enclosing-closure-name)`` for self.* writes."""

        def _walk(
            node: ast.AST, closure: Optional[str]
        ) -> Iterator[Tuple[str, ast.AST, Optional[str]]]:
            for child in ast.iter_child_nodes(node):
                child_closure = closure
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    child_closure = closure or child.name
                for attr in self._mutated_attrs(child):
                    yield attr, child, child_closure
                yield from _walk(child, child_closure)

        yield from _walk(func, None)

    @classmethod
    def _mutated_attrs(cls, node: ast.AST) -> Iterator[str]:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield from cls._target_attrs(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            yield from cls._target_attrs(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                yield from cls._target_attrs(target)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
        ):
            owner = node.func.value
            if (
                isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "self"
            ):
                yield owner.attr

    @staticmethod
    def _target_attrs(target: ast.AST) -> Iterator[str]:
        if isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            yield target.attr
        elif isinstance(target, ast.Subscript):
            inner = target.value
            if (
                isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "self"
            ):
                yield inner.attr
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from AsyncioConcurrencyDiscipline._target_attrs(elt)


# ---------------------------------------------------------------------------
# Checkpoint fsync coverage (RC14)
# ---------------------------------------------------------------------------


@register
class CheckpointFsyncCoverage(Rule):
    """RC14 — every checkpoint write path reaches an fsync.

    RC08 forces checkpoint writers *outside* ``core/checkpoint.py`` to
    go through the durable API; this rule audits the API itself.  A
    write (or truncate) that can return without ``os.fsync`` is only
    as durable as the page cache — a power cut after ``close()`` but
    before writeback silently unwinds the journal, and PR 6's
    crash-only recovery then replays work the epoch stamp says is
    done.  Coverage is branch-aware: the fsync must sit in the same or
    a strictly weaker branch context than the write (an fsync inside
    ``if flush:`` does not cover an unconditional write; one in a
    ``finally`` covers the whole try).
    """

    code: ClassVar[str] = "RC14"
    title: ClassVar[str] = "checkpoint writes reach fsync on every branch"
    invariant: ClassVar[str] = (
        "journal/snapshot bytes are on disk, not in the page cache, "
        "before the durable API returns (PR 6 crash-only contract)"
    )
    scope: ClassVar[Tuple[str, ...]] = ("repro/core/checkpoint.py",)

    WRITE_MODES: ClassVar[FrozenSet[str]] = frozenset(
        {"w", "w+", "wb", "w+b", "wt", "a", "a+", "ab", "a+b", "at", "x", "xb"}
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, func: ast.AST
    ) -> Iterator[Violation]:
        parents: Dict[int, ast.AST] = {}
        for node in scope_walk(func):
            for child in ast.iter_child_nodes(node):
                parents.setdefault(id(child), node)
        writes: List[Tuple[ast.AST, str]] = []
        fsyncs: List[ast.AST] = []
        for node in scope_walk(func):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Name)
                and fn.value.id == "os"
                and fn.attr == "fsync"
            ):
                fsyncs.append(node)
            elif isinstance(fn, ast.Attribute) and fn.attr in (
                "write", "truncate"
            ):
                writes.append((node, fn.attr))
            elif (
                isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Name)
                and fn.value.id == "json"
                and fn.attr == "dump"
            ):
                writes.append((node, "json.dump"))
            elif (
                isinstance(fn, ast.Name)
                and fn.id == "open"
                and self._write_mode(node)
            ):
                writes.append((node, "open-for-write"))
        if not writes:
            return
        sync_ancestry = [
            (node, self._branch_ancestry(node, func, parents, drop_finally=True))
            for node in fsyncs
        ]
        for node, kind in writes:
            write_anc = self._branch_ancestry(
                node, func, parents, drop_finally=False
            )
            enclosing_with = self._enclosing_with(node, func, parents)
            covered = False
            for sync_node, sync_anc in sync_ancestry:
                if not sync_anc <= write_anc:
                    continue
                if enclosing_with is not None and kind == "open-for-write":
                    # the handle dies with the `with`; the fsync must
                    # happen inside it, on the still-open descriptor.
                    if not self._inside(sync_node, enclosing_with, parents):
                        continue
                elif getattr(sync_node, "lineno", 0) < getattr(
                    node, "lineno", 0
                ):
                    continue
                covered = True
                break
            if not covered:
                yield self.violation(
                    ctx,
                    node,
                    f"checkpoint {kind} can return without os.fsync on "
                    "this branch — bytes sit in the page cache and a "
                    "power cut after close() silently unwinds the "
                    "journal; fsync the descriptor before returning",
                )

    def _write_mode(self, node: ast.Call) -> bool:
        mode: Optional[ast.AST] = None
        if len(node.args) > 1:
            mode = node.args[1]
        else:
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
        if mode is None:
            return False
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value in self.WRITE_MODES
        return True

    @staticmethod
    def _branch_ancestry(
        node: ast.AST,
        func: ast.AST,
        parents: Dict[int, ast.AST],
        *,
        drop_finally: bool,
    ) -> Set[Tuple[int, str]]:
        """The set of conditional arms ``node`` sits inside.

        An fsync covers a write iff its arms are a subset of the
        write's: it executes whenever the write did.  ``finally`` arms
        are dropped from fsync ancestries because a finally block runs
        on every path through its try.
        """
        arms: Set[Tuple[int, str]] = set()
        current = node
        while id(current) in parents:
            parent = parents[id(current)]
            arm: Optional[str] = None
            if isinstance(parent, ast.If):
                arm = "body" if current in parent.body else "orelse"
            elif isinstance(parent, (ast.While, ast.For, ast.AsyncFor)):
                arm = "body" if current in parent.body else "orelse"
            elif isinstance(parent, ast.Try):
                if current in parent.body:
                    arm = "body"
                elif current in parent.orelse:
                    arm = "orelse"
                elif current in parent.finalbody:
                    arm = None if drop_finally else "finally"
                else:
                    arm = "handler"
            elif isinstance(parent, ast.ExceptHandler):
                arm = "except"
            if arm is not None:
                arms.add((id(parent), arm))
            current = parent
            if current is func:
                break
        return arms

    @staticmethod
    def _enclosing_with(
        node: ast.AST, func: ast.AST, parents: Dict[int, ast.AST]
    ) -> Optional[ast.AST]:
        """The ``with`` statement whose *items* contain ``node``."""
        current = node
        while id(current) in parents:
            parent = parents[id(current)]
            if isinstance(parent, (ast.With, ast.AsyncWith)):
                for item in parent.items:
                    if any(sub is node for sub in ast.walk(item)):
                        return parent
            current = parent
            if current is func:
                break
        return None

    @staticmethod
    def _inside(
        node: ast.AST, container: ast.AST, parents: Dict[int, ast.AST]
    ) -> bool:
        current = node
        while id(current) in parents:
            current = parents[id(current)]
            if current is container:
                return True
        return False


# ---------------------------------------------------------------------------
# Handler exception safety (RC15)
# ---------------------------------------------------------------------------


@register
class HandlerExceptionSafety(Rule):
    """RC15 — message handlers may not swallow exceptions broadly.

    The coordinator's ``handle()`` and the service's ``_on_*`` methods
    are the single point where a worker's ``Push`` (an improved
    solution) or a ``Reconciled`` (interval accounting) takes effect.
    A ``except:`` / ``except Exception: pass`` around that dispatch
    turns any bug into silently dropped state: the worker got its ACK
    (or will retry into the same black hole), the coordinator recorded
    nothing, and the §4.1 covering invariant can't see the loss.  A
    broad handler is legal only when it *answers* (``return`` an error
    reply, e.g. ``JobRefused``) or re-raises; narrowing the exception
    type is always legal.
    """

    code: ClassVar[str] = "RC15"
    title: ClassVar[str] = "handlers never swallow exceptions broadly"
    invariant: ClassVar[str] = (
        "a failing Push/Reconciled/Submit is answered or re-raised, "
        "never silently dropped by a bare/over-broad except"
    )
    scope: ClassVar[Tuple[str, ...]] = (
        "repro/grid/runtime/coordinator.py",
        "repro/grid/service/server.py",
        "repro/grid/net/serve.py",
    )

    HANDLER_PREFIXES: ClassVar[Tuple[str, ...]] = (
        "handle",
        "_handle",
        "on_",
        "_on_",
    )
    BROAD: ClassVar[FrozenSet[str]] = frozenset(
        {"Exception", "BaseException"}
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and node.name.startswith(self.HANDLER_PREFIXES):
                yield from self._check_handler(ctx, node)

    def _check_handler(
        self, ctx: FileContext, func: ast.AST
    ) -> Iterator[Violation]:
        for node in scope_walk(func):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if not self._broad(handler.type):
                    continue
                if self._answers(handler):
                    continue
                yield self.violation(
                    ctx,
                    handler,
                    f"broad except in message handler "
                    f"{getattr(func, 'name', '?')}() neither replies "
                    "nor re-raises — a failing Push/Reconciled would "
                    "be silently dropped; return an error reply, "
                    "raise, or narrow the exception type",
                )

    @classmethod
    def _broad(cls, expr: Optional[ast.expr]) -> bool:
        if expr is None:
            return True
        if isinstance(expr, ast.Name):
            return expr.id in cls.BROAD
        if isinstance(expr, ast.Tuple):
            return any(cls._broad(elt) for elt in expr.elts)
        return False

    @staticmethod
    def _answers(handler: ast.ExceptHandler) -> bool:
        """True when the handler re-raises or returns (an error reply)."""
        stack: List[ast.AST] = list(handler.body)
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(node, (ast.Raise, ast.Return)):
                return True
            stack.extend(ast.iter_child_nodes(node))
        return False
