"""Intraprocedural dataflow for ``repro check``.

PR 5's rules matched *identifier names* inside a single expression:
``interval / 2`` was caught, but ``b = interval[0]; b / 2`` was not,
because ``b`` carries no interval-ish name.  This module closes that
gap with a small, honest dataflow layer:

* a per-scope **symbol table** (:class:`SymbolTable`) of definition
  sites;
* a two-point **taint lattice** (``CLEAN < TAINTED``, join = or) run
  to a fixpoint over each function, so taint introduced by a seeded
  identifier survives assignments, tuple unpacking, ``for`` targets,
  calls and returns *within* that function;
* a :class:`TaintPolicy` describing what seeds taint (a name set or
  predicate) and which calls sanitize it (``len``, ``str``, ``bool``,
  ... — calls whose result is no longer the guarded value).

The analysis is deliberately intraprocedural and flow-insensitive
inside a scope ("is this name *ever* bound to a tainted value here"),
which is the right trade for a zero-tolerated-violations gate: it
never forgets a taint across a join point, and the suppression
machinery absorbs the rare deliberate exception.  Nested functions are
their own scopes and inherit the enclosing function's final taint set
(closure reads see the outer binding).

Scopes and walking
------------------
:func:`taint_scopes` returns one :class:`ScopeTaint` per module /
function / lambda; ``scope.walk()`` yields exactly the nodes owned by
that scope (it does not descend into nested function bodies, which
belong to their own scope), so a rule can pair every expression with
the taint environment that governs it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set

__all__ = [
    "DEFAULT_SANITIZERS",
    "DefSite",
    "MUTATING_METHODS",
    "ScopeTaint",
    "SymbolTable",
    "TaintPolicy",
    "scope_walk",
    "taint_scopes",
]

#: Calls whose result is never the guarded value itself: sizes, flags,
#: strings, types.  ``range`` is included because loop indices are
#: ranks, not interval values (``number + rank * weight`` stays caught
#: through ``weight``).
DEFAULT_SANITIZERS: FrozenSet[str] = frozenset(
    {"bool", "bytes", "format", "hash", "id", "isinstance", "issubclass",
     "len", "range", "repr", "str", "type"}
)

#: Method names that mutate their receiver in place (used by callers
#: such as RC13 to treat ``self._writers.add(...)`` as a write).
MUTATING_METHODS: FrozenSet[str] = frozenset(
    {"add", "append", "appendleft", "clear", "discard", "extend",
     "insert", "pop", "popleft", "remove", "setdefault", "update"}
)

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@dataclass(frozen=True)
class TaintPolicy:
    """What introduces taint and what washes it off.

    ``seeds`` are identifier names (Name ids and Attribute attrs) that
    are tainted wherever they appear; ``seed_predicate`` extends that
    to computed membership (e.g. "any name containing 'lock'").
    """

    seeds: FrozenSet[str] = frozenset()
    seed_predicate: Optional[Callable[[str], bool]] = None
    sanitizers: FrozenSet[str] = DEFAULT_SANITIZERS

    def is_seed(self, name: str) -> bool:
        if name in self.seeds:
            return True
        return self.seed_predicate is not None and self.seed_predicate(name)


@dataclass(frozen=True)
class DefSite:
    """One binding of ``name`` within a scope."""

    name: str
    node: ast.AST
    #: The bound expression when one exists (None for e.g. ``except``
    #: targets and parameters).
    value: Optional[ast.expr]
    #: assign | aug | for | with | walrus | arg | comprehension
    kind: str


class SymbolTable:
    """Definition sites of every local name in one scope."""

    def __init__(self, scope: ast.AST):
        self.scope = scope
        self.defs: Dict[str, List[DefSite]] = {}
        self._build()

    def _add(self, site: DefSite) -> None:
        self.defs.setdefault(site.name, []).append(site)

    def _bind_target(
        self, target: ast.expr, value: Optional[ast.expr], kind: str
    ) -> None:
        if isinstance(target, ast.Name):
            self._add(DefSite(target.id, target, value, kind))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, value, kind)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, value, kind)
        # Attribute / Subscript targets mutate an object, not a local
        # name — expression taint reaches them via the seeds instead.

    def _build(self) -> None:
        scope = self.scope
        if isinstance(scope, _SCOPE_NODES):
            args = scope.args
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ):
                self._add(DefSite(arg.arg, arg, None, "arg"))
        for node in scope_walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._bind_target(target, node.value, "assign")
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind_target(node.target, node.value, "assign")
            elif isinstance(node, ast.AugAssign):
                self._bind_target(node.target, node.value, "aug")
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._bind_target(node.target, node.iter, "for")
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        self._bind_target(
                            item.optional_vars, item.context_expr, "with"
                        )
            elif isinstance(node, ast.NamedExpr):
                self._bind_target(node.target, node.value, "walrus")
            elif isinstance(node, ast.comprehension):
                self._bind_target(node.target, node.iter, "comprehension")


def scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Descendants of ``scope`` that belong to its scope.

    Does not descend into nested function/lambda/class bodies (their
    nodes belong to the nested scope), but does yield the nested def
    node itself plus its decorators, default expressions and base
    classes, which evaluate in the enclosing scope.
    """
    stack: List[ast.AST] = list(_scope_children(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (*_SCOPE_NODES, ast.ClassDef)):
            stack.extend(_header_children(node))
        else:
            stack.extend(ast.iter_child_nodes(node))


def _scope_children(scope: ast.AST) -> List[ast.AST]:
    if isinstance(scope, ast.Lambda):
        return [scope.body]
    if isinstance(
        scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module, ast.ClassDef)
    ):
        return list(scope.body)
    return list(ast.iter_child_nodes(scope))


def _header_children(node: ast.AST) -> List[ast.AST]:
    """The parts of a nested def/class evaluated in the *enclosing* scope."""
    if isinstance(node, ast.Lambda):
        return []
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *(kw.value for kw in node.keywords)]
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    out: List[ast.AST] = list(node.decorator_list)
    out.extend(node.args.defaults)
    out.extend(d for d in node.args.kw_defaults if d is not None)
    return out


class ScopeTaint:
    """The fixpoint taint environment of one scope.

    ``names`` is the set of local names ever bound to a tainted value;
    :meth:`tainted` evaluates an arbitrary expression against it.
    """

    def __init__(
        self,
        node: ast.AST,
        policy: TaintPolicy,
        inherited: FrozenSet[str] = frozenset(),
    ):
        self.node = node
        self.policy = policy
        self.symbols = SymbolTable(node)
        self.names = self._fixpoint(inherited)

    # ------------------------------------------------------------------
    def walk(self) -> Iterator[ast.AST]:
        return scope_walk(self.node)

    def tainted(self, expr: ast.AST) -> bool:
        """Is ``expr``'s value (possibly) derived from a seed?"""
        return self._eval(expr, self.names)

    # ------------------------------------------------------------------
    def _fixpoint(self, inherited: FrozenSet[str]) -> FrozenSet[str]:
        tainted: Set[str] = set(inherited)
        # Two-point lattice, join = union; iterate until no binding
        # adds a new tainted name (loops feed assignments backwards).
        changed = True
        while changed:
            changed = False
            for name, sites in self.symbols.defs.items():
                if name in tainted:
                    continue
                for site in sites:
                    if site.value is None:
                        # Parameters: tainted only by their own name
                        # (the seeds catch `def f(interval): ...`).
                        continue
                    value_tainted = self._eval(site.value, frozenset(tainted))
                    if site.kind in ("for", "comprehension"):
                        value_tainted = self._iter_taint(
                            site.value, frozenset(tainted)
                        )
                    elif site.kind == "with":
                        # `with open(p) as fh` — the manager, not the
                        # guarded value; only seeds taint it.
                        value_tainted = self._eval(
                            site.value, frozenset(tainted)
                        )
                    if value_tainted:
                        tainted.add(name)
                        changed = True
                        break
        return frozenset(tainted)

    def _iter_taint(self, iterable: ast.expr, env: FrozenSet[str]) -> bool:
        """Taint of one element drawn from ``iterable``.

        ``enumerate(xs)`` yields ``(rank, x)`` — the rank is clean, but
        distinguishing tuple slots through a for-target is beyond this
        lattice, so the element inherits the iterable's taint.
        """
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "enumerate"
            and iterable.args
        ):
            return self._eval(iterable.args[0], env)
        return self._eval(iterable, env)

    # ------------------------------------------------------------------
    def _eval(self, expr: ast.AST, env: FrozenSet[str]) -> bool:
        """Expression-level taint under environment ``env``."""
        policy = self.policy
        if isinstance(expr, ast.Name):
            return expr.id in env or policy.is_seed(expr.id)
        if isinstance(expr, ast.Attribute):
            return policy.is_seed(expr.attr) or self._eval(expr.value, env)
        if isinstance(expr, ast.Subscript):
            return self._eval(expr.value, env)
        if isinstance(expr, ast.BinOp):
            return self._eval(expr.left, env) or self._eval(expr.right, env)
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand, env)
        if isinstance(expr, (ast.BoolOp, ast.Compare)):
            return False  # booleans are not interval values
        if isinstance(expr, ast.IfExp):
            return self._eval(expr.body, env) or self._eval(expr.orelse, env)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return any(self._eval(elt, env) for elt in expr.elts)
        if isinstance(expr, ast.Dict):
            return any(
                self._eval(v, env) for v in expr.values if v is not None
            )
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, env)
        if isinstance(expr, ast.NamedExpr):
            return self._eval(expr.value, env)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value, env)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return any(
                self._iter_taint(gen.iter, env) for gen in expr.generators
            )
        if isinstance(expr, ast.DictComp):
            return any(
                self._iter_taint(gen.iter, env) for gen in expr.generators
            )
        if isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name is not None and name in policy.sanitizers:
                return False
            if isinstance(expr.func, ast.Attribute) and self._eval(
                expr.func.value, env
            ):
                return True  # interval.split(...) returns interval stuff
            if name is not None and policy.is_seed(name):
                return True
            return any(self._eval(a, env) for a in expr.args) or any(
                self._eval(kw.value, env) for kw in expr.keywords
            )
        if isinstance(expr, (ast.Constant, ast.Lambda, ast.JoinedStr)):
            return False
        # Unknown shapes: conservative — any seed mention taints.
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and (
                sub.id in env or policy.is_seed(sub.id)
            ):
                return True
            if isinstance(sub, ast.Attribute) and policy.is_seed(sub.attr):
                return True
        return False


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def taint_scopes(
    tree: ast.Module, policy: TaintPolicy
) -> List[ScopeTaint]:
    """One :class:`ScopeTaint` per scope in ``tree``, outermost first.

    Nested functions inherit the enclosing function's final taint set.
    Class bodies are their own scope: they read the enclosing names,
    but what they bind does not leak into methods — a method skips the
    class scope and inherits straight from the class's enclosing scope,
    exactly as Python name resolution does.
    """
    scopes: List[ScopeTaint] = []

    def _visit(node: ast.AST, inherited: FrozenSet[str]) -> None:
        scope = ScopeTaint(node, policy, inherited)
        scopes.append(scope)
        nested_inherited = (
            inherited if isinstance(node, ast.ClassDef) else scope.names
        )
        for sub in scope.walk():
            if isinstance(sub, ast.ClassDef):
                _visit(sub, scope.names)
            elif isinstance(sub, _SCOPE_NODES):
                _visit(sub, nested_inherited)

    _visit(tree, frozenset())
    return scopes
