"""The dataflow layer under ``repro check``: symbols and taint.

The checker's rules are only as good as the analysis they stand on, so
the layer is tested on its own terms here: symbol tables record every
binding form, ``scope_walk`` respects scope boundaries, and the taint
fixpoint follows values through assignments / loops / calls.  A
hypothesis suite then pins the upgrade contract: the dataflow-powered
RC01 flags a *superset* of what PR 5's identifier heuristic flagged,
on every program the strategy can generate.
"""

import ast
import textwrap
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tools.check.core import FileContext
from repro.tools.check.dataflow import (
    DEFAULT_SANITIZERS,
    ScopeTaint,
    SymbolTable,
    TaintPolicy,
    scope_walk,
    taint_scopes,
)
from repro.tools.check.rules import IntExactIntervals


def parse(source):
    return ast.parse(textwrap.dedent(source))


def scope_for(tree, name, policy):
    """The ScopeTaint of the function called ``name`` (or the module)."""
    for scope in taint_scopes(tree, policy):
        if name is None and isinstance(scope.node, ast.Module):
            return scope
        if getattr(scope.node, "name", None) == name:
            return scope
    raise AssertionError(f"no scope named {name!r}")


INTERVAL_POLICY = TaintPolicy(seeds=frozenset({"interval", "begin", "end"}))


# ----------------------------------------------------------------------
# SymbolTable


def test_symbol_table_records_every_binding_form():
    tree = parse(
        """\
        def f(a, *rest, flag=None, **extra):
            b = a + 1
            b += 1
            for item in rest:
                pass
            with open(a) as fh:
                pass
            if (c := a):
                pass
            squares = [n * n for n in rest]
        """
    )
    table = SymbolTable(tree.body[0])
    kinds = {name: {site.kind for site in sites} for name, sites in table.defs.items()}
    assert kinds["a"] == {"arg"}
    assert kinds["rest"] == {"arg"}
    assert kinds["flag"] == {"arg"}
    assert kinds["extra"] == {"arg"}
    assert kinds["b"] == {"assign", "aug"}
    assert kinds["item"] == {"for"}
    assert kinds["fh"] == {"with"}
    assert kinds["c"] == {"walrus"}
    assert kinds["n"] == {"comprehension"}


def test_symbol_table_tuple_unpacking_binds_each_name():
    tree = parse("def f(pair):\n    left, right = pair\n")
    table = SymbolTable(tree.body[0])
    assert set(table.defs) == {"pair", "left", "right"}
    assert table.defs["left"][0].value is table.defs["right"][0].value


# ----------------------------------------------------------------------
# scope_walk


def test_scope_walk_does_not_enter_nested_function_bodies():
    tree = parse(
        """\
        def outer():
            a = 1

            def inner():
                hidden = 2

            return a
        """
    )
    names = {
        node.id
        for node in scope_walk(tree.body[0])
        if isinstance(node, ast.Name)
    }
    assert "a" in names
    assert "hidden" not in names


def test_scope_walk_yields_nested_def_headers_in_the_outer_scope():
    tree = parse(
        """\
        def outer(deco, outer_default):
            @deco
            def inner(x=outer_default):
                body_name = x
        """
    )
    outer_names = {
        node.id
        for node in scope_walk(tree.body[0])
        if isinstance(node, ast.Name)
    }
    # Decorators and defaults evaluate when `def inner` executes, i.e.
    # in outer's scope; inner's body does not.
    assert {"deco", "outer_default"} <= outer_names
    assert "body_name" not in outer_names


def test_scope_walk_yields_each_node_once():
    tree = parse(
        """\
        def outer():
            @staticmethod
            def inner(x=1):
                return x
            return inner
        """
    )
    # Only positioned nodes: expression-context objects (Load/Store)
    # are interned singletons in CPython and legitimately recur.
    seen = [n for n in scope_walk(tree.body[0]) if hasattr(n, "lineno")]
    assert len(seen) == len({id(node) for node in seen})


def test_scope_walk_treats_class_bodies_as_their_own_scope():
    tree = parse(
        """\
        @register
        class C(Base):
            attr = marker
        """
    )
    module_names = {
        node.id for node in scope_walk(tree) if isinstance(node, ast.Name)
    }
    # The class *header* (decorators, bases) evaluates in the module;
    # the body belongs to the class scope.
    assert {"register", "Base"} <= module_names
    assert "marker" not in module_names
    class_names = {
        node.id
        for node in scope_walk(tree.body[0])
        if isinstance(node, ast.Name)
    }
    assert "marker" in class_names


# ----------------------------------------------------------------------
# Taint fixpoint


def test_taint_survives_assignment_chains():
    tree = parse(
        """\
        def f(interval):
            a = interval[0]
            b = a + 1
            c = b
            clean = 7
        """
    )
    scope = scope_for(tree, "f", INTERVAL_POLICY)
    assert {"a", "b", "c"} <= scope.names
    assert "clean" not in scope.names


def test_taint_flows_backwards_through_loops_to_a_fixpoint():
    # `total` is only tainted via an assignment that *precedes* the
    # tainted binding textually; the fixpoint still finds it.
    tree = parse(
        """\
        def f(items):
            total = acc
            for acc in items:
                acc = begin + acc
        """
    )
    scope = scope_for(tree, "f", INTERVAL_POLICY)
    assert "acc" in scope.names
    assert "total" in scope.names


def test_sanitizers_stop_taint():
    tree = parse(
        """\
        def f(interval):
            size = len(interval)
            label = str(interval)
            ranks = range(len(interval))
            derived = interval.split(2)
        """
    )
    scope = scope_for(tree, "f", INTERVAL_POLICY)
    assert {"size", "label", "ranks"}.isdisjoint(scope.names)
    # A method *on* a tainted receiver returns tainted data.
    assert "derived" in scope.names


def test_enumerate_taints_elements_not_ranks():
    tree = parse(
        """\
        def f(intervals):
            for pair in enumerate(intervals):
                pass
            for plain in enumerate(range(10)):
                pass
        """
    )
    policy = TaintPolicy(seeds=frozenset({"intervals"}))
    scope = scope_for(tree, "f", policy)
    assert "pair" in scope.names
    assert "plain" not in scope.names


def test_nested_function_inherits_enclosing_taint():
    tree = parse(
        """\
        def outer(interval):
            span = interval[1] - interval[0]

            def inner():
                return span

            return inner
        """
    )
    inner = scope_for(tree, "inner", INTERVAL_POLICY)
    assert inner.tainted(ast.parse("span", mode="eval").body)


def test_class_body_names_do_not_leak_into_methods():
    tree = parse(
        """\
        class C:
            shadow = interval

            def method(self):
                return shadow
        """
    )
    method = scope_for(tree, "method", INTERVAL_POLICY)
    # `shadow` in the method is a (broken) global lookup, not the class
    # attribute; the class body must not taint it.
    assert not method.tainted(ast.parse("shadow", mode="eval").body)


def test_tainted_evaluates_compound_expressions():
    tree = parse("def f(begin, cost):\n    pass\n")
    scope = scope_for(tree, "f", INTERVAL_POLICY)

    def expr(text):
        return ast.parse(text, mode="eval").body

    assert scope.tainted(expr("begin + 1"))
    assert scope.tainted(expr("-begin"))
    assert scope.tainted(expr("obj.interval"))
    assert scope.tainted(expr("(cost, begin)"))
    assert not scope.tainted(expr("cost * 2"))
    assert not scope.tainted(expr("begin < cost"))  # booleans are clean
    assert not scope.tainted(expr("len(begin)"))


def test_seed_predicate_extends_the_seed_set():
    policy = TaintPolicy(
        seed_predicate=lambda name: "lock" in name.split("_"),
        sanitizers=frozenset(),
    )
    tree = parse(
        """\
        def f(registry):
            guard = registry.state_lock
            clock = 12
        """
    )
    scope = scope_for(tree, "f", policy)
    assert "guard" in scope.names
    assert "clock" not in scope.names  # 'clock' is not '*_lock'


# ----------------------------------------------------------------------
# The RC01 dataflow upgrade, exactly as the rule consumes it


def rc01_lines(rel, source):
    tree = ast.parse(textwrap.dedent(source))
    ctx = FileContext(Path(rel), rel, textwrap.dedent(source), tree)
    return sorted(v.line for v in IntExactIntervals().check(ctx))


def test_rc01_catches_division_through_a_clean_named_alias():
    # The motivating gap: no interval-ish identifier appears in the
    # flagged expression itself.
    assert rc01_lines(
        "repro/grid/runtime/balance.py",
        """\
        def halve(interval):
            b = interval[0]
            return b / 2
        """,
    ) == [3]


def test_rc01_alias_chain_and_augmented_division():
    assert rc01_lines(
        "repro/grid/runtime/balance.py",
        """\
        def shrink(begin):
            a = begin
            b = a
            b /= 3
            return b
        """,
    ) == [4]


def test_rc01_sanitized_alias_stays_clean():
    assert rc01_lines(
        "repro/grid/runtime/balance.py",
        """\
        def density(interval, elapsed):
            size = len(interval)
            return size / elapsed
        """,
    ) == []


def test_rc01_float_cast_of_tainted_alias():
    assert rc01_lines(
        "repro/grid/runtime/balance.py",
        """\
        def approx(interval):
            span = interval.end - interval.begin
            return float(span)
        """,
    ) == [3]


def test_rc01_float_literal_mixed_with_tainted_alias():
    assert rc01_lines(
        "repro/grid/runtime/balance.py",
        """\
        def overloaded(interval):
            w = interval.end
            return w > 0.5
        """,
    ) == [3]


# ----------------------------------------------------------------------
# Hypothesis: the dataflow rule is a superset of the lexical rule


def _identifiers(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _is_float_constant(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def lexical_rc01_lines(rel, source):
    """PR 5's identifier-name heuristic, vendored as the reference.

    This is the *old* RC01, reimplemented independently of the live
    rule (which no longer keeps it as a floor) so the superset property
    is tested against a fixed point of reference.
    """
    tainted = IntExactIntervals.TAINTED
    exact = any(
        rel.endswith(suffix.replace("repro/", ""))
        for suffix in IntExactIntervals.exact_scope
    ) or rel in IntExactIntervals.exact_scope
    lines = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            if exact or _identifiers(node) & tainted:
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            if exact or any(_identifiers(a) & tainted for a in node.args):
                lines.append(node.lineno)
        elif exact and _is_float_constant(node):
            lines.append(node.lineno)
        elif not exact and isinstance(node, (ast.BinOp, ast.Compare)):
            operands = (
                [node.left, node.right]
                if isinstance(node, ast.BinOp)
                else [node.left, *node.comparators]
            )
            floats = [op for op in operands if _is_float_constant(op)]
            others = [op for op in operands if not _is_float_constant(op)]
            if floats and any(_identifiers(op) & tainted for op in others):
                lines.append(floats[0].lineno)
    return sorted(lines)


_NAMES = st.sampled_from(
    [
        "interval", "begin", "end", "weight", "leaves", "number", "cost",
        "elapsed", "x", "acc",
    ]
)
_RELS = st.sampled_from(
    [
        "repro/core/tree.py",
        "repro/core/interval.py",
        "repro/core/engine.py",
        "repro/grid/runtime/balance.py",
        "repro/grid/simulator/metrics.py",
    ]
)
_STMTS = st.sampled_from(
    [
        "{a} = {b} + {c}",
        "{a} = {b}[0]",
        "{a} = len({b})",
        "{a} = {b} / 2",
        "{a} = float({b})",
        "{a} /= {b}",
        "{a} = {b} > 0.5",
        "{a} = obj.{b} - {c}",
        "for {a} in {b}:\n    {c} = {a}",
    ]
)


@st.composite
def programs(draw):
    body = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        template = draw(_STMTS)
        body.append(
            template.format(a=draw(_NAMES), b=draw(_NAMES), c=draw(_NAMES))
        )
    params = ", ".join(sorted({draw(_NAMES), draw(_NAMES)}))
    lines = "\n".join(body)
    return f"def f({params}):\n" + textwrap.indent(lines, "    ")


@settings(max_examples=120, deadline=None)
@given(rel=_RELS, source=programs())
def test_dataflow_rc01_flags_a_superset_of_the_lexical_rule(rel, source):
    old = lexical_rc01_lines(rel, source)
    new = rc01_lines(rel, source)
    assert set(old) <= set(new), (
        f"dataflow RC01 lost a lexical finding in:\n{source}\n"
        f"old={old} new={new}"
    )
