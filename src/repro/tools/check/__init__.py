"""``repro check`` — AST-based enforcement of the runtime's invariants.

The checker is a small single-pass rule engine
(:mod:`repro.tools.check.core`) with an intraprocedural dataflow layer
(:mod:`repro.tools.check.dataflow`: symbol tables and a taint lattice)
plus the project-specific rules (:mod:`repro.tools.check.rules`) that
pin invariants earlier PRs of this repository learned the hard way:
int-exact interval arithmetic, simulator determinism, non-blocking
asyncio bodies, the strictly-typed core perimeter, durable and fsynced
checkpoint writes, opaque job ids, the async service client's
threading contract and handler exception safety.  ``docs/static-analysis.md``
documents every rule with the bug that motivated it.  The wire
contract (one ``WIRE_VERSION``, golden schemas) is a test on the live
codec, ``tests/test_net_framing.py``.
"""

from repro.tools.check.core import (
    CheckError,
    CheckResult,
    FileContext,
    RULES,
    Rule,
    Suppression,
    Violation,
    check_paths,
)
from repro.tools.check.dataflow import (
    ScopeTaint,
    SymbolTable,
    TaintPolicy,
    taint_scopes,
)

# Importing the rules module registers every rule in RULES.
from repro.tools.check import rules as _rules  # noqa: F401

__all__ = [
    "CheckError",
    "CheckResult",
    "FileContext",
    "RULES",
    "Rule",
    "ScopeTaint",
    "Suppression",
    "SymbolTable",
    "TaintPolicy",
    "Violation",
    "check_paths",
    "taint_scopes",
]
