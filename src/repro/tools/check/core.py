"""Framework of the ``repro check`` static-analysis pass.

The pass is deliberately small and project-specific: it parses every
checked file once with :mod:`ast`, hands the tree to each registered
:class:`Rule` whose path scope matches, and collects
:class:`Violation` records.  Rules encode invariants this repository
learned the hard way (see ``docs/static-analysis.md``); they are not a
general-purpose linter and they lean on the repository's layout and
naming conventions on purpose.

Every rule is local to one file, so a run is a single pass: each file
is parsed, checked by every rule in scope, and dropped.

Suppressions
------------
A violation is silenced by a trailing (or immediately preceding)
comment::

    share = consumed / total  # repro-check: ignore[RC01] -- a reporting ratio, not interval state

Suppressions are **line-scoped**: a trailing comment covers exactly
its own line, a comment alone on a line covers exactly the next line.
They are found by tokenizing the file, so the marker spelled inside a
string or docstring (as above) is prose, not a suppression.  The
reason after ``--`` is **mandatory**: an ignore without one, or one
naming an unknown rule, is itself reported as an ``RC00`` violation —
and so is a suppression that no active rule consumed, so a stale
ignore cannot linger to hide a future regression.  ``RC00`` cannot be
suppressed.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "CheckError",
    "CheckResult",
    "FileContext",
    "Rule",
    "RULES",
    "Suppression",
    "Violation",
    "check_paths",
    "iter_python_files",
    "register",
]

#: Directories never descended into when a directory path is checked.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", "build", ".pytest_cache"})

# Codes must look like RC## — a malformed code is not a suppression at
# all (the underlying violation still fires), while a well-formed but
# unregistered code is reported as RC00.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-check:\s*ignore\[(?P<codes>RC[0-9]{2}(?:\s*,\s*RC[0-9]{2})*)\]"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)


@dataclass(frozen=True)
class Violation:
    """One rule violation at a precise source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class CheckError:
    """A file that could not be checked at all (unreadable / bad syntax)."""

    path: str
    message: str


@dataclass
class Suppression:
    """One ``# repro-check: ignore[...]`` comment.

    ``own_line`` records whether the comment stands alone (covering the
    next line) or trails code (covering its own line only); ``used``
    accumulates the codes a rule actually consumed, so the run can
    report suppressions that silenced nothing.
    """

    line: int
    codes: Tuple[str, ...]
    reason: Optional[str]
    own_line: bool = False
    used: Set[str] = field(default_factory=set)

    @property
    def well_formed(self) -> bool:
        return bool(self.reason) and all(code in RULES for code in self.codes)


def _scan_suppressions(source: str) -> Dict[int, Suppression]:
    """Tokenize ``source`` and collect real suppression *comments*.

    Tokenizing (rather than regex-scanning raw lines) means the marker
    quoted inside a string or docstring is never mistaken for a live
    suppression — essential now that unused suppressions are reported.
    """
    found: Dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            lineno, col = tok.start
            codes = tuple(
                code.strip().upper()
                for code in match.group("codes").split(",")
                if code.strip()
            )
            own_line = not tok.line[:col].strip()
            found[lineno] = Suppression(
                lineno, codes, match.group("reason"), own_line
            )
    except tokenize.TokenError:  # pragma: no cover - ast.parse succeeded
        pass
    return found


class FileContext:
    """Everything a rule may need about one checked file."""

    def __init__(self, path: Path, rel: str, source: str, tree: ast.Module):
        self.path = path
        #: Posix-style path used both for reporting and scope matching.
        self.rel = rel
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.suppressions: Dict[int, Suppression] = _scan_suppressions(source)

    def suppresses(self, rule: str, line: int) -> bool:
        """True when ``rule`` is ignored at ``line`` (same or previous line)."""
        for candidate in (line, line - 1):
            sup = self.suppressions.get(candidate)
            if sup is None or rule not in sup.codes:
                continue
            if candidate == line - 1 and not sup.own_line:
                continue  # a trailing comment only covers its own line
            if sup.reason:
                sup.used.add(rule)
                return True
        return False


class Rule:
    """Base class for one project-specific invariant.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scope``
    and ``strict_scope`` are fnmatch patterns matched against the end
    of the file's posix path; ``strict_scope`` only participates when
    the run passes ``--strict``.
    """

    code: ClassVar[str] = "RC??"
    title: ClassVar[str] = ""
    invariant: ClassVar[str] = ""
    scope: ClassVar[Tuple[str, ...]] = ()
    strict_scope: ClassVar[Tuple[str, ...]] = ()

    def applies_to(self, ctx: FileContext, strict: bool) -> bool:
        patterns = self.scope + (self.strict_scope if strict else ())
        return any(_match(ctx.rel, pattern) for pattern in patterns)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.code,
            path=ctx.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def _match(rel: str, pattern: str) -> bool:
    """Match ``pattern`` against the path or any suffix of it.

    Patterns are written repository-relative (``repro/core/tree.py``,
    ``benchmarks/*.py``); checked files may carry absolute or
    tmpdir-prefixed paths, so a pattern also matches when prefixed by
    any directories.
    """
    return fnmatch.fnmatch(rel, pattern) or fnmatch.fnmatch(rel, "*/" + pattern)


#: Registry of every rule, keyed by code, in code order.
RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


@dataclass
class CheckResult:
    """Outcome of one :func:`check_paths` run."""

    violations: List[Violation] = field(default_factory=list)
    errors: List[CheckError] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations and not self.errors

    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.violations else 0


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files and directories into the sorted set of .py files."""
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(
                p
                for p in path.rglob("*.py")
                if not any(part in _SKIP_DIRS for part in p.parts)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def _relativize(path: Path) -> str:
    """Best-effort repository-relative posix path for reporting."""
    resolved = path.resolve()
    for parent in resolved.parents:
        if (parent / "pyproject.toml").exists() or (parent / ".git").exists():
            return resolved.relative_to(parent).as_posix()
    return path.as_posix()


def load_context(path: Path) -> FileContext:
    """Parse one file into a :class:`FileContext` (raises on bad syntax)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return FileContext(path, _relativize(path), source, tree)


def _suppression_violations(ctx: FileContext) -> Iterator[Violation]:
    """RC00: malformed suppression comments (missing reason, bad code)."""
    for sup in ctx.suppressions.values():
        if not sup.reason:
            yield Violation(
                rule="RC00",
                path=ctx.rel,
                line=sup.line,
                col=1,
                message=(
                    "suppression without a reason: write "
                    "'# repro-check: ignore[RULE] -- why this is safe'"
                ),
            )
        for code in sup.codes:
            if code not in RULES:
                yield Violation(
                    rule="RC00",
                    path=ctx.rel,
                    line=sup.line,
                    col=1,
                    message=f"suppression names unknown rule {code!r}",
                )


def _unused_suppression_violations(
    ctx: FileContext, active: Sequence[Rule], strict: bool
) -> Iterator[Violation]:
    """RC00: well-formed suppressions that silenced nothing this run.

    Only codes whose rule both ran and applied to this file count —
    under ``--select`` (or outside a rule's scope) a suppression is
    not provably stale, so it is left alone.
    """
    applicable = {
        rule.code for rule in active if rule.applies_to(ctx, strict)
    }
    for sup in ctx.suppressions.values():
        if not sup.well_formed:
            continue  # already an RC00 above
        for code in sup.codes:
            if code in applicable and code not in sup.used:
                yield Violation(
                    rule="RC00",
                    path=ctx.rel,
                    line=sup.line,
                    col=1,
                    message=(
                        f"unused suppression: no {code} violation on "
                        "the covered line — delete the ignore (stale "
                        "ignores hide future regressions)"
                    ),
                )


def check_paths(
    paths: Sequence[Path],
    *,
    strict: bool = False,
    select: Optional[Sequence[str]] = None,
) -> CheckResult:
    """Run every (selected) rule over every Python file under ``paths``."""
    # Import for the side effect of populating RULES; late so that the
    # registry is complete even when callers import core directly.
    from repro.tools.check import rules as _rules  # noqa: F401

    wanted = None if select is None else {code.upper() for code in select}
    active = [
        cls()
        for code, cls in sorted(RULES.items())
        if wanted is None or code in wanted
    ]
    if wanted is not None:
        unknown = wanted - set(RULES)
        if unknown:
            raise ValueError(f"unknown rule code(s): {sorted(unknown)}")

    result = CheckResult()
    for path in iter_python_files(list(paths)):
        try:
            ctx = load_context(path)
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            result.errors.append(CheckError(_relativize(path), str(exc)))
            continue
        result.files_checked += 1
        result.violations.extend(_suppression_violations(ctx))
        for rule in active:
            if not rule.applies_to(ctx, strict):
                continue
            for violation in rule.check(ctx):
                if not ctx.suppresses(violation.rule, violation.line):
                    result.violations.append(violation)
        result.violations.extend(
            _unused_suppression_violations(ctx, active, strict)
        )

    result.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return result
