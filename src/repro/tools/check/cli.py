"""Command-line entry point of the static-analysis pass.

Reached three ways, all equivalent:

* ``repro check [PATHS...]`` — subcommand of the main CLI;
* ``python -m repro.tools.check`` — no install needed;
* ``make check`` — the default paths, as CI runs it.

Exit codes: 0 clean, 1 violations found, 2 a file could not be
checked at all (unreadable or syntax error) or bad usage.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.tools.check.core import RULES, check_paths
from repro.tools.check.reporting import (
    render_json,
    render_rule_list,
    render_sarif,
    render_text,
)

__all__ = ["add_check_arguments", "main", "run_check"]

#: What ``repro check`` (and ``make check``) scans with no arguments.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``check`` options on ``parser`` (shared with repro CLI)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to check (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="extend determinism rules to benchmarks/ and examples/",
    )
    parser.add_argument(
        "--output",
        "--format",
        dest="format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default: text); sarif feeds GitHub "
        "code-scanning so violations annotate PR diffs",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RC01,RC03",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe the registered rules and exit",
    )
    parser.add_argument(
        "--update-schemas",
        action="store_true",
        help="rewrite the golden wire schemas (RC12) from the live "
        "wire dataclasses and exit",
    )


def run_check(args: argparse.Namespace) -> int:
    """Execute a parsed ``check`` invocation; returns the exit code."""
    # Importing rules populates the registry before --list-rules reads it.
    from repro.tools.check import rules as _rules  # noqa: F401

    select = (
        [code.strip() for code in args.select.split(",") if code.strip()]
        if args.select
        else None
    )
    if args.list_rules:
        print(render_rule_list([cls() for cls in RULES.values()], select))
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"repro-check: no such path(s): {', '.join(missing)}")
        return 2
    if getattr(args, "update_schemas", False):
        from repro.tools.check.rules import update_wire_schemas

        target, count = update_wire_schemas([Path(p) for p in args.paths])
        print(
            f"repro-check: wrote golden schemas for {count} wire "
            f"message(s) to {target}"
        )
        return 0
    try:
        result = check_paths(
            [Path(p) for p in args.paths], strict=args.strict, select=select
        )
    except ValueError as exc:  # unknown --select code
        print(f"repro-check: {exc}")
        return 2
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result, [cls() for cls in RULES.values()]))
    else:
        print(render_text(result))
    return result.exit_code()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="project-specific static analysis for this repository",
    )
    add_check_arguments(parser)
    return run_check(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
