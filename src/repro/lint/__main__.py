"""Command-line driver: ``python -m repro.lint [paths...]``.

Exit codes: 0 — clean; 1 — findings (or unparsable files); 2 — usage error.
CI runs ``python -m repro.lint src/`` and gates on a clean exit; see
``docs/static-analysis.md``.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.lint.framework import all_rules, lint_paths, select_rules
from repro.lint.reporters import render_json, render_text

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism & simulation-invariant static analysis.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply mechanical fixes in place (event-slots)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help="run only these rules (id or name; repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULE",
        help="skip these rules (id or name; repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.lint``; returns the exit code."""
    args = _parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scope) if rule.scope else "all code"
            fix = " (fixable)" if rule.fixable else ""
            print(f"{rule.id} {rule.name}{fix} [{scope}]")
            print(f"    {rule.rationale}")
        return 0

    try:
        rules = select_rules(args.select, args.ignore)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}")
        return 2

    report = lint_paths(paths, rules=rules, fix=args.fix)
    print(render_json(report) if args.format == "json" else render_text(report))
    return 1 if (report.findings or report.errors) else 0


if __name__ == "__main__":
    raise SystemExit(main())
