"""reprolint command line: one code path for CI, hooks, and local runs.

``python -m tools.reprolint src benchmarks`` and the ``reprolint``
console script (``setup.py`` entry point) both land here.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from tools.reprolint.rules import (
    ALL_RULES,
    RULE_CHECKERS,
    iter_python_files,
    lint_file,
)

#: Default lint targets when the CLI is run with no path arguments.
DEFAULT_PATHS = ("src", "benchmarks")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Repo-specific invariant lint: deterministic accumulation "
            "(REP001), pickle-safe lock owners (REP002), guarded-by "
            "discipline (REP003), no module-global mutable state "
            "(REP004), seeded benchmarks (REP005), deliberate fault "
            "barriers (REP006), atomic durable writes (REP007), one "
            "row-dedup path (REP008).  See "
            "docs/static-analysis.md."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {DEFAULT_PATHS})",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule subset to run (e.g. REP001,REP004)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line (findings still print)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Lint the given paths; exit 1 iff any finding survives suppression."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for code in ALL_RULES:
            doc = (RULE_CHECKERS[code].__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{code}  {summary}")
        return 0
    rules = None
    if args.select:
        rules = frozenset(
            code.strip().upper()
            for code in args.select.split(",")
            if code.strip()
        )
        unknown = rules - set(ALL_RULES)
        if unknown:
            print(
                f"reprolint: unknown rule(s) {sorted(unknown)}; "
                f"available: {', '.join(ALL_RULES)}",
                file=sys.stderr,
            )
            return 2
    n_files = 0
    findings = []
    try:
        for path in iter_python_files(args.paths):
            n_files += 1
            findings.extend(lint_file(path, rules=rules))
    except FileNotFoundError as error:
        print(f"reprolint: {error}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    if not args.quiet:
        if findings:
            print(
                f"reprolint: {len(findings)} finding(s) across "
                f"{n_files} file(s)",
                file=sys.stderr,
            )
        else:
            print(f"reprolint: clean ({n_files} file(s))", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
