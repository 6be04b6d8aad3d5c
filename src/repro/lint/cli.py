"""The ``harplint`` command line (also ``python -m repro.lint``).

Exit status: 0 when the tree is clean (or ``--list-rules``), 1 when any
non-suppressed diagnostic remains, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.lint.registry import all_rules
from repro.lint.runner import RunStats, lint_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harplint",
        description=(
            "AST-based static analysis for the HARP reproduction: "
            "determinism, mutation-safety, float-equality, "
            "reference/vectorized parity coverage, IPC conformance, and "
            "whole-program taint, lock-discipline, and time-unit checks."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic output format",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule timing and index build cost to stderr",
    )
    return parser


def _print_stats(stats: RunStats) -> None:
    print(
        f"harplint: {stats.n_files} files parsed in "
        f"{stats.parse_seconds * 1e3:.0f} ms; index "
        f"({stats.index_functions} functions, {stats.index_edges} edges) "
        f"built in {stats.index_seconds * 1e3:.0f} ms",
        file=sys.stderr,
    )
    for rs in sorted(stats.rules, key=lambda r: -r.seconds):
        print(
            f"harplint:   {rs.code} {rs.name:<20} "
            f"{rs.seconds * 1e3:7.1f} ms  {rs.diagnostics} diagnostic(s)",
            file=sys.stderr,
        )
    print(
        f"harplint: total {stats.total_seconds * 1e3:.0f} ms",
        file=sys.stderr,
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}")
            print(f"       {rule.rationale}")
        return 0

    stats = RunStats() if args.stats else None
    try:
        diagnostics = lint_paths(args.paths, stats=stats)
    except OSError as exc:
        print(f"harplint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(
            json.dumps(
                {
                    "diagnostics": [d.to_dict() for d in diagnostics],
                    "count": len(diagnostics),
                },
                indent=2,
            )
        )
    else:
        for diagnostic in diagnostics:
            print(diagnostic.format())
        if diagnostics:
            print(f"harplint: {len(diagnostics)} diagnostic(s)")
    if stats is not None:
        _print_stats(stats)
    return 1 if diagnostics else 0


if __name__ == "__main__":
    sys.exit(main())
