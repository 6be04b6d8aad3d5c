"""File collection and rule execution (the engine behind the CLI)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, all_rules
from repro.lint.source import Project, SourceFile

# Directory segments never scanned when expanding a directory argument.
# ``fixtures`` holds the lint suite's own deliberately-bad inputs; passing
# a fixture file *explicitly* still lints it (that's how the tests work).
DEFAULT_EXCLUDED_SEGMENTS = frozenset(
    {"fixtures", "__pycache__", ".git", ".venv", "build", "dist"}
)


def collect_files(
    paths: Sequence[str | Path],
    excluded_segments: frozenset[str] = DEFAULT_EXCLUDED_SEGMENTS,
) -> list[Path]:
    """Expand path arguments into a sorted list of python files."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            if candidate in seen:
                continue
            rel_parts = candidate.parts
            if path.is_dir() and any(
                seg in excluded_segments for seg in rel_parts
            ):
                continue
            seen.add(candidate)
            out.append(candidate)
    return out


@dataclass
class RuleStat:
    """Timing and yield of one rule over one run (``--stats``)."""

    code: str
    name: str
    seconds: float
    diagnostics: int


@dataclass
class RunStats:
    """Where a lint run spent its time."""

    n_files: int = 0
    parse_seconds: float = 0.0
    #: One-time whole-program index (symbol table + call graph) build
    #: cost, charged separately so per-rule numbers stay comparable.
    index_seconds: float = 0.0
    index_functions: int = 0
    index_edges: int = 0
    rules: list[RuleStat] = field(default_factory=list)
    total_seconds: float = 0.0


def run(
    project: Project,
    rules: Iterable[Rule] | None = None,
    apply_suppressions: bool = True,
    stats: RunStats | None = None,
) -> list[Diagnostic]:
    """Run rules over a project; returns surviving diagnostics, sorted.

    Files that failed to parse produce an ``HL000`` diagnostic each (a
    broken file must fail the build, not silently skip its rules).
    Rules with ``needs_raw`` (HL007 stale-suppression) run last, against
    the raw pre-suppression stream of every other rule.  Pass ``stats``
    to collect per-rule wall time and the shared index build cost.
    """
    t_start = time.perf_counter()
    rule_list = list(rules) if rules is not None else all_rules()
    diagnostics: list[Diagnostic] = []
    files_by_path = {f.path: f for f in project.files}
    for file in project.files:
        if file.parse_error is not None:
            diagnostics.append(
                Diagnostic(
                    path=file.path,
                    line=file.parse_error_line,
                    col=0,
                    code="HL000",
                    message=f"file does not parse: {file.parse_error}",
                )
            )

    # Build the shared whole-program index up front when any rule needs
    # it, so its one-time cost is not billed to whichever rule runs first.
    if any(getattr(r, "needs_index", False) for r in rule_list):
        index = project.index()
        if stats is not None:
            stats.index_seconds = index.build_seconds
            stats.index_functions = len(index.symbols.functions)
            stats.index_edges = sum(
                len(sites) for sites in index.callgraph.edges.values()
            )

    raw_rules = [r for r in rule_list if getattr(r, "needs_raw", False)]
    for rule in rule_list:
        if getattr(rule, "needs_raw", False):
            continue
        t0 = time.perf_counter()
        found = list(rule.check(project))
        diagnostics.extend(found)
        if stats is not None:
            stats.rules.append(
                RuleStat(
                    code=rule.code,
                    name=rule.name,
                    seconds=time.perf_counter() - t0,
                    diagnostics=len(found),
                )
            )

    checked_codes = {
        r.code for r in rule_list if not getattr(r, "needs_raw", False)
    }
    for rule in raw_rules:
        t0 = time.perf_counter()
        found = list(rule.check_raw(project, diagnostics, checked_codes))
        diagnostics.extend(found)
        if stats is not None:
            stats.rules.append(
                RuleStat(
                    code=rule.code,
                    name=rule.name,
                    seconds=time.perf_counter() - t0,
                    diagnostics=len(found),
                )
            )

    if apply_suppressions:
        diagnostics = [
            d
            for d in diagnostics
            if d.code == "HL000"
            or not files_by_path[d.path].is_suppressed(d.code, d.line)
        ]
    out = sorted(set(diagnostics), key=Diagnostic.sort_key)
    if stats is not None:
        stats.n_files = len(project.files)
        stats.total_seconds = time.perf_counter() - t_start
    return out


def load_project(paths: Sequence[str | Path]) -> Project:
    """Collect and parse path arguments into a :class:`Project`."""
    return Project([SourceFile.load(p) for p in collect_files(paths)])


def lint_paths(
    paths: Sequence[str | Path], stats: RunStats | None = None
) -> list[Diagnostic]:
    """Collect, parse, and lint with every rule, suppressions applied."""
    t0 = time.perf_counter()
    project = load_project(paths)
    parse_seconds = time.perf_counter() - t0
    diagnostics = run(project, stats=stats)
    if stats is not None:
        stats.parse_seconds = parse_seconds
        stats.total_seconds += parse_seconds
    return diagnostics
