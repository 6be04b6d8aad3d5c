"""harplint — AST-based static analysis for the HARP reproduction.

Ten repo-specific rules encode the invariants the runtime relies on
(see ``docs/static_analysis.md``):

=======  =================  ====================================================
Code     Name               Contract
=======  =================  ====================================================
HL001    determinism        no unseeded RNGs, wall clocks, or salted ``hash()``
HL002    mutation-safety    value types mutate only in their defining module
HL003    float-equality     no exact ``==``/``!=`` against float literals
HL004    parity-coverage    every reference/vectorized switch has a test
HL005    ipc-conformance    every Message class is codec-registered
HL006    bounded-blocking   socket reads and transport requests carry timeouts
HL007    stale-suppression  every ``disable`` comment still matches a finding
HL010    determinism-taint  entropy cannot reach sim/allocator/scenario state
                            through any call chain
HL011    lock-discipline    one global lock order; no unbounded blocking or
                            foreign callbacks while a lock is held
HL012    time-units         sim-seconds, wall-seconds, and ticks never meet in
                            arithmetic or comparisons
=======  =================  ====================================================

HL010 and HL011 are *whole-program* rules: they walk a project-wide
symbol table and call graph (``repro.lint.symbols``,
``repro.lint.callgraph``) and propagate facts interprocedurally with the
fixpoint engine in ``repro.lint.dataflow``.

Run ``python -m repro.lint src tests benchmarks examples`` or the
``harplint`` console script (``--format json`` for the CI report,
``--stats`` for per-rule timing, ``--list-rules`` for the table above).
Suppress a finding inline with ``# harplint: disable=HL001 -- reason``;
HL007 flags the comment once the finding stops firing.  HL010 has one
escape hatch: ``# harplint: pure-wall-time`` on a function whose wall
clock reads are measurement only.
"""

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, all_rules, register, select_rules
from repro.lint.runner import RunStats, collect_files, lint_paths, load_project, run
from repro.lint.source import Project, SourceFile, classify_role

__all__ = [
    "Diagnostic",
    "Project",
    "Rule",
    "RunStats",
    "SourceFile",
    "all_rules",
    "classify_role",
    "collect_files",
    "lint_paths",
    "load_project",
    "register",
    "run",
    "select_rules",
]
