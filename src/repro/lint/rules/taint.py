"""HL010 — determinism-taint: entropy must not reach sim/allocator/scenario
state through *any* call chain.

HL001 catches wall-clock reads and unseeded RNGs at the line where they
happen; it cannot see a helper in a utility module reading
``time.time()`` on behalf of the simulator three calls away.  This rule
closes that gap with the whole-program machinery: every function that
*directly* contains an entropy source is a taint seed, taint propagates
callee→caller along the project call graph, and any function belonging
to the protected state owners — ``repro.sim.*``, ``repro.scenario.*``,
or ``repro.core.allocator`` — that calls into a tainted function is
flagged at the call site, with the full chain down to the source.

Sources are the table HL001 shares
(:func:`repro.lint.rules.determinism.entropy_source`: unseeded
``np.random.default_rng()``, ``time.time()``, ``datetime.now()`` and the
stdlib ``random`` module), plus two kinds of HL010's own:

* the monotonic clocks — ``time.perf_counter``/``time.monotonic`` (and
  ``_ns`` variants) are deterministic *per run* but differ across runs,
  which is exactly what breaks bit-parity replay when they leak into
  state or seeds;
* filesystem iteration order — ``os.listdir``/``os.scandir``,
  ``glob.glob``/``glob.iglob``, ``Path.iterdir()`` — whose order is
  platform- and history-dependent unless sorted.

Escape hatch: a function whose ``def`` header carries
``# harplint: pure-wall-time`` is asserted to consume wall time for
*measurement only* (benchmark timing, span durations) and never let it
influence simulated state; it neither seeds nor forwards taint.  The
scenario sweep driver's wall-clock summary timer is the sanctioned
in-repo example.

Direct sources in protected code are flagged too, for HL010's own kinds
only; a shared-table source is HL001's finding at that line, so the two
rules never double-report one line.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.asthelpers import dotted_name
from repro.lint.callgraph import own_body_nodes
from repro.lint.dataflow import Fact, propagate
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register
from repro.lint.rules.determinism import (
    LOCAL_KINDS,
    entropy_source,
    imports_stdlib_random,
)
from repro.lint.source import ROLE_FIXTURE, ROLE_SRC, Project

#: Modules whose state the determinism contract protects.
_PROTECTED_PREFIXES = ("repro.sim", "repro.scenario")
_PROTECTED_EXACT = frozenset({"repro.core.allocator"})

#: Fixture modules opt into protection by carrying one of these markers
#: in their file name (``hl010_sim_positive.py``), so the rule's test
#: corpus is self-contained.
_FIXTURE_MARKER = re.compile(r"sim|alloc|scenario")

#: HL010's own sources, on top of the shared table in
#: :func:`repro.lint.rules.determinism.entropy_source`; HL001 polices
#: neither kind.
_MONOTONIC_CLOCKS = {
    "time.monotonic": "wall-clock time.monotonic()",
    "time.monotonic_ns": "wall-clock time.monotonic_ns()",
    "time.perf_counter": "wall-clock time.perf_counter()",
    "time.perf_counter_ns": "wall-clock time.perf_counter_ns()",
}
_FS_ITERATION_CALLS = {
    "os.listdir": "filesystem order os.listdir()",
    "os.scandir": "filesystem order os.scandir()",
    "glob.glob": "filesystem order glob.glob()",
    "glob.iglob": "filesystem order glob.iglob()",
}


def is_protected_module(module: str, role: str, path: str) -> bool:
    """Does this module own determinism-protected state?"""
    if role == ROLE_FIXTURE:
        stem = path.rsplit("/", 1)[-1]
        return _FIXTURE_MARKER.search(stem) is not None
    if role != ROLE_SRC:
        return False
    if module in _PROTECTED_EXACT:
        return True
    return any(
        module == p or module.startswith(p + ".") for p in _PROTECTED_PREFIXES
    )


def _direct_sources(fn, imports_random: bool) -> list[Fact]:
    """Entropy sources appearing literally in a function body."""
    facts: list[Fact] = []
    for node in own_body_nodes(fn.node):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        shared = name and entropy_source(node, name, imports_random)
        if shared:
            facts.append(Fact(shared.kind, shared.detail, fn.qname, node.lineno))
        elif name in _MONOTONIC_CLOCKS:
            facts.append(
                Fact("wall-clock", _MONOTONIC_CLOCKS[name], fn.qname, node.lineno)
            )
        elif name in _FS_ITERATION_CALLS:
            facts.append(
                Fact("fs-order", _FS_ITERATION_CALLS[name], fn.qname, node.lineno)
            )
        elif (
            isinstance(node.func, ast.Attribute) and node.func.attr == "iterdir"
        ) or name == "iterdir":
            facts.append(
                Fact("fs-order", "filesystem order .iterdir()", fn.qname, node.lineno)
            )
    return facts


@register
class DeterminismTaintRule(Rule):
    code = "HL010"
    name = "determinism-taint"
    rationale = (
        "Wall-clock, unseeded-RNG, and filesystem-order entropy reaching "
        "sim, allocator, or scenario code through any call chain makes "
        "replays diverge; HL001 only sees the local patterns."
    )
    needs_index = True

    def check(self, project: Project) -> Iterator[Diagnostic]:
        index = project.index()
        symbols = index.symbols
        graph = index.callgraph
        files_by_path = {f.path: f for f in project.files}

        def pure(qname: str) -> bool:
            fn = symbols.functions.get(qname)
            return fn is not None and fn.pure_wall_time

        imports_random: dict[str, bool] = {}
        seeds: dict[str, list[Fact]] = {}
        for qname, fn in symbols.functions.items():
            if fn.file.role not in (ROLE_SRC, ROLE_FIXTURE):
                continue
            if fn.file.path not in imports_random:
                imports_random[fn.file.path] = imports_stdlib_random(fn.file)
            sources = _direct_sources(fn, imports_random[fn.file.path])
            if sources:
                seeds[qname] = sources

        facts = propagate(
            graph, seeds, stop=lambda qname, fact: pure(qname)
        )

        for qname, fn in sorted(symbols.functions.items()):
            file = files_by_path.get(fn.file.path, fn.file)
            if not is_protected_module(fn.module, file.role, file.path):
                continue
            if pure(qname):
                continue
            # Direct sources of the kinds HL001 does not police.
            for fact in seeds.get(qname, []):
                if fact.kind in LOCAL_KINDS:
                    continue
                yield self.diag(
                    file,
                    fact.line,
                    0,
                    f"{fact.detail} in determinism-protected code "
                    f"('{_short(qname)}'); thread the simulated clock or an "
                    "explicit seed through, or mark the function "
                    "'# harplint: pure-wall-time' if this is measurement "
                    "only",
                )
            # Interprocedural: calls into tainted project functions.
            for site in graph.callees(qname):
                callee_bucket = facts.get(site.callee)
                if not callee_bucket:
                    continue
                fact = min(
                    callee_bucket.values(),
                    key=lambda f: (f.kind, f.origin, f.line),
                )
                origin_fn = symbols.functions.get(fact.origin)
                origin_at = (
                    f" (source at {origin_fn.file.path}:{fact.line})"
                    if origin_fn is not None
                    else ""
                )
                yield self.diag(
                    file,
                    site.line,
                    site.col,
                    f"call from determinism-protected '{_short(qname)}' "
                    f"reaches {fact.detail} via "
                    f"{fact.via(site.callee).describe_chain()}{origin_at}; "
                    "pass entropy in explicitly or mark the consuming "
                    "function '# harplint: pure-wall-time'",
                )


def _short(qname: str) -> str:
    return ".".join(qname.split(".")[-2:])
