"""HL012 — time-unit discipline: sim-seconds, wall-seconds, and ticks
must not meet in arithmetic or comparisons.

HARP code carries three time units: integer ticks (the sim clock,
``world.tick_index``), sim-seconds (``world.time_s``, derived from it,
and the durations and deadlines of configs and traces), and the host's
wall clock (``time.perf_counter`` family, wall-seconds).  They share
numeric types, so nothing stops ``deadline_sim_s > perf_counter()``,
``budget_s - epoch_ticks`` or ``world.tick_index >= deadline_s`` from
type-checking — the bug only shows up as scenarios that end at the
wrong time.  This rule infers a unit for every
operand it can and flags additive arithmetic (``+``, ``-``, ``+=``,
``-=``) and ordering/equality comparisons between *incompatible* units.

Unit inference, in priority order:

1. assignment provenance — a name assigned from an expression of known
   unit carries that unit (flow-insensitive; the first assignment of
   known unit wins);
2. naming — identifier/attribute/call leaves ending ``_sim_s`` /
   ``_wall_s`` / ``_s`` / ``_ticks`` / ``_tick`` / ``_us`` / ``_ms`` /
   ``_ns`` (plus the names ``ticks``, ``tick_index`` and ``ticks_in``,
   and the ``time.perf_counter``/``monotonic``/``time`` wall-clock
   calls).

Compatibility: generic ``_s`` is compatible with both ``sim_s`` and
``wall_s`` (most code rightly does not care which domain a duration
lives in); ``sim_s`` vs ``wall_s`` is a conflict; ``ticks`` and the
sub-second integer units (``us``/``ms``/``ns``) are each their own
domain.  Multiplication and division *launder* units by design —
``ts_us = ts_s * 1e6`` is a conversion, not a conflict — so ``*``/``/``
results are unknown.  One unknown operand means no diagnostic:
absence of an edge is absence of knowledge.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.asthelpers import dotted_name, function_scopes, walk_scope
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import FileRule, register
from repro.lint.source import SourceFile

#: Checked longest-suffix-first so ``_sim_s`` is not read as ``_s``.
_SUFFIX_UNITS: tuple[tuple[str, str], ...] = (
    ("_sim_s", "sim_s"),
    ("_wall_s", "wall_s"),
    ("_ticks", "ticks"),
    ("_tick", "ticks"),
    ("_us", "us"),
    ("_ms", "ms"),
    ("_ns", "ns"),
    ("_s", "s"),
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.monotonic",
        "time.perf_counter",
    }
)
_WALL_CLOCK_NS_CALLS = frozenset(
    {
        "time.time_ns",
        "time.monotonic_ns",
        "time.perf_counter_ns",
    }
)

_SECONDS_FAMILY = frozenset({"s", "sim_s", "wall_s"})

#: Files with none of these tokens cannot yield a known unit; skipping
#: them keeps the rule's cost proportional to the timing code, not the
#: tree.
_PREFILTER = re.compile(
    r"_(?:sim_s|wall_s|s|ticks?|us|ms|ns)\b|tick_index|ticks_in|perf_counter"
    r"|monotonic"
)

_ADDITIVE_OPS = (ast.Add, ast.Sub)
_ORDER_CMPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def unit_of_name(name: str) -> str | None:
    """Unit implied by an identifier leaf, or None."""
    if name in ("ticks", "tick_index", "ticks_in"):  # the sim clock and its conversion
        return "ticks"
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix) and len(name) > len(suffix):
            return unit
    return None


def compatible(a: str, b: str) -> bool:
    if a == b:
        return True
    if a in _SECONDS_FAMILY and b in _SECONDS_FAMILY:
        # Generic seconds bridge either domain; sim vs wall is the bug.
        return "s" in (a, b)
    return False


def _merge(a: str, b: str) -> str:
    """Result unit of compatible additive operands (prefer specific)."""
    return b if a == "s" else a


@register
class TimeUnitRule(FileRule):
    code = "HL012"
    name = "time-units"
    rationale = (
        "Sim-seconds, wall-seconds, and integer ticks share numeric "
        "types; adding or comparing across units is silent corruption "
        "of schedule math."
    )

    def check_file(self, file: SourceFile) -> Iterator[Diagnostic]:
        assert file.tree is not None
        # Cheap text pre-filter: a file with no unit-suffixed token and
        # no wall-clock call cannot produce a known unit, so skip the
        # per-scope AST passes entirely.
        if _PREFILTER.search(file.text) is None:
            return
        for _, body in function_scopes(file.tree, file.nodes):
            yield from self._check_scope(file, body)

    # -- per-scope -----------------------------------------------------------

    def _check_scope(
        self, file: SourceFile, body: list[ast.stmt]
    ) -> Iterator[Diagnostic]:
        nodes = list(walk_scope(body))
        env = self._build_env(nodes)
        for node in nodes:
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, _ADDITIVE_OPS
            ):
                left = self._unit(node.left, env)
                right = self._unit(node.right, env)
                if left and right and not compatible(left, right):
                    yield self.diag(
                        file,
                        node.lineno,
                        node.col_offset,
                        f"mixing time units: {_render(node.left)} [{left}] "
                        f"{'+' if isinstance(node.op, ast.Add) else '-'} "
                        f"{_render(node.right)} [{right}]; convert "
                        "explicitly",
                    )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, _ADDITIVE_OPS
            ):
                left = self._unit(node.target, env)
                right = self._unit(node.value, env)
                if left and right and not compatible(left, right):
                    yield self.diag(
                        file,
                        node.lineno,
                        node.col_offset,
                        f"mixing time units: {_render(node.target)} "
                        f"[{left}] {'+=' if isinstance(node.op, ast.Add) else '-='} "
                        f"{_render(node.value)} [{right}]; convert "
                        "explicitly before accumulating",
                    )
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                units = [self._unit(o, env) for o in operands]
                for (a_node, a), (b_node, b), op in zip(
                    zip(operands, units), zip(operands[1:], units[1:]), node.ops
                ):
                    if not isinstance(op, _ORDER_CMPS):
                        continue
                    if a and b and not compatible(a, b):
                        yield self.diag(
                            file,
                            node.lineno,
                            node.col_offset,
                            f"comparing across time units: {_render(a_node)} "
                            f"[{a}] vs {_render(b_node)} [{b}]; comparisons "
                            "between sim-time, wall-time, and ticks are "
                            "meaningless without an explicit conversion",
                        )

    def _build_env(self, nodes: list[ast.AST]) -> dict[str, str]:
        """name -> unit from unit-typed assignments in one scope."""
        env: dict[str, str] = {}
        # Two passes so provenance can chain through suffix-less names
        # regardless of statement order (flow-insensitive fixpoint would
        # be overkill for straight-line timing code).
        for _ in range(2):
            for node in nodes:
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    target, value = node.target, node.value
                if not isinstance(target, ast.Name):
                    continue
                unit = self._unit(value, env) if value is not None else None
                if unit is not None:
                    env.setdefault(target.id, unit)
        return env

    def _unit(self, node: ast.expr, env: dict[str, str]) -> str | None:
        """Inferred unit of an expression, or None for unknown."""
        if isinstance(node, ast.Name):
            return env.get(node.id) or unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return unit_of_name(node.attr)
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None:
                if name in _WALL_CLOCK_CALLS:
                    return "wall_s"
                if name in _WALL_CLOCK_NS_CALLS:
                    return "ns"
                return unit_of_name(name.split(".")[-1])
            return None
        if isinstance(node, ast.UnaryOp):
            return self._unit(node.operand, env)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, _ADDITIVE_OPS):
                left = self._unit(node.left, env)
                right = self._unit(node.right, env)
                if left and right and compatible(left, right):
                    return _merge(left, right)
                # Unknown-or-conflicting: the conflict is reported where
                # the BinOp itself is visited; don't cascade.
                return left or right
            # ``*`` and ``/`` are conversion points: unit launders away.
            return None
        if isinstance(node, ast.IfExp):
            return self._unit(node.body, env) or self._unit(node.orelse, env)
        return None


def _render(node: ast.expr) -> str:
    name = dotted_name(node)
    if name is not None:
        return name
    if isinstance(node, ast.Call):
        inner = dotted_name(node.func)
        return f"{inner}(...)" if inner else "<call>"
    return f"<{type(node).__name__.lower()}>"
