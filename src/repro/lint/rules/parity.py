"""HL004 — parity-coverage: every reference/vectorized switch is tested.

The allocator keeps its scalar reference implementation alive precisely
so the vectorized hot path stays checkable point-for-point, and the
tick/event engine switch carries a bit-parity claim.  Those guarantees
only hold while some test actually exercises the switchable entry
point; a new switch without a test is a parity claim nobody verifies.

A *parity switch* is (a) a public function or a class whose ``__init__``
takes a ``vectorized`` parameter, a ``mode`` parameter defaulting to
``"vectorized"``/``"reference"``, or an ``engine`` parameter defaulting
to ``"tick"``/``"event"`` (the fixed-tick vs event-heap engine switch —
a bit-parity claim just like reference/vectorized), or (b) a class any
of whose methods branch on ``self.mode``/``self.vectorized``.  The rule
walks every test module's AST and requires the switch's public name (the
class name for methods) to be referenced somewhere under ``tests/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register
from repro.lint.source import Project, SourceFile

_MODE_DEFAULTS = {"vectorized", "reference"}
_ENGINE_DEFAULTS = {"tick", "event"}


def _has_switch_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = fn.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    names = [a.arg for a in params]
    if "vectorized" in names:
        return True
    if "mode" not in names and "engine" not in names:
        return False
    # Align defaults with the tail of the positional parameter list.
    pos = [*args.posonlyargs, *args.args]
    defaults: dict[str, ast.expr] = dict(
        zip([a.arg for a in pos[len(pos) - len(args.defaults):]], args.defaults)
    )
    defaults.update(
        {
            a.arg: d
            for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        }
    )
    for param, allowed in (("mode", _MODE_DEFAULTS), ("engine", _ENGINE_DEFAULTS)):
        default = defaults.get(param)
        if (
            isinstance(default, ast.Constant)
            and isinstance(default.value, str)
            and default.value in allowed
        ):
            return True
    return False


def _branches_on_switch(node: ast.AST) -> bool:
    """Does this subtree branch on ``self.mode`` or ``self.vectorized``?

    ``self.vectorized`` is unambiguous.  ``self.mode`` only counts as a
    parity switch when the same method also mentions the mode strings,
    so unrelated ``mode`` attributes (e.g. adaptation modes) don't match.
    """
    reads_mode = False
    mentions_mode_string = False
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
            and isinstance(sub.ctx, ast.Load)
        ):
            if sub.attr == "vectorized":
                return True
            if sub.attr == "mode":
                reads_mode = True
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and sub.value in _MODE_DEFAULTS
        ):
            mentions_mode_string = True
    return reads_mode and mentions_mode_string


def _referenced_names(files: list[SourceFile]) -> set[str]:
    names: set[str] = set()
    for file in files:
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add(alias.name.split(".")[-1])
                    if alias.asname:
                        names.add(alias.asname)
    return names


@register
class ParityCoverageRule(Rule):
    code = "HL004"
    name = "parity-coverage"
    rationale = (
        "A reference/vectorized switch that no test references is an "
        "unverified parity claim; the vectorized path could drift."
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        test_names = _referenced_names(project.test_files())
        for file in project.lintable_files():
            assert file.tree is not None
            seen: set[str] = set()
            for subject, node in self._switches(file.tree):
                if subject in seen:
                    continue
                seen.add(subject)
                if subject.startswith("_"):
                    continue
                if subject not in test_names:
                    yield self.diag(
                        file,
                        node.lineno,
                        node.col_offset,
                        f"parity switch '{subject}' (reference/vectorized "
                        "mode) is not referenced by any test module; add a "
                        "test comparing both modes",
                    )

    def _switches(
        self, tree: ast.Module
    ) -> Iterator[tuple[str, ast.AST]]:
        """Yield (public subject name, anchor node) for each parity switch."""
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _has_switch_params(node):
                    yield node.name, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    if _has_switch_params(item) or _branches_on_switch(item):
                        yield node.name, node
                        break
