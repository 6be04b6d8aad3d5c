"""HL002 — mutation-safety: value types mutate only in their home module.

PR 1 made three classes effectively immutable by contract:
``ExtendedResourceVector`` caches ``core_vector``/``total_cores`` on
first use, the allocator memoizes whole solves keyed by point *values*,
and ``OperatingPoint`` instances are shared between tables, the
allocator's fingerprint, and IPC encodings.  An in-place mutation from
outside the defining module silently desynchronizes those caches — the
sim keeps running, the numbers are just wrong.

This rule flags, outside the classes' defining modules:

* attribute assignment (plain, augmented, or annotated) and ``del`` on a
  receiver statically known to be one of the guarded classes — known via
  a parameter annotation, a variable annotation, or direct construction;
* assignment to the private ERV cache fields (``_core_vector``,
  ``_total_cores``, ``_hash``) on *any* receiver, since those names are
  unambiguous.

Sanctioned mutation goes through the classes' own methods
(``record_sample``, ``set_predicted``), which live in the defining
modules and keep the invariants.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.asthelpers import annotation_name, function_scopes, walk_scope
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import FileRule, register
from repro.lint.source import SourceFile

GUARDED_CLASSES = {
    "ResourceVector",
    "ExtendedResourceVector",
    "OperatingPoint",
}

# Private cache fields whose names identify the receiver on their own.
_CACHE_FIELDS = {"_core_vector", "_total_cores", "_hash"}


@register
class MutationSafetyRule(FileRule):
    code = "HL002"
    name = "mutation-safety"
    rationale = (
        "ERV derived-value caches and the allocator's solve memoization "
        "assume ResourceVector/OperatingPoint instances never mutate "
        "outside their defining modules."
    )

    def check_file(self, file: SourceFile) -> Iterator[Diagnostic]:
        assert file.tree is not None
        defined_here = {
            node.name
            for node in file.nodes
            if isinstance(node, ast.ClassDef) and node.name in GUARDED_CLASSES
        }
        guarded = GUARDED_CLASSES - defined_here
        for scope, body in function_scopes(file.tree, file.nodes):
            nodes = list(walk_scope(body))
            typed = self._typed_names(scope, nodes, guarded)
            for node in nodes:
                yield from self._check_stmt(file, node, typed, defined_here)

    # -- scope typing ---------------------------------------------------------

    def _typed_names(
        self, scope: ast.AST, nodes: list[ast.AST], guarded: set[str]
    ) -> dict[str, str]:
        """Names in this scope statically typed as a guarded class."""
        typed: dict[str, str] = {}
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *filter(None, [args.vararg, args.kwarg]),
            ]:
                cls = annotation_name(arg.annotation)
                if cls in guarded:
                    typed[arg.arg] = cls
        for node in nodes:
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                cls = annotation_name(node.annotation)
                if cls in guarded:
                    typed[node.target.id] = cls
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                func = node.value.func
                ctor = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else None
                )
                if ctor in guarded:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            typed[target.id] = ctor
        return typed

    # -- statement checks -----------------------------------------------------

    def _check_stmt(
        self,
        file: SourceFile,
        node: ast.AST,
        typed: dict[str, str],
        defined_here: set[str],
    ) -> Iterator[Diagnostic]:
        targets: list[ast.expr] = []
        verb = "assignment to"
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
            verb = "deletion of"
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            receiver = target.value
            if (
                target.attr in _CACHE_FIELDS
                and not defined_here
                and not (
                    isinstance(receiver, ast.Name) and receiver.id == "self"
                )
            ):
                yield self.diag(
                    file,
                    target.lineno,
                    target.col_offset,
                    f"{verb} ERV cache field '.{target.attr}' outside "
                    "resource_vector.py desynchronizes the cached "
                    "core_vector/total_cores values",
                )
                continue
            if isinstance(receiver, ast.Name) and receiver.id in typed:
                cls = typed[receiver.id]
                yield self.diag(
                    file,
                    target.lineno,
                    target.col_offset,
                    f"in-place {verb} '.{target.attr}' on a {cls} outside "
                    f"its defining module; {cls} instances are shared by "
                    "the allocator's solve cache — use the class's own "
                    "update methods instead",
                )
