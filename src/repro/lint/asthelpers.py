"""Small AST utilities shared by the rules."""

from __future__ import annotations

import ast
from typing import Iterator


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def annotation_name(node: ast.AST | None) -> str | None:
    """The trailing class name of an annotation node.

    Handles ``Name``, ``Attribute`` chains, string annotations, and
    ``Optional``/union wrappers (``X | None``) by recursing into the parts
    and returning the first concrete name.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the last dotted component of the first
        # union alternative.
        text = node.value.split("|")[0].strip()
        return text.split("[")[0].split(".")[-1] or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return annotation_name(node.left) or annotation_name(node.right)
    if isinstance(node, ast.Subscript):  # Optional[X] / list[X] — outer name
        return annotation_name(node.value)
    return None


def walk_scope(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class defs.

    Used by scope-sensitive rules so a name typed in an outer function is
    not conflated with the same name in a nested one.
    """
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.append(child)


def function_scopes(
    tree: ast.Module, nodes: list[ast.AST]
) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Yield (scope node, scope body) for the module and every function.

    ``nodes`` is the module's full walk (:attr:`SourceFile.nodes`).
    """
    yield tree, tree.body
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body
