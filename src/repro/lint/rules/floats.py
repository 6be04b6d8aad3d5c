"""HL003 — float-equality: no ``==``/``!=`` against float literals.

Exact equality against a float literal is almost always a latent bug in
numeric code: one refactor away from a value that arrives as ``1e-17``
instead of ``0.0`` and the branch silently flips.  The platform power
model's old ``activity == 0.0`` guards were the canonical example — they
worked only because the validation bounds upstream happened to clamp the
inputs.  Compare with ``<=``/``>=`` against the same bound, or use
``math.isclose`` with an explicit tolerance.

Deliberate exact comparisons (e.g. an IEEE-exactness assertion in a
parity check) carry an inline ``# harplint: disable=HL003`` with a
justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import FileRule, register
from repro.lint.source import SourceFile


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # -1.5 parses as UnaryOp(USub, Constant(1.5)).
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, float)
    ):
        return True
    return False


@register
class FloatEqualityRule(FileRule):
    code = "HL003"
    name = "float-equality"
    rationale = (
        "Exact ==/!= against float literals flips silently under "
        "floating-point noise; use ordered bounds or math.isclose."
    )

    def check_file(self, file: SourceFile) -> Iterator[Diagnostic]:
        assert file.tree is not None
        for node in file.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                literal = (
                    right if _is_float_literal(right)
                    else left if _is_float_literal(left)
                    else None
                )
                if literal is None:
                    continue
                sym = "==" if isinstance(op, ast.Eq) else "!="
                yield self.diag(
                    file,
                    node.lineno,
                    node.col_offset,
                    f"exact '{sym}' against a float literal; use an "
                    "ordered bound (<=/>=) or math.isclose with an "
                    "explicit tolerance",
                )
