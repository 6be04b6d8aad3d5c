"""HL006 — bounded blocking: socket reads and transport requests must
carry a timeout.

The robustness work of docs/robustness.md hardened the IPC layer so that
no peer can hang the RM or an application forever: every
``Transport.request`` takes an explicit ``timeout`` and every blocking
``socket.recv`` loop runs under a ``settimeout`` poll.  This rule keeps
that contract from eroding:

* a ``.request(...)`` call with neither a ``timeout=`` keyword nor a
  second positional argument blocks indefinitely on a hung RM;
* a ``.rpc(...)`` call (the coordinator → node synchronous exchanges of
  the fleet control plane, ``repro.fleet.link``) under the same
  timeout contract — a migration suspend that blocks forever wedges the
  whole fleet epoch;
* a ``.recv(...)`` / ``.recv_into(...)`` call in a file that never calls
  ``.settimeout(...)`` blocks indefinitely on a silent peer.

The ``settimeout`` check is file-scoped on purpose: the common correct
shape is one ``settimeout`` on the socket followed by a poll loop of
``recv`` calls, and a per-call requirement would force noise into every
loop body.  Tests are exempt (they talk to in-process peers they also
control); fixtures are linted so the rule's own corpus works.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import FileRule, register
from repro.lint.source import SourceFile

_RECV_METHODS = {"recv", "recv_into"}
# Synchronous exchange methods that must carry a timeout at every call
# site: the libharp transport request and the fleet coordinator↔node rpc.
_REQUEST_METHODS = {"request", "rpc"}


def _method_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _has_timeout_argument(call: ast.Call) -> bool:
    if any(kw.arg == "timeout" for kw in call.keywords):
        return True
    # Transport.request(message, timeout) — positional timeout.
    return len(call.args) >= 2


@register
class BoundedBlockingRule(FileRule):
    code = "HL006"
    name = "bounded-blocking"
    rationale = (
        "A transport request without a timeout or a socket recv without "
        "settimeout blocks forever on a hung peer; liveness detection "
        "and clean shutdown both depend on bounded blocking."
    )

    def check_file(self, file: SourceFile) -> Iterator[Diagnostic]:
        assert file.tree is not None
        calls = [
            node
            for node in file.nodes
            if isinstance(node, ast.Call)
        ]
        has_settimeout = any(
            _method_name(call) == "settimeout" for call in calls
        )
        for call in calls:
            method = _method_name(call)
            if method in _REQUEST_METHODS and not _has_timeout_argument(call):
                yield self.diag(
                    file,
                    call.lineno,
                    call.col_offset,
                    f"{method}(...) without an explicit timeout blocks "
                    "forever on a hung peer; pass timeout=",
                )
            elif method in _RECV_METHODS and not has_settimeout:
                yield self.diag(
                    file,
                    call.lineno,
                    call.col_offset,
                    f"{method}(...) in a file that never calls "
                    "settimeout(...); a silent peer blocks this read "
                    "forever",
                )
