"""HL011 — lock-discipline: consistent acquisition order, no unbounded
blocking and no foreign code while a lock is held.

The IPC server (its event loop against callers of ``push()`` and
``open_push_channel()``), the IPC client, and the obs registry are the
only parts of the system where real threads contend on real locks;
a regression there deadlocks the RM instead of failing a test.  This
rule builds the whole-program *lock-acquisition graph* — which locks a
function acquires, directly and through everything it calls — and
checks three properties at every point where a lock is held:

1. **Acquisition order.**  Every nested acquisition (directly via nested
   ``with`` blocks, or by calling a function that takes another lock)
   contributes an ordered pair; if both ``A→B`` and ``B→A`` are
   observed anywhere in the program, both witnesses are flagged.
   Re-acquiring a lock already held is flagged unless the lock is known
   to be an ``RLock`` (class attributes assigned ``threading.RLock()``).

2. **Unbounded blocking under a lock.**  Socket operations (``send*``,
   ``recv*``, ``connect``, ``accept``, and — in files that import
   ``socket`` — ``close``/``shutdown``, which can block on unflushed
   data), ``.request(...)`` without a timeout, and bare ``.join()``
   stall every other thread queued on the lock.  The check is
   interprocedural: calling a helper that performs the blocking
   operation is the same hazard.  A function that calls
   ``.settimeout(...)`` bounds its own socket I/O, so socket facts are
   absorbed at such functions — the serialized request channel in
   ``ipc/client.py`` (settimeout, then send/recv under the request
   lock) is the sanctioned shape.

3. **Injected callbacks under a lock.**  Invoking a callable that
   arrived from outside the class (an instance attribute assigned from
   a ``Callable``-annotated parameter, like the registry's pluggable
   ``clock``) runs foreign code of unknown cost — and possibly
   re-entrant into the same lock — inside the critical section.

Lock identity: ``self.X``/``cls.X`` map to ``<Class>.X`` of the
enclosing class; ``obj.X`` with an annotated receiver maps to that
class; bare names map to the enclosing function.  Only names matching
``*lock``/``*mutex`` are treated as locks, so ``with conn:`` or
``with OBS.span(...):`` never participate.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.asthelpers import dotted_name
from repro.lint.callgraph import CallGraph, own_body_nodes
from repro.lint.dataflow import Fact, propagate
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register
from repro.lint.source import ROLE_FIXTURE, ROLE_SRC, Project
from repro.lint.symbols import FunctionInfo, SymbolTable

_LOCK_NAME = re.compile(r"(^|_)(lock|mutex)$", re.IGNORECASE)

_SOCKET_OPS = frozenset(
    {
        "send", "sendall", "sendto", "sendmsg",
        "recv", "recv_into", "recvfrom", "recvmsg",
        "connect", "accept",
    }
)
#: Blocking only for sockets; gated on the file importing ``socket`` to
#: keep ``file.close()`` in unrelated code out of scope.
_SOCKET_LIFECYCLE_OPS = frozenset({"close", "shutdown"})


def _imports_socket(symbols: SymbolTable, module: str) -> bool:
    info = symbols.modules.get(module)
    if info is None:
        return False
    return any(
        v == "socket" or v.startswith("socket.") for v in info.imports.values()
    )


def _has_timeout_argument(call: ast.Call) -> bool:
    if any(kw.arg == "timeout" for kw in call.keywords):
        return True
    return len(call.args) >= 2


class _FunctionLockFacts:
    """Per-function lock behaviour, extracted in one AST pass."""

    def __init__(self, fn: FunctionInfo, symbols: SymbolTable):
        self.fn = fn
        self.symbols = symbols
        #: Locks acquired anywhere in the body (seed for "acquires" facts).
        self.acquired: dict[str, int] = {}
        #: Direct blocking operations: (description, line, is_socket_op).
        self.blocking: list[tuple[str, int, bool]] = []
        #: Direct injected-callback invocations: (description, line).
        self.callbacks: list[tuple[str, int]] = []
        #: Direct blocking ops under a held lock:
        #: (description, line, col, innermost_lock, is_socket_op).
        self.blocking_under_lock: list[tuple[str, int, int, str, bool]] = []
        #: Direct callback invocations under a held lock.
        self.callbacks_under_lock: list[tuple[str, int, int, str]] = []
        #: (held_lock, acquired_lock, line) ordered pairs from nesting.
        self.order_pairs: list[tuple[str, str, int]] = []
        #: Same-lock re-acquisitions: (lock, line).
        self.reacquired: list[tuple[str, int]] = []
        #: Calls made while holding locks: (held tuple, Call node).
        self.calls_under_lock: list[tuple[tuple[str, ...], ast.Call]] = []
        self.bounds_sockets = False
        self._callback_locals: set[str] = set()
        self._socket_file = _imports_socket(symbols, fn.module)
        self._scan()

    # -- lock identity -------------------------------------------------------

    def _lock_id(self, expr: ast.expr) -> str | None:
        """Stable identity for a lock expression, or None if not a lock."""
        if isinstance(expr, ast.Call):
            # ``with self._lock:`` not ``with self._lock.acquire():`` —
            # a call result is not a reusable lock identity.
            return None
        name = dotted_name(expr)
        if name is None:
            return None
        parts = name.split(".")
        leaf = parts[-1]
        if not _LOCK_NAME.search(leaf):
            return None
        if len(parts) == 1:
            return f"{self.fn.qname}.{leaf}"
        if parts[0] in ("self", "cls") and self.fn.class_qname is not None:
            return f"{self.fn.class_qname}.{leaf}"
        # Annotated receiver: obj._lock with a known class for obj.
        if len(parts) == 2:
            owner = self._receiver_class(parts[0])
            if owner is not None:
                return f"{owner}.{leaf}"
        return f"{self.fn.module}.{name}"

    def _receiver_class(self, name: str) -> str | None:
        args = self.fn.node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.arg != name:
                continue
            from repro.lint.asthelpers import annotation_name

            ann = annotation_name(arg.annotation)
            if ann is None:
                return None
            resolved = self.symbols.resolve_dotted(ann, self.fn.module)
            from repro.lint.symbols import ClassInfo

            if isinstance(resolved, ClassInfo):
                return resolved.qname
        return None

    def lock_kind(self, lock_id: str) -> str:
        """"lock" | "rlock" | "unknown" for a lock identity."""
        owner, _, attr = lock_id.rpartition(".")
        info = self.symbols.classes.get(owner)
        if info is not None:
            return info.lock_attrs.get(attr, "unknown")
        return "unknown"

    # -- scanning ------------------------------------------------------------

    def _scan(self) -> None:
        cls = self.symbols.class_of(self.fn.qname)
        self._callable_attrs = cls.callable_attrs if cls is not None else set()
        for node in own_body_nodes(self.fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "settimeout"
            ):
                self.bounds_sockets = True
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Attribute
            ):
                # ``clock = self._clock`` — remember callback-typed locals.
                value = node.value
                if (
                    isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                    and value.attr in self._callable_attrs
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self._callback_locals.add(target.id)
        self._walk(self.fn.node.body, held=())

    def _walk(self, body: list[ast.stmt], held: tuple[str, ...]) -> None:
        for stmt in body:
            self._visit(stmt, held)

    def _visit(self, node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = held
            for item in node.items:
                lock_id = self._lock_id(item.context_expr)
                # Non-lock context managers still contain expressions.
                self._visit_expr(item.context_expr, held)
                if lock_id is None:
                    continue
                self.acquired.setdefault(lock_id, item.context_expr.lineno)
                if lock_id in new_held:
                    self.reacquired.append((lock_id, item.context_expr.lineno))
                else:
                    for outer in new_held:
                        self.order_pairs.append(
                            (outer, lock_id, item.context_expr.lineno)
                        )
                    new_held = new_held + (lock_id,)
            self._walk(node.body, new_held)
            return
        # Generic statement: visit child expressions/statements with the
        # current held set.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._visit(child, held)
            else:
                self._visit_expr(child, held)

    def _visit_expr(self, node: ast.AST, held: tuple[str, ...]) -> None:
        stack: list[ast.AST] = [node]
        while stack:
            sub = stack.pop()
            if isinstance(
                sub,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue  # deferred bodies run later, outside the lock scope
            if isinstance(sub, ast.Call):
                self._record_call(sub, held)
            stack.extend(ast.iter_child_nodes(sub))

    def _record_call(self, call: ast.Call, held: tuple[str, ...]) -> None:
        if held:
            self.calls_under_lock.append((held, call))
        line, col = call.lineno, call.col_offset
        blocking: tuple[str, bool] | None = None
        callback: str | None = None
        if isinstance(call.func, ast.Attribute):
            method = call.func.attr
            if method in _SOCKET_OPS:
                blocking = (f"socket .{method}(...)", True)
            elif method in _SOCKET_LIFECYCLE_OPS and self._socket_file:
                blocking = (f"socket .{method}(...)", True)
            elif method == "request" and not _has_timeout_argument(call):
                blocking = ("request(...) without a timeout", False)
            elif method == "join" and not call.args and not call.keywords:
                blocking = (".join() without a timeout", False)
            elif (
                isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"
                and method in getattr(self, "_callable_attrs", set())
            ):
                callback = f"injected callable self.{method}(...)"
        elif isinstance(call.func, ast.Name):
            if call.func.id in self._callback_locals:
                callback = f"injected callable {call.func.id}(...)"
        if blocking is not None:
            desc, is_socket = blocking
            self.blocking.append((desc, line, is_socket))
            if held:
                self.blocking_under_lock.append(
                    (desc, line, col, held[-1], is_socket)
                )
        if callback is not None:
            self.callbacks.append((callback, line))
            if held:
                self.callbacks_under_lock.append((callback, line, col, held[-1]))


@register
class LockDisciplineRule(Rule):
    code = "HL011"
    name = "lock-discipline"
    rationale = (
        "Inconsistent lock acquisition order deadlocks threaded servers; "
        "unbounded blocking calls or injected callbacks made while a "
        "lock is held stall every thread queued on it."
    )
    needs_index = True

    def check(self, project: Project) -> Iterator[Diagnostic]:
        index = project.index()
        symbols = index.symbols
        graph: CallGraph = index.callgraph
        files_by_path = {f.path: f for f in project.files}

        lock_facts: dict[str, _FunctionLockFacts] = {}
        for qname, fn in symbols.functions.items():
            if fn.file.role not in (ROLE_SRC, ROLE_FIXTURE):
                continue
            lock_facts[qname] = _FunctionLockFacts(fn, symbols)

        seeds: dict[str, list[Fact]] = {}
        for qname, lf in lock_facts.items():
            facts: list[Fact] = []
            for desc, line, is_socket in lf.blocking:
                if is_socket and lf.bounds_sockets:
                    continue  # settimeout in this function bounds its I/O
                kind = "blocking-socket" if is_socket else "blocking"
                facts.append(
                    Fact(kind=kind, detail=desc, origin=qname, line=line)
                )
            for desc, line in lf.callbacks:
                facts.append(
                    Fact(kind="callback", detail=desc, origin=qname, line=line)
                )
            for lock_id, line in lf.acquired.items():
                facts.append(
                    Fact(kind="acquires", detail=lock_id, origin=qname, line=line)
                )
            if facts:
                seeds[qname] = facts

        def absorb(qname: str, fact: Fact) -> bool:
            if fact.kind != "blocking-socket":
                return False
            lf = lock_facts.get(qname)
            # A settimeout-calling frame bounds socket I/O below it —
            # but only absorbs facts arriving from callees, not its own.
            return lf is not None and lf.bounds_sockets and fact.chain != ()

        all_facts = propagate(graph, seeds, stop=absorb)

        # Pass 1: collect every ordered pair program-wide (direct nesting
        # plus call-under-lock into lock-acquiring functions).
        pairs: dict[tuple[str, str], list[tuple[str, int, str]]] = {}

        def add_pair(a: str, b: str, qname: str, line: int, how: str) -> None:
            pairs.setdefault((a, b), []).append((qname, line, how))

        diagnostics: list[Diagnostic] = []
        for qname, lf in sorted(lock_facts.items()):
            file = files_by_path.get(lf.fn.file.path, lf.fn.file)
            for outer, inner, line in lf.order_pairs:
                add_pair(outer, inner, qname, line, "nested with")
            for lock_id, line in lf.reacquired:
                if lf.lock_kind(lock_id) != "rlock":
                    diagnostics.append(
                        self.diag(
                            file,
                            line,
                            0,
                            f"re-acquiring non-reentrant lock "
                            f"'{_short(lock_id)}' already held in "
                            f"'{_short(qname)}' deadlocks",
                        )
                    )
            for held, call in lf.calls_under_lock:
                callee = graph.resolve_call(lf.fn, call)
                if callee is None:
                    continue
                bucket = all_facts.get(callee.qname)
                if not bucket:
                    continue
                for fact in sorted(
                    bucket.values(), key=lambda f: (f.kind, f.origin, f.line)
                ):
                    if fact.kind == "acquires":
                        inner = fact.detail
                        for outer in held:
                            if inner == outer:
                                if lf.lock_kind(inner) != "rlock":
                                    diagnostics.append(
                                        self.diag(
                                            file,
                                            call.lineno,
                                            call.col_offset,
                                            "call chain "
                                            f"{fact.via(callee.qname).describe_chain()} "
                                            f"re-acquires non-reentrant lock "
                                            f"'{_short(inner)}' already held "
                                            f"in '{_short(qname)}'",
                                        )
                                    )
                            else:
                                add_pair(
                                    outer,
                                    inner,
                                    qname,
                                    call.lineno,
                                    f"via {fact.via(callee.qname).describe_chain()}",
                                )
                    elif fact.kind in ("blocking", "blocking-socket"):
                        if (
                            fact.kind == "blocking-socket"
                            and lf.bounds_sockets
                        ):
                            continue
                        diagnostics.append(
                            self.diag(
                                file,
                                call.lineno,
                                call.col_offset,
                                f"{fact.detail} via "
                                f"{fact.via(callee.qname).describe_chain()} "
                                f"while holding '{_short(held[-1])}' blocks "
                                "every thread queued on the lock; move it "
                                "outside the critical section or bound it",
                            )
                        )
                    elif fact.kind == "callback":
                        diagnostics.append(
                            self.diag(
                                file,
                                call.lineno,
                                call.col_offset,
                                f"{fact.detail} runs foreign code while "
                                f"holding '{_short(held[-1])}' (via "
                                f"{fact.via(callee.qname).describe_chain()}); "
                                "hoist the call out of the critical section",
                            )
                        )
            # Direct blocking/callback operations under a lock.
            for desc, line, col, lock_id, is_socket in lf.blocking_under_lock:
                if is_socket and lf.bounds_sockets:
                    continue
                diagnostics.append(
                    self.diag(
                        file,
                        line,
                        col,
                        f"{desc} while holding '{_short(lock_id)}' blocks "
                        "every thread queued on the lock; move it outside "
                        "the critical section or bound it",
                    )
                )
            for desc, line, col, lock_id in lf.callbacks_under_lock:
                diagnostics.append(
                    self.diag(
                        file,
                        line,
                        col,
                        f"{desc} runs foreign code while holding "
                        f"'{_short(lock_id)}'; hoist it out of the "
                        "critical section",
                    )
                )

        # Pass 2: inconsistent global ordering.
        for (a, b), witnesses in sorted(pairs.items()):
            if a >= b:
                continue  # handle each unordered pair once, from (A<B)
            back = pairs.get((b, a))
            if not back:
                continue
            w_ab = witnesses[0]
            w_ba = back[0]
            for (qname, line, how), (oq, oline, ohow), first, second in (
                (w_ab, w_ba, a, b),
                (w_ba, w_ab, b, a),
            ):
                fn = symbols.functions.get(qname)
                if fn is None:
                    continue
                file = files_by_path.get(fn.file.path, fn.file)
                diagnostics.append(
                    self.diag(
                        file,
                        line,
                        0,
                        f"inconsistent lock order: '{_short(first)}' then "
                        f"'{_short(second)}' here ({how}), but the opposite "
                        f"order at {_loc(symbols, oq, oline)} ({ohow}) — "
                        "pick one global order",
                    )
                )
        yield from diagnostics


def _short(qname: str) -> str:
    return ".".join(qname.split(".")[-2:])


def _loc(symbols: SymbolTable, qname: str, line: int) -> str:
    fn = symbols.functions.get(qname)
    if fn is None:
        return f"{qname}:{line}"
    return f"{fn.file.path}:{line}"
