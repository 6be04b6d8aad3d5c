"""Whole-program call graph over the lint symbol table.

For every function in the project this module resolves the calls its
body makes to other *project* functions, producing a directed graph the
interprocedural rules (HL010 determinism-taint, HL011 lock-discipline)
and the dataflow engine walk.  Resolution is intentionally conservative:
an edge is only added when the callee can be pinned to a concrete
project function, through one of

* plain names — module-local functions, nested functions, and imported
  names (including ``from m import f as g`` aliases);
* dotted module access — ``protocol.send_message(...)`` via the import
  table, ``repro.a.b.f(...)`` absolutely;
* ``self.m()`` / ``cls.m()`` — resolved through the enclosing class and
  its project-visible MRO;
* annotated receivers — ``x.m()`` where ``x`` is a parameter or local
  whose type annotation (or direct ``x = ClassName(...)`` construction)
  names a project class;
* constructor calls — ``ClassName(...)`` edges to ``ClassName.__init__``
  when it exists.

Anything else (duck-typed receivers, callables held in containers,
``getattr``) is left unresolved — the rules treat absence of an edge as
absence of knowledge, never as proof of safety for the patterns they
check directly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.asthelpers import annotation_name, dotted_name
from repro.lint.symbols import ClassInfo, FunctionInfo, SymbolTable


@dataclass(frozen=True)
class CallSite:
    """One resolved call: caller → callee at a source position."""

    caller: str
    callee: str
    line: int
    col: int


def own_body_nodes(node: ast.AST):
    """Walk a function body without descending into nested defs/lambdas.

    Nested functions are separate call-graph nodes; a call *inside* a
    nested def happens when the closure runs, not when the outer function
    does, so their bodies must not leak into the outer function's facts.
    """
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    stack: list[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.append(child)


class CallGraph:
    """Resolved project-internal call edges, forward and reverse."""

    def __init__(self, symbols: SymbolTable):
        self.symbols = symbols
        self.edges: dict[str, list[CallSite]] = {}
        self.reverse: dict[str, list[CallSite]] = {}

    @classmethod
    def build(cls, symbols: SymbolTable) -> "CallGraph":
        graph = cls(symbols)
        for fn in symbols.functions.values():
            graph._resolve_function(fn)
        return graph

    # -- queries -------------------------------------------------------------

    def callees(self, qname: str) -> list[CallSite]:
        return self.edges.get(qname, [])

    def callers(self, qname: str) -> list[CallSite]:
        return self.reverse.get(qname, [])

    # -- construction --------------------------------------------------------

    def _add_edge(self, site: CallSite) -> None:
        self.edges.setdefault(site.caller, []).append(site)
        self.reverse.setdefault(site.callee, []).append(site)

    def _resolve_function(self, fn: FunctionInfo) -> None:
        env = self._local_types(fn)
        for node in own_body_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee = self.resolve_call(fn, node, env)
            if callee is None:
                continue
            self._add_edge(
                CallSite(
                    caller=fn.qname,
                    callee=callee.qname,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )

    def _local_types(self, fn: FunctionInfo) -> dict[str, ClassInfo]:
        """name -> project class, from annotations and constructions."""
        env: dict[str, ClassInfo] = {}
        args = fn.node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            ann = annotation_name(arg.annotation)
            if ann is None:
                continue
            resolved = self.symbols.resolve_dotted(ann, fn.module)
            if isinstance(resolved, ClassInfo):
                env[arg.arg] = resolved
        for node in own_body_nodes(fn.node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.AnnAssign):
                target = node.target
                ann = annotation_name(node.annotation)
                if isinstance(target, ast.Name) and ann is not None:
                    resolved = self.symbols.resolve_dotted(ann, fn.module)
                    if isinstance(resolved, ClassInfo):
                        env[target.id] = resolved
                continue
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
            ):
                ctor = dotted_name(value.func)
                if ctor is not None:
                    resolved = self.symbols.resolve_dotted(ctor, fn.module)
                    if isinstance(resolved, ClassInfo):
                        env[target.id] = resolved
        return env

    def resolve_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict[str, ClassInfo] | None = None,
    ) -> FunctionInfo | None:
        """The project function a call dispatches to, or None."""
        if env is None:
            env = self._local_types(fn)
        name = dotted_name(call.func)
        if name is None:
            return None
        parts = name.split(".")
        head, rest = parts[0], parts[1:]

        # self.m() / cls.m() through the enclosing class's MRO.
        if head in ("self", "cls") and fn.class_qname is not None and rest:
            return self._walk_method_chain(fn.class_qname, rest)

        # Annotated or constructed receiver: x.m().
        if rest and head in env:
            return self._walk_method_chain(env[head].qname, rest)

        # Nested function defined in this (or an enclosing) function.
        if not rest:
            scope = fn.qname
            while "." in scope:
                nested = self.symbols.functions.get(f"{scope}.{head}")
                if nested is not None:
                    return nested
                scope = scope.rsplit(".", 1)[0]

        resolved = self.symbols.resolve_dotted(name, fn.module)
        if isinstance(resolved, FunctionInfo):
            return resolved
        if isinstance(resolved, ClassInfo):
            # Constructor call: edge into __init__ when the project has it.
            return self.symbols.resolve_method(resolved.qname, "__init__")
        return None

    def _walk_method_chain(
        self, class_qname: str, rest: list[str]
    ) -> FunctionInfo | None:
        """Resolve ``<class>.a.b()`` — only single-step method lookups."""
        if len(rest) != 1:
            return None
        return self.symbols.resolve_method(class_qname, rest[0])
