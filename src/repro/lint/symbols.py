"""Project-wide symbol table for the whole-program lint rules.

This module turns a :class:`repro.lint.source.Project` into a resolved
view of the program: every module keyed by its dotted name, every class
with its methods, base classes, and the instance attributes that matter
to the rules (locks, injected callables), and every function — including
methods and nested functions — under a stable *qualified name* such as
``repro.ipc.server.HarpSocketServer.push``.

Module names are derived from paths using the repository's layout
anchors: anything under ``src/`` maps to its import name
(``src/repro/sim/engine.py`` → ``repro.sim.engine``), while ``tests``,
``benchmarks``, and ``examples`` keep their directory as a prefix
(``tests/fixtures/lint/x.py`` → ``tests.fixtures.lint.x``).  Imports are
resolved *by suffix* against the table, so ``from hl010_helpers import
leak`` inside a fixture finds ``tests.fixtures.lint.hl010_helpers`` and
``from repro.obs import OBS`` finds the real package module.

The :class:`ProjectIndex` bundles the symbol table with the call graph
(:mod:`repro.lint.callgraph`); :meth:`Project.index` builds one per
project.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import PurePath

from repro.lint.asthelpers import annotation_name, dotted_name
from repro.lint.source import Project, SourceFile

#: Directory anchors recognized when deriving module names from paths.
_ANCHORS = ("src", "tests", "benchmarks", "examples")

#: Kinds recorded for lock-typed instance attributes.
LOCK_KINDS = {"Lock": "lock", "RLock": "rlock"}


def module_name_for(path: str) -> str:
    """Dotted module name for a file path (see module docstring)."""
    parts = list(PurePath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] in _ANCHORS:
            if parts[i] == "src":
                return ".".join(parts[i + 1 :])
            return ".".join(parts[i:])
    return parts[-1] if parts else ""


@dataclass
class FunctionInfo:
    """One function, method, or nested function in the project."""

    qname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    file: SourceFile
    class_qname: str | None = None

    @property
    def pure_wall_time(self) -> bool:
        """Does the ``def`` header carry ``# harplint: pure-wall-time``?

        The pragma counts when it sits on the line before the ``def``, on
        the ``def`` line itself, or on any header line up to the first
        statement (covers multi-line signatures).
        """
        first = self.node.body[0].lineno if self.node.body else self.node.lineno
        return any(
            line in self.file.pure_wall_time_lines
            for line in range(self.node.lineno - 1, first + 1)
        )


@dataclass
class ClassInfo:
    """One class: methods, written base names, and notable attributes."""

    qname: str
    module: str
    name: str
    node: ast.ClassDef
    file: SourceFile
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Instance attrs assigned from ``threading.Lock()`` / ``RLock()``:
    #: attr name -> "lock" | "rlock".
    lock_attrs: dict[str, str] = field(default_factory=dict)
    #: Instance attrs holding *injected* callables — assigned in a method
    #: from a parameter whose annotation resolves to ``Callable``.
    callable_attrs: set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """One module: imports, top-level defs, and type-alias assignments."""

    name: str
    file: SourceFile
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Module-level ``X = <subscripted name>`` aliases (``Handler =
    #: Callable[...]``): alias -> trailing name of the aliased expression.
    aliases: dict[str, str] = field(default_factory=dict)


class SymbolTable:
    """All modules/classes/functions of a project, with name resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: Suffix-match memo for :meth:`resolve_module`; resolution only
        #: starts once every module is in the table.
        self._by_suffix: dict[str, ModuleInfo | None] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, project: Project) -> "SymbolTable":
        table = cls()
        for file in project.files:
            if file.tree is None:
                continue
            table._add_module(file)
        return table

    def _add_module(self, file: SourceFile) -> None:
        name = module_name_for(file.path)
        module = ModuleInfo(name=name, file=file)
        # Last writer wins on duplicate names (e.g. two conftest.py); the
        # rules only need *a* consistent view.
        self.modules[name] = module
        assert file.tree is not None
        for node in file.tree.body:
            self._collect_statement(module, node, prefix=name, class_info=None)

    def _collect_statement(
        self,
        module: ModuleInfo,
        node: ast.stmt,
        prefix: str,
        class_info: ClassInfo | None,
    ) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                # ``import a.b`` binds ``a`` but makes ``a.b`` reachable;
                # map the bound name to its own dotted prefix and let
                # dotted resolution walk the rest.
                module.imports[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom):
            base = self._import_base(module, node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                module.imports[bound] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._collect_function(module, node, prefix, class_info)
        elif isinstance(node, ast.ClassDef):
            self._collect_class(module, node, prefix)
        elif isinstance(node, ast.Assign) and class_info is None:
            # Module-level type aliases: ``Handler = Callable[[...], ...]``.
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Subscript)
            ):
                target_name = annotation_name(node.value)
                if target_name is not None:
                    module.aliases[node.targets[0].id] = target_name

    def _import_base(self, module: ModuleInfo, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        # Relative import: resolve against the current package.
        parts = module.name.split(".")
        # A module's package is its name minus the last segment.
        keep = len(parts) - node.level
        base_parts = parts[:keep] if keep > 0 else []
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)

    def _collect_function(
        self,
        module: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
        class_info: ClassInfo | None,
    ) -> None:
        qname = f"{prefix}.{node.name}"
        info = FunctionInfo(
            qname=qname,
            module=module.name,
            name=node.name,
            node=node,
            file=module.file,
            class_qname=class_info.qname if class_info else None,
        )
        self.functions[qname] = info
        if class_info is not None:
            class_info.methods[node.name] = info
            self._scan_attr_assignments(class_info, node)
        elif "." not in qname[len(module.name) + 1 :]:
            module.functions[node.name] = info
        for child in node.body:
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self._collect_statement(module, child, qname, None)

    def _collect_class(
        self, module: ModuleInfo, node: ast.ClassDef, prefix: str
    ) -> None:
        qname = f"{prefix}.{node.name}"
        info = ClassInfo(
            qname=qname,
            module=module.name,
            name=node.name,
            node=node,
            file=module.file,
            bases=[
                b for b in (dotted_name(base) for base in node.bases) if b
            ],
        )
        self.classes[qname] = info
        if prefix == module.name:
            module.classes[node.name] = info
        for child in node.body:
            self._collect_statement(module, child, qname, info)

    def _scan_attr_assignments(
        self, class_info: ClassInfo, method: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        """Record ``self.X = threading.Lock()`` and injected callables."""
        callable_params = set()
        args = method.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            ann = annotation_name(arg.annotation)
            if ann is None:
                continue
            module = self.modules.get(class_info.module)
            if module is not None:
                ann = module.aliases.get(ann, ann)
            if ann == "Callable":
                callable_params.add(arg.arg)
        for node in ast.walk(method):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if isinstance(value, ast.Call):
                    ctor = dotted_name(value.func)
                    leaf = ctor.split(".")[-1] if ctor else None
                    if leaf in LOCK_KINDS:
                        class_info.lock_attrs[attr] = LOCK_KINDS[leaf]
                elif isinstance(value, ast.Name) and value.id in callable_params:
                    class_info.callable_attrs.add(attr)
                if isinstance(target, ast.Attribute) and isinstance(
                    node, ast.AnnAssign
                ):
                    ann = annotation_name(node.annotation)
                    if ann == "Callable":
                        class_info.callable_attrs.add(attr)

    # -- resolution ----------------------------------------------------------

    def resolve_module(self, dotted: str) -> ModuleInfo | None:
        """Module by exact dotted name, else unique suffix match."""
        module = self.modules.get(dotted)
        if module is not None:
            return module
        if dotted not in self._by_suffix:
            suffix = "." + dotted
            matches = [
                m for name, m in self.modules.items() if name.endswith(suffix)
            ]
            self._by_suffix[dotted] = matches[0] if len(matches) == 1 else None
        return self._by_suffix[dotted]

    def resolve_dotted(
        self, dotted: str, from_module: str
    ) -> FunctionInfo | ClassInfo | ModuleInfo | None:
        """Resolve a dotted name as written in ``from_module``.

        Handles import aliases (``np`` → ``numpy``), module attributes
        (``protocol.send_message``), classes, class attributes
        (``FrameCodec.encode``), and plain module-local names.
        """
        module = self.modules.get(from_module)
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        if module is not None:
            if head in module.imports:
                return self._resolve_absolute(
                    ".".join([module.imports[head]] + rest)
                )
            local = module.functions.get(head) or module.classes.get(head)
            if local is not None:
                if not rest:
                    return local
                if isinstance(local, ClassInfo):
                    return self._walk_attrs(local, rest)
                return None
        return self._resolve_absolute(dotted)

    def _resolve_absolute(
        self, dotted: str
    ) -> FunctionInfo | ClassInfo | ModuleInfo | None:
        """Resolve a fully-substituted dotted name against the table."""
        parts = dotted.split(".")
        # Longest module prefix first, then walk attributes.
        for cut in range(len(parts), 0, -1):
            module = self.resolve_module(".".join(parts[:cut]))
            if module is None:
                continue
            rest = parts[cut:]
            if not rest:
                return module
            entry: FunctionInfo | ClassInfo | None = (
                module.functions.get(rest[0]) or module.classes.get(rest[0])
            )
            if entry is None:
                return None
            if len(rest) == 1:
                return entry
            if isinstance(entry, ClassInfo):
                return self._walk_attrs(entry, rest[1:])
            return None
        return None

    def _walk_attrs(
        self, entry: ClassInfo, rest: list[str]
    ) -> FunctionInfo | ClassInfo | None:
        for part in rest:
            if not isinstance(entry, ClassInfo):
                return None
            found = self.resolve_method(entry.qname, part)
            if found is None:
                return None
            entry = found  # type: ignore[assignment]
        return entry

    def iter_mro(self, class_qname: str):
        """The class plus its project-resolvable bases, depth first."""
        seen: set[str] = set()
        stack = [class_qname]
        while stack:
            qname = stack.pop(0)
            if qname in seen:
                continue
            seen.add(qname)
            info = self.classes.get(qname)
            if info is None:
                continue
            yield info
            for base in info.bases:
                resolved = self.resolve_dotted(base, info.module)
                if isinstance(resolved, ClassInfo):
                    stack.append(resolved.qname)

    def resolve_method(
        self, class_qname: str, name: str
    ) -> FunctionInfo | None:
        """Method lookup through the project-visible MRO."""
        for info in self.iter_mro(class_qname):
            method = info.methods.get(name)
            if method is not None:
                return method
        return None

    def class_of(self, qname: str) -> ClassInfo | None:
        fn = self.functions.get(qname)
        if fn is None or fn.class_qname is None:
            return None
        return self.classes.get(fn.class_qname)


@dataclass
class ProjectIndex:
    """Symbol table + call graph, built once per project."""

    symbols: SymbolTable
    callgraph: "object"  # repro.lint.callgraph.CallGraph
    #: Build cost, reported by ``harplint --stats``.
    build_seconds: float = 0.0

    @classmethod
    def build(cls, project: Project) -> "ProjectIndex":
        from repro.lint.callgraph import CallGraph

        t0 = time.perf_counter()
        symbols = SymbolTable.build(project)
        callgraph = CallGraph.build(symbols)
        return cls(
            symbols=symbols,
            callgraph=callgraph,
            build_seconds=time.perf_counter() - t0,
        )
