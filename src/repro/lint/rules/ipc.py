"""HL005 — IPC conformance: every message class round-trips the codec.

The libharp ↔ RM protocol dispatches messages by their ``TYPE`` tag
through a registry (``_MESSAGE_TYPES`` in ``ipc/messages.py``), which the
frame codec in ``ipc/protocol.py`` uses for both encode and decode.  A
message dataclass that is defined but never registered encodes fine (the
generic ``to_dict`` path) and then *fails to decode on the peer* — the
asymmetry only surfaces at runtime on the first real send.

For every module defining subclasses of ``Message``, the rule checks:

* each subclass is referenced from a ``*MESSAGE_TYPES*`` registry
  assignment in the same file (or a sibling module in the same package);
* no two subclasses claim the same ``TYPE`` tag;
* the package actually has ``encode_message`` and ``decode_message``
  functions wired to the registry.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register
from repro.lint.source import Project, SourceFile

_BASE = "Message"
_REGISTRY_MARK = "MESSAGE_TYPES"
_CODEC_FUNCS = {"encode_message", "decode_message"}


def _message_subclasses(nodes: list[ast.AST]) -> list[ast.ClassDef]:
    out = []
    for node in nodes:
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            name = (
                base.id
                if isinstance(base, ast.Name)
                else base.attr
                if isinstance(base, ast.Attribute)
                else None
            )
            if name == _BASE:
                out.append(node)
                break
    return out


def _type_tag(cls: ast.ClassDef) -> str | None:
    for node in cls.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "TYPE" for t in node.targets
            )
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            return node.value.value
    return None


def _registry_names(nodes: list[ast.AST]) -> tuple[set[str], bool]:
    """(class names referenced from registry assignments, registry found)."""
    names: set[str] = set()
    found = False
    for node in nodes:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if not any(
            isinstance(t, ast.Name) and _REGISTRY_MARK in t.id for t in targets
        ):
            continue
        found = True
        if node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names, found


def _defined_functions(nodes: list[ast.AST]) -> set[str]:
    return {
        node.name
        for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


@register
class IpcConformanceRule(Rule):
    code = "HL005"
    name = "ipc-conformance"
    rationale = (
        "A Message subclass missing from the codec registry encodes but "
        "never decodes; the protocol breaks on the first real send."
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        lintable = project.lintable_files()
        by_dir: dict[str, list[SourceFile]] = {}
        for file in lintable:
            by_dir.setdefault(str(Path(file.path).parent), []).append(file)

        for file in lintable:
            subclasses = _message_subclasses(file.nodes)
            if not subclasses:
                continue
            siblings = by_dir[str(Path(file.path).parent)]

            registry, found = _registry_names(file.nodes)
            if not found:
                for sibling in siblings:
                    names, sib_found = _registry_names(sibling.nodes)
                    if sib_found:
                        registry |= names
                        found = True
            if not found:
                yield self.diag(
                    file,
                    subclasses[0].lineno,
                    subclasses[0].col_offset,
                    "Message subclasses defined but no *MESSAGE_TYPES* "
                    "registry found in this package; the codec cannot "
                    "decode them",
                )
            else:
                for cls in subclasses:
                    if cls.name not in registry:
                        yield self.diag(
                            file,
                            cls.lineno,
                            cls.col_offset,
                            f"message class '{cls.name}' is not registered "
                            "in the *MESSAGE_TYPES* codec registry; it "
                            "encodes but cannot be decoded by the peer",
                        )

            tags: dict[str, str] = {}
            for cls in subclasses:
                tag = _type_tag(cls)
                if tag is None:
                    yield self.diag(
                        file,
                        cls.lineno,
                        cls.col_offset,
                        f"message class '{cls.name}' has no literal TYPE "
                        "tag; the registry dispatches on TYPE",
                    )
                    continue
                if tag in tags:
                    yield self.diag(
                        file,
                        cls.lineno,
                        cls.col_offset,
                        f"message class '{cls.name}' reuses TYPE tag "
                        f"{tag!r} already claimed by '{tags[tag]}'; decode "
                        "dispatch is ambiguous",
                    )
                else:
                    tags[tag] = cls.name

            if found:
                codec_funcs: set[str] = set()
                for sibling in siblings:
                    codec_funcs |= _defined_functions(sibling.nodes)
                missing = _CODEC_FUNCS - codec_funcs
                if missing:
                    yield self.diag(
                        file,
                        subclasses[0].lineno,
                        subclasses[0].col_offset,
                        "message package lacks codec path(s): "
                        + ", ".join(sorted(missing)),
                    )
