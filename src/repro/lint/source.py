"""Source-file loading, role classification, and suppression parsing.

Rules operate on a :class:`Project` — the set of parsed files plus their
*roles*:

* ``src`` — production code under ``src/repro/`` (rules apply fully);
* ``test`` — test modules (the reference corpus for HL004, otherwise
  exempt from the style-of-hazard rules);
* ``fixture`` — lint test fixtures, treated like ``src`` so each rule's
  positive/negative cases can live in ordinary files.

A suppression is an inline comment naming the codes it silences on its
own line::

    rng = np.random.default_rng()  # harplint: disable=HL001 -- CI jitter probe

The one other directive is HL010's ``# harplint: pure-wall-time`` pragma
on a function header.  Any other ``harplint:`` comment is ignored.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

ROLE_SRC = "src"
ROLE_TEST = "test"
ROLE_FIXTURE = "fixture"

_SUPPRESS_RE = re.compile(
    r"#\s*harplint:\s*disable\s*=\s*([A-Za-z0-9_,\s]+?)\s*(?:--|$)"
)
_PURE_WALL_TIME_RE = re.compile(r"#\s*harplint:\s*pure-wall-time")


def classify_role(path: str | Path) -> str:
    """Default role for a path: fixtures > tests > src."""
    parts = Path(path).parts
    name = Path(path).name
    if "fixtures" in parts:
        return ROLE_FIXTURE
    if name.startswith("test_") or name == "conftest.py" or "tests" in parts:
        return ROLE_TEST
    return ROLE_SRC


def _comments(text: str) -> list[tuple[int, str]]:
    """``(line, comment_text)`` for every comment token in ``text``."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        return [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return [
            (i, line)
            for i, line in enumerate(text.splitlines(), start=1)
            if "#" in line
        ]


def _parse_directives(text: str) -> tuple[dict[int, set[str]], set[int]]:
    """``(line -> {suppressed codes}, pure-wall-time pragma lines)``.

    Only files mentioning ``harplint`` can hold a directive, so the rest
    skip tokenizing entirely.
    """
    per_line: dict[int, set[str]] = {}
    pure_wall_time: set[int] = set()
    if "harplint" not in text:
        return per_line, pure_wall_time
    for lineno, comment in _comments(text):
        match = _SUPPRESS_RE.search(comment)
        if match:
            codes = {c.strip().upper() for c in match.group(1).split(",")}
            per_line.setdefault(lineno, set()).update(codes - {""})
        elif _PURE_WALL_TIME_RE.search(comment):
            pure_wall_time.add(lineno)
    return per_line, pure_wall_time


def parse_suppressions(text: str) -> dict[int, set[str]]:
    """``line -> {codes}`` for every ``disable=`` comment in ``text``."""
    return _parse_directives(text)[0]


@dataclass
class SourceFile:
    """A parsed module plus everything rules need to know about it."""

    path: str
    text: str
    tree: ast.Module | None
    role: str
    parse_error: str | None = None
    parse_error_line: int = 1
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: Lines carrying a ``# harplint: pure-wall-time`` pragma (HL010).
    pure_wall_time_lines: set[int] = field(default_factory=set)

    @classmethod
    def load(cls, path: str | Path, role: str | None = None) -> "SourceFile":
        """Read and parse ``path``."""
        return cls.from_text(
            str(path), Path(path).read_text(encoding="utf-8"), role=role
        )

    @classmethod
    def from_text(
        cls, path: str, text: str, role: str | None = None
    ) -> "SourceFile":
        if role is None:
            role = classify_role(path)
        tree: ast.Module | None = None
        error: str | None = None
        error_line = 1
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            error = exc.msg or "syntax error"
            error_line = exc.lineno or 1
        suppressions, pure_wall_time = _parse_directives(text)
        return cls(
            path=path,
            text=text,
            tree=tree,
            role=role,
            parse_error=error,
            parse_error_line=error_line,
            suppressions=suppressions,
            pure_wall_time_lines=pure_wall_time,
        )

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the parsed tree in ``ast.walk`` order: walked once,
        shared by the per-file rules."""
        assert self.tree is not None
        return list(ast.walk(self.tree))

    def is_suppressed(self, code: str, line: int) -> bool:
        return code.upper() in self.suppressions.get(line, ())


class Project:
    """The full file set a lint run sees (cross-file rules need it all)."""

    def __init__(self, files: list[SourceFile]):
        self.files = files
        self._index = None

    def index(self):
        """The whole-program :class:`repro.lint.symbols.ProjectIndex`.

        Built lazily on first use and shared by every rule in the run
        (HL010 and HL011 both walk the same call graph).  The import is
        local to break the source ↔ symbols module cycle.
        """
        if self._index is None:
            from repro.lint.symbols import ProjectIndex

            self._index = ProjectIndex.build(self)
        return self._index

    def lintable_files(self) -> list[SourceFile]:
        """Files the hazard rules walk: src and fixture roles, parsed OK."""
        return [
            f
            for f in self.files
            if f.role in (ROLE_SRC, ROLE_FIXTURE) and f.tree is not None
        ]

    def test_files(self) -> list[SourceFile]:
        """The reference corpus for coverage rules (HL004)."""
        return [f for f in self.files if f.role == ROLE_TEST and f.tree is not None]
