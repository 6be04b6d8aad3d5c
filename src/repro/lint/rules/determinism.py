"""HL001 — determinism: no unseeded or process-salted entropy sources.

HARP's headline numbers (Fig. 5–8) and the PR 1 reference-vs-vectorized
property tests are only meaningful if every run of the same scenario
produces the same trace.  The simulator therefore threads explicit seeds
through every RNG.  This rule forbids the entropy sources that silently
break that contract:

* ``np.random.default_rng()`` with no seed argument;
* the legacy global numpy RNG (``np.random.seed`` / ``np.random.rand`` …);
* the stdlib ``random`` module (global, process-level state);
* wall-clock reads — ``time.time()``, ``datetime.now()``/``utcnow()`` —
  which make measurements depend on when, not what, you ran;
* the builtin ``hash()`` feeding a seed: string hashing is salted per
  process (``PYTHONHASHSEED``), so ``default_rng(hash(key))`` gives every
  worker a different stream (the exact bug fixed in
  ``analysis/experiments.py``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.asthelpers import dotted_name
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import FileRule, register
from repro.lint.source import SourceFile

# np.random attributes that are part of the seedable Generator API and
# therefore fine to reference.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}

#: The kinds :func:`entropy_source` returns.  HL001 reports them at the
#: line; HL010 only reports them when they arrive through a call chain.
LOCAL_KINDS = frozenset({"rng", "stdlib-random", "wall-clock-hl001"})


@dataclass(frozen=True)
class EntropySource:
    """One entropy-reading call, as both determinism rules see it."""

    kind: str  #: HL010 fact kind (one of :data:`LOCAL_KINDS`)
    detail: str  #: HL010's short description of the source
    message: str  #: HL001's diagnostic


def imports_stdlib_random(file: SourceFile) -> bool:
    """Does the module ``import random`` (so ``random.x()`` is stdlib)?"""
    return any(
        isinstance(node, ast.Import)
        and any(alias.name == "random" for alias in node.names)
        for node in file.nodes
    )


def entropy_source(
    call: ast.Call, name: str, imports_random: bool
) -> EntropySource | None:
    """The shared entropy table: unseeded ``default_rng()``,
    ``time.time``, ``datetime.now``-style reads, and stdlib ``random.*``.

    ``name`` is the dotted callee; ``imports_random`` comes from
    :func:`imports_stdlib_random` for the call's module.
    """
    parts = name.split(".")
    leaf = parts[-1]
    if leaf == "default_rng":
        if call.args or call.keywords:
            return None
        return EntropySource(
            "rng",
            "unseeded np.random.default_rng()",
            "np.random.default_rng() without a seed draws OS entropy; pass "
            "an explicit seed",
        )
    if name in ("time.time", "time.time_ns"):
        return EntropySource(
            "wall-clock-hl001",
            f"wall-clock {name}()",
            "wall-clock time.time() in simulation/analysis code makes "
            "results depend on when the run happened; thread the "
            "simulated clock or an explicit timestamp through instead",
        )
    if leaf in ("now", "utcnow", "today") and len(parts) >= 2 and (
        parts[-2] in ("datetime", "date")
    ):
        return EntropySource(
            "wall-clock-hl001",
            f"wall-clock {name}()",
            f"wall-clock {name}() is nondeterministic; pass timestamps "
            "in explicitly",
        )
    if imports_random and parts[0] == "random" and len(parts) == 2:
        return EntropySource(
            "stdlib-random",
            f"stdlib random.{leaf}()",
            f"stdlib 'random.{leaf}' uses unseeded process-global "
            "state; use a seeded np.random.default_rng(seed)",
        )
    return None


@register
class DeterminismRule(FileRule):
    code = "HL001"
    name = "determinism"
    rationale = (
        "Unseeded RNGs, the stdlib random module, wall-clock reads, and "
        "salted builtin hash() as a seed make runs irreproducible."
    )

    def check_file(self, file: SourceFile) -> Iterator[Diagnostic]:
        assert file.tree is not None
        imports_random = imports_stdlib_random(file)
        for node in file.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.diag(
                    file,
                    node.lineno,
                    node.col_offset,
                    "import from the stdlib 'random' module: its global "
                    "state is unseeded per process; use a seeded "
                    "np.random.default_rng(seed) instead",
                )
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            yield from self._check_call(file, node, name, imports_random)

    def _check_call(
        self,
        file: SourceFile,
        node: ast.Call,
        name: str,
        imports_random: bool,
    ) -> Iterator[Diagnostic]:
        source = entropy_source(node, name, imports_random)
        if source is not None:
            yield self.diag(file, node.lineno, node.col_offset, source.message)
            return
        parts = name.split(".")
        leaf = parts[-1]
        if leaf == "default_rng":
            yield from self._check_seed_exprs(
                file, list(node.args) + [kw.value for kw in node.keywords]
            )
            return
        if len(parts) >= 2 and parts[-2] == "random" and parts[0] != "random":
            # np.random.<legacy> (module-global numpy RNG).
            if leaf not in _NP_RANDOM_OK:
                yield self.diag(
                    file,
                    node.lineno,
                    node.col_offset,
                    f"legacy global numpy RNG 'np.random.{leaf}'; use a "
                    "seeded np.random.default_rng(seed) generator",
                )
            return
        for kw in node.keywords:
            if kw.arg == "seed":
                yield from self._check_seed_exprs(file, [kw.value])

    def _check_seed_exprs(
        self, file: SourceFile, exprs: list[ast.expr]
    ) -> Iterator[Diagnostic]:
        """Flag builtin hash() anywhere inside a seed expression."""
        for expr in exprs:
            for sub in ast.walk(expr):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "hash"
                ):
                    yield self.diag(
                        file,
                        sub.lineno,
                        sub.col_offset,
                        "builtin hash() as a seed is salted per process "
                        "(PYTHONHASHSEED); derive seeds from a stable "
                        "digest such as zlib.crc32 over a canonical string",
                    )
