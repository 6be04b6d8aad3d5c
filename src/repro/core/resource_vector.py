"""Extended resource vectors (§4.1.2).

A coarse-grained operating point describes its resource requirement with an
*extended resource vector* (ERV): for each core type, how many cores are
used at each hardware-thread occupancy level.  The paper's example on
Raptor Lake — "4 E-cores and 3 P-cores where two P-cores use two hardware
threads and the third only one" — is the vector [1, 2, 4]ᵀ with components
(P-cores @1 thread, P-cores @2 threads, E-cores @1 thread).

The component layout is derived from the platform: for each core type in
platform order, one component per occupancy level 1..smt.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.platform.topology import Platform


@dataclass(frozen=True)
class ErvComponent:
    """One component of the ERV layout: a (core type, occupancy) pair."""

    core_type: str
    threads_used: int


class ErvLayout:
    """The component ordering of extended resource vectors on a platform."""

    def __init__(self, platform: Platform):
        self.platform: Platform = platform
        self.components: tuple[ErvComponent, ...] = tuple(
            ErvComponent(ct.name, used)
            for ct in platform.core_types
            for used in range(1, ct.smt + 1)
        )
        self._index: dict[tuple[str, int], int] = {
            (c.core_type, c.threads_used): i
            for i, c in enumerate(self.components)
        }
        self._erv_index: ErvIndex | None = None

    def __len__(self) -> int:
        return len(self.components)

    def index(self) -> "ErvIndex":
        """The layout's :class:`ErvIndex`, built on first use."""
        if self._erv_index is None:
            self._erv_index = ErvIndex(self)
        return self._erv_index

    def space_size(self) -> int:
        """Number of non-empty feasible ERVs, without enumerating them.

        A core type with ``c`` cores and ``s`` occupancy levels admits
        C(c + s, s) count tuples summing to at most ``c``; the space is
        their product, minus the empty allocation.
        """
        return math.prod(
            math.comb(self.platform.count_of_type(ct.name) + ct.smt, ct.smt)
            for ct in self.platform.core_types
        ) - 1

    def type_projection(self) -> np.ndarray:
        """(components × core types) 0/1 matrix mapping ERV counts to cores.

        ``erv_counts @ type_projection()`` equals ``erv.core_vector()`` for
        every ERV of this layout; :class:`ErvIndex` builds its core-vector
        matrix with it in one matmul instead of per-point Python.
        """
        if not hasattr(self, "_type_projection"):
            types = [ct.name for ct in self.platform.core_types]
            proj = np.zeros((len(self.components), len(types)))
            for i, comp in enumerate(self.components):
                proj[i, types.index(comp.core_type)] = 1.0
            self._type_projection = proj
        return self._type_projection

    def index_of(self, core_type: str, threads_used: int) -> int:
        """Component index of the (core type, occupancy) pair."""
        try:
            return self._index[(core_type, threads_used)]
        except KeyError:
            raise KeyError(
                f"no ERV component for {core_type}@{threads_used}"
            ) from None

    def zero(self) -> "ExtendedResourceVector":
        """The empty allocation."""
        return ExtendedResourceVector(self, (0,) * len(self.components))

    def make(self, **counts: int) -> "ExtendedResourceVector":
        """Build an ERV from keyword counts.

        Component keys are ``<type>`` for single-thread occupancy and
        ``<type><n>`` for n-thread occupancy, e.g. ``make(P1=1, P2=2, E=4)``
        or ``make(big=2, LITTLE=4)``.
        """
        values = [0] * len(self.components)
        for key, count in counts.items():
            matched = False
            for i, comp in enumerate(self.components):
                names = {comp.core_type + str(comp.threads_used)}
                if comp.threads_used == 1:
                    names.add(comp.core_type)
                if key in names:
                    values[i] = count
                    matched = True
                    break
            if not matched:
                raise KeyError(f"unknown ERV component key {key!r}")
        return ExtendedResourceVector(self, tuple(values))

    def from_counts(self, counts: dict[tuple[str, int], int]) -> "ExtendedResourceVector":
        """Build an ERV from a {(core_type, threads_used): count} mapping."""
        values = [0] * len(self.components)
        for (core_type, used), count in counts.items():
            values[self.index_of(core_type, used)] = count
        return ExtendedResourceVector(self, tuple(values))

    def enumerate_all(self, include_empty: bool = False) -> list["ExtendedResourceVector"]:
        """Enumerate every feasible ERV on the platform.

        Feasibility: for each core type, the summed core count across its
        occupancy components must not exceed the number of cores of that
        type.  This is the coarse-grained configuration space that HARP's
        runtime exploration searches.
        """
        per_type_choices: list[list[tuple[int, ...]]] = []
        for ct in self.platform.core_types:
            capacity = self.platform.count_of_type(ct.name)
            levels = ct.smt
            choices = [
                combo
                for combo in itertools.product(
                    range(capacity + 1), repeat=levels
                )
                if sum(combo) <= capacity
            ]
            per_type_choices.append(choices)
        vectors = []
        for parts in itertools.product(*per_type_choices):
            flat = tuple(itertools.chain.from_iterable(parts))
            if not include_empty and sum(flat) == 0:
                continue
            vectors.append(ExtendedResourceVector(self, flat))
        return vectors


class ErvIndex:
    """Every ERV of a layout as one row of a counts and a core-vector matrix.

    Rows ``0 .. len(index) - 1`` hold the layout's non-empty feasible
    space in :meth:`ErvLayout.enumerate_all` order (``ervs``).  An ERV
    outside that space — the empty allocation, or one over the platform's
    capacity — gets an extra row the first time :meth:`row` meets it, so
    every ERV of the layout has a row and equal ERVs share one.  The RM's
    per-epoch table work (point filters, exploration candidates,
    regression features, allocator rows) runs as numpy masks and slices
    over these matrices instead of per-point Python.

    Read the matrices after calling :meth:`rows` or :meth:`row`: an
    extra row replaces them.
    """

    def __init__(self, layout: ErvLayout):
        self.ervs: tuple[ExtendedResourceVector, ...] = tuple(
            layout.enumerate_all()
        )
        # Keyed by the counts tuple: it identifies an ERV within a layout
        # and hashes in C, where ERV keys call ``__hash__`` in Python.
        self.row_of: dict[tuple[int, ...], int] = {
            erv.counts: i for i, erv in enumerate(self.ervs)
        }
        self._projection = layout.type_projection()
        #: (rows × components) ERV counts, as float regression features.
        self.counts: np.ndarray = np.array(
            [erv.counts for erv in self.ervs], dtype=float
        ).reshape(len(self.ervs), len(layout))
        #: (rows × core types) cores used per type: stacked core_vector()s.
        self.cores: np.ndarray = self.counts @ self._projection
        #: Per row, the id of its distinct core vector (rows with equal
        #: ``cores`` share one).
        self.core_group: np.ndarray = self._core_groups()

    def __len__(self) -> int:
        return len(self.ervs)

    def rows(self, ervs: Sequence["ExtendedResourceVector"]) -> np.ndarray:
        """The row of each ERV, as an ``intp`` array aligned with ``ervs``."""
        get = self.row_of.get
        rows = np.array([get(erv.counts, -1) for erv in ervs], dtype=np.intp)
        for i in np.flatnonzero(rows < 0):
            rows[i] = self.row(ervs[i])
        return rows

    def row(self, erv: "ExtendedResourceVector") -> int:
        """The row of one ERV, adding a row for one outside the space."""
        row = self.row_of.get(erv.counts)
        if row is None:
            row = len(self.counts)
            self.row_of[erv.counts] = row
            extra = np.asarray(erv.counts, dtype=float)[None, :]
            self.counts = np.vstack([self.counts, extra])
            self.cores = np.vstack([self.cores, extra @ self._projection])
            self.core_group = self._core_groups()
        return row

    def _core_groups(self) -> np.ndarray:
        _, inverse = np.unique(self.cores, axis=0, return_inverse=True)
        return inverse.reshape(-1)


class ExtendedResourceVector:
    """An immutable ERV bound to a layout.

    Derived quantities (``core_vector``, ``total_cores``) are cached on
    first computation: the allocator and placement code query them for
    every point on every solve, and the counts tuple never changes.
    """

    __slots__ = ("layout", "counts", "_hash", "_core_vector", "_total_cores")

    def __init__(self, layout: ErvLayout, counts: tuple[int, ...]):
        if len(counts) != len(layout):
            raise ValueError(
                f"expected {len(layout)} components, got {len(counts)}"
            )
        if any(c < 0 for c in counts):
            raise ValueError("ERV counts must be non-negative")
        self.layout: ErvLayout = layout
        self.counts: tuple[int, ...] = tuple(int(c) for c in counts)
        self._hash: int = hash(self.counts)
        self._core_vector: tuple[int, ...] | None = None
        self._total_cores: int | None = None

    # -- derived quantities --------------------------------------------------

    def cores_of_type(self, core_type: str) -> int:
        """Number of physical cores of ``core_type`` this ERV occupies."""
        return sum(
            count
            for comp, count in zip(self.layout.components, self.counts)
            if comp.core_type == core_type
        )

    def core_vector(self) -> list[int]:
        """Cores used per type, in platform type order (MMKP resource vector)."""
        if self._core_vector is None:
            self._core_vector = tuple(
                self.cores_of_type(ct.name)
                for ct in self.layout.platform.core_types
            )
        return list(self._core_vector)

    def total_cores(self) -> int:
        """Total physical cores this ERV occupies (all types)."""
        if self._total_cores is None:
            self._total_cores = sum(self.counts)
        return self._total_cores

    def total_threads(self) -> int:
        """Total hardware threads, i.e. the natural parallelization degree."""
        return sum(
            comp.threads_used * count
            for comp, count in zip(self.layout.components, self.counts)
        )

    def is_empty(self) -> bool:
        """True for the zero allocation."""
        return self.total_cores() == 0

    def fits(self, capacity: list[int] | None = None) -> bool:
        """Whether the ERV fits within the platform (or given) capacity."""
        if capacity is None:
            capacity = self.layout.platform.capacity_vector()
        return all(
            used <= cap for used, cap in zip(self.core_vector(), capacity)
        )

    def as_array(self) -> np.ndarray:
        """Dense numpy representation (regression-model feature vector)."""
        return np.asarray(self.counts, dtype=float)

    def distance(self, other: "ExtendedResourceVector") -> float:
        """Euclidean distance in ERV space (furthest-point exploration)."""
        self._check_layout(other)
        return float(np.linalg.norm(self.as_array() - other.as_array()))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "ExtendedResourceVector") -> "ExtendedResourceVector":
        self._check_layout(other)
        return ExtendedResourceVector(
            self.layout,
            tuple(a + b for a, b in zip(self.counts, other.counts)),
        )

    def __sub__(self, other: "ExtendedResourceVector") -> "ExtendedResourceVector":
        self._check_layout(other)
        return ExtendedResourceVector(
            self.layout,
            tuple(a - b for a, b in zip(self.counts, other.counts)),
        )

    def _check_layout(self, other: "ExtendedResourceVector") -> None:
        if other.layout is not self.layout and (
            other.layout.components != self.layout.components
        ):
            raise ValueError("ERVs belong to different layouts")

    # -- protocol ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExtendedResourceVector)
            and self.counts == other.counts
            and self.layout.components == other.layout.components
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [
            f"{comp.core_type}@{comp.threads_used}={count}"
            for comp, count in zip(self.layout.components, self.counts)
            if count
        ]
        return f"ERV({', '.join(parts) or 'empty'})"

    def describe(self) -> str:
        """Human-readable description of the occupied resources."""
        return repr(self)

    def to_wire(self) -> list[int]:
        """Plain-list encoding for the IPC layer."""
        return list(self.counts)

    @classmethod
    def from_wire(cls, layout: ErvLayout, counts: list[int]) -> "ExtendedResourceVector":
        return cls(layout, tuple(counts))
