"""Operating points and per-application operating-point tables (§4.1.2).

An operating point encodes (1) an in-application configuration, (2) a
resource allocation, and (3) non-functional characteristics.  HARP handles
two granularities:

* **coarse-grained** points are identified by their extended resource
  vector (ERV) alone; the in-application configuration (e.g. the
  parallelization degree) is derived from the vector;
* **fine-grained** points additionally carry adaptivity-knob values, but —
  as in the paper — the RM still only sees the ERV and the non-functional
  characteristics; the knob payload is opaque and travels back to the
  application on activation.

The table tracks measurement state per point (sample count, exponential
moving averages of utility and power) and the application's exploration
maturity stage (§5.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.cost import energy_utility_cost
from repro.core.pareto import pareto_front_indices
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector

import numpy as np


class MaturityStage(enum.Enum):
    """Exploration maturity of an application's operating-point table."""

    INITIAL = "initial"
    REFINEMENT = "refinement"
    STABLE = "stable"


@dataclass
class OperatingPoint:
    """A configuration variant with measured or predicted characteristics.

    Attributes:
        erv: resource requirement as an extended resource vector.
        utility: instant utility v (work/s, IPS, or app-specific rate).
        power: attributed power consumption p in watts.
        knobs: opaque fine-grained configuration payload (adaptivity-knob
            values, thread-to-core mapping hints); empty for coarse points.
        measured: True if the characteristics come from measurements,
            False for regression-model predictions.
        samples: number of measurement samples folded into the EMA.
    """

    erv: ExtendedResourceVector
    utility: float = 0.0
    power: float = 0.0
    knobs: dict[str, object] = field(default_factory=dict)
    measured: bool = False
    samples: int = 0
    # Tables holding this point: they cache their measured points, so a
    # flip of ``measured`` — even through a direct record_sample() on the
    # point — must reach each of them.
    _tables: list["OperatingPointTable"] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    @property
    def is_fine_grained(self) -> bool:
        return bool(self.knobs)

    def cost(self, max_utility: float) -> float:
        """Energy-utility cost ζ of this point (Eq. 2)."""
        return energy_utility_cost(self.power, self.utility, max_utility)

    def record_sample(self, utility: float, power: float, alpha: float = 0.1) -> None:
        """Fold one measurement into the EMA characteristics (§5.1).

        The first sample initializes the averages; subsequent samples apply
        the paper's exponential moving average with smoothing factor 0.1.
        """
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        newly_measured = not self.measured
        if self.samples == 0 or newly_measured:
            self.utility = utility
            self.power = power
        else:
            self.utility += alpha * (utility - self.utility)
            self.power += alpha * (power - self.power)
        self.measured = True
        self.samples += 1
        if newly_measured:
            self._measured_changed()

    def _measured_changed(self) -> None:
        for table in self._tables:
            table._measured = None

    def set_predicted(self, utility: float, power: float) -> None:
        """Overwrite characteristics with regression predictions (§5.2).

        Only unmeasured points accept predictions: a measurement always
        outranks the model, and keeping the mutation here (rather than as
        ad-hoc attribute writes at call sites) is what lets harplint's
        HL002 rule guarantee the allocator's by-value solve fingerprints
        observe every characteristic change.
        """
        if self.measured:
            raise ValueError(
                "refusing to overwrite measured characteristics with "
                "predictions"
            )
        self.utility = float(utility)
        self.power = float(power)

    def to_wire(self) -> dict[str, object]:
        """JSON-compatible encoding for description files and IPC."""
        return {
            "erv": self.erv.to_wire(),
            "utility": self.utility,
            "power": self.power,
            "knobs": self.knobs,
            "measured": self.measured,
            "samples": self.samples,
        }

    @classmethod
    def from_wire(cls, layout: ErvLayout, data: dict[str, object]) -> "OperatingPoint":
        return cls(
            erv=ExtendedResourceVector.from_wire(layout, data["erv"]),
            utility=float(data["utility"]),
            power=float(data["power"]),
            knobs=dict(data.get("knobs", {})),
            measured=bool(data.get("measured", True)),
            samples=int(data.get("samples", 0)),
        )


class OperatingPointTable:
    """All known operating points of one application.

    Coarse-grained points are unique per ERV; fine-grained points may share
    an ERV (distinguished by knob payloads) and are kept in insertion
    order.  ``max_utility`` — the normalizer v_max of Eq. 2 — is the
    maximum utility over *measured* points, falling back to predicted ones.
    """

    def __init__(self, app_name: str, layout: ErvLayout):
        self.app_name = app_name
        self.layout = layout
        self._points: list[OperatingPoint] = []
        self._by_erv: dict[ExtendedResourceVector, OperatingPoint] = {}
        self.stage = MaturityStage.INITIAL
        # The measured points in table order; None when a point's
        # ``measured`` flag changed since the last scan.
        self._measured: list[OperatingPoint] | None = []
        # Each point's row in the layout's ErvIndex, extended as points
        # are appended (points are never removed or re-bound to an ERV).
        self._rows: np.ndarray = np.empty(0, dtype=np.intp)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self._points)

    @property
    def points(self) -> list[OperatingPoint]:
        return list(self._points)

    def add(self, point: OperatingPoint) -> OperatingPoint:
        """Insert a point; coarse points merge into any existing ERV entry."""
        if not point.is_fine_grained and point.erv in self._by_erv:
            existing = self._by_erv[point.erv]
            flipped = existing.measured != point.measured
            existing.utility = point.utility
            existing.power = point.power
            existing.measured = point.measured
            existing.samples = max(existing.samples, point.samples)
            if flipped:
                existing._measured_changed()
            return existing
        self._append(point)
        if not point.is_fine_grained:
            self._by_erv[point.erv] = point
        return point

    def _append(self, point: OperatingPoint) -> None:
        self._points.append(point)
        point._tables.append(self)
        if point.measured:
            self._measured = None

    def get(self, erv: ExtendedResourceVector) -> OperatingPoint | None:
        """Look up the coarse-grained point for an ERV."""
        return self._by_erv.get(erv)

    def get_or_create(self, erv: ExtendedResourceVector) -> OperatingPoint:
        """Fetch the coarse point for ``erv``, creating an unmeasured one."""
        point = self._by_erv.get(erv)
        if point is None:
            point = OperatingPoint(erv=erv)
            self._append(point)
            self._by_erv[erv] = point
        return point

    def _measured_list(self) -> list[OperatingPoint]:
        if self._measured is None:
            self._measured = [p for p in self._points if p.measured]
        return self._measured

    def measured_points(self) -> list[OperatingPoint]:
        """Points whose characteristics come from actual measurements."""
        return list(self._measured_list())

    def measured_count(self) -> int:
        """Number of measured points (the §5.3 maturity criterion)."""
        return len(self._measured_list())

    def index_rows(self) -> np.ndarray:
        """Each point's row in ``layout.index()``, in table order.

        The returned array is the table's own cache: do not write to it.
        """
        done = len(self._rows)
        if done < len(self._points):
            tail = self.layout.index().rows(
                [p.erv for p in self._points[done:]]
            )
            self._rows = np.concatenate([self._rows, tail])
        return self._rows

    def max_utility(self) -> float:
        """The normalizer v_max (Eq. 2)."""
        measured = [p.utility for p in self._points if p.measured and p.utility > 0]
        if measured:
            return max(measured)
        predicted = [p.utility for p in self._points if p.utility > 0]
        if predicted:
            return max(predicted)
        return 1.0

    def record_measurement(
        self,
        erv: ExtendedResourceVector,
        utility: float,
        power: float,
        alpha: float = 0.1,
    ) -> OperatingPoint:
        """Fold a (utility, power) sample into the point for ``erv``."""
        point = self.get_or_create(erv)
        point.record_sample(utility, power, alpha=alpha)
        return point

    def pareto_front(self, measured_only: bool = False) -> list[OperatingPoint]:
        """Non-dominated points under (−utility, power, cores per type).

        Mirrors the paper's four-objective Pareto filtering of Fig. 1,
        generalized to instant metrics: maximize utility, minimize power,
        and minimize the core count of every type.
        """
        candidates = self.measured_points() if measured_only else self._points
        candidates = [p for p in candidates if p.utility > 0 or p.measured]
        if not candidates:
            return []
        objectives = np.array(
            [[-p.utility, p.power, *p.erv.core_vector()] for p in candidates]
        )
        return [candidates[i] for i in pareto_front_indices(objectives)]

    def costs(self) -> dict[int, float]:
        """ζ per point index, using the table's current normalizer."""
        v_max = self.max_utility()
        return {i: p.cost(v_max) for i, p in enumerate(self._points)}

    # -- serialization ---------------------------------------------------------

    def to_wire(self) -> dict[str, object]:
        """JSON-compatible encoding (description files, snapshots, IPC)."""
        return {
            "app": self.app_name,
            "stage": self.stage.value,
            "points": [p.to_wire() for p in self._points],
        }

    @classmethod
    def from_wire(cls, layout: ErvLayout, data: dict[str, object]) -> "OperatingPointTable":
        table = cls(data["app"], layout)
        table.stage = MaturityStage(data.get("stage", "initial"))
        for raw in data.get("points", []):
            table.add(OperatingPoint.from_wire(layout, raw))
        return table

    @classmethod
    def from_points(
        cls,
        app_name: str,
        layout: ErvLayout,
        points: Iterable[OperatingPoint],
    ) -> "OperatingPointTable":
        table = cls(app_name, layout)
        for point in points:
            table.add(point)
        return table
