"""Runtime exploration of operating points (§5.3).

Applications move through three maturity stages:

* **initial** — too few measurements for even a preliminary regression
  model; the next point is the candidate furthest (in extended-resource-
  vector space) from everything measured so far, maximizing diversity;
* **refinement** — a preliminary second-degree polynomial model exists but
  is unreliable; the heuristic first repairs *negative* utility/power
  predictions (largest combined error, geometric mean of the negative
  deviations), then targets the largest discrepancy between the primary
  model and an auxiliary model anchored at the zero point (no cores → no
  utility, no power);
* **stable** — 25 configurations explored; the table is trusted and
  re-assessed only at a long interval (every 100 measurements in the
  paper's evaluation).

The planner also fills the operating-point table with regression
predictions for every unmeasured candidate, which the allocator consumes
alongside the measured points (§5, challenge 2).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.operating_point import (
    MaturityStage,
    OperatingPoint,
    OperatingPointTable,
)
from repro.core.regression import RegressionModel, make_model
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.obs import OBS


def poly_feature_count(n_inputs: int, degree: int = 2) -> int:
    """Number of coefficients of a degree-d polynomial in n variables."""
    count = 1
    for total in range(1, degree + 1):
        count += math.comb(n_inputs + total - 1, total)
    return count


class ExplorationPlanner:
    """Implements the stage logic and point-selection heuristics."""

    #: The regression behind predictions and refinement (§5.3).
    _MODEL_NAME = "poly2"

    def __init__(self, layout: ErvLayout, stable_after: int = 25):
        self.layout = layout
        # A preliminary model needs at least as many measurements as the
        # regression has coefficients.
        self.initial_threshold = poly_feature_count(len(layout), degree=2)
        self.stable_after = stable_after

    # -- stages -----------------------------------------------------------------

    def stage_of(self, table: OperatingPointTable) -> MaturityStage:
        """Classify the table's maturity and update its stage field."""
        measured = table.measured_count()
        if measured >= self.stable_after:
            stage = MaturityStage.STABLE
        elif measured >= self.initial_threshold:
            stage = MaturityStage.REFINEMENT
        else:
            stage = MaturityStage.INITIAL
        previous = table.stage
        table.stage = stage
        if stage is not previous and OBS.enabled:
            OBS.counter(
                "exploration.stage_transitions", to=stage.value
            ).inc()
            OBS.event(
                "stage_transition", track=f"app:{table.app_name}",
                app=table.app_name, from_stage=previous.value,
                to_stage=stage.value, measured=measured,
            )
        return stage

    # -- model fitting -------------------------------------------------------------

    def fit_models(
        self, table: OperatingPointTable, anchor_zero: bool = False
    ) -> tuple[RegressionModel, RegressionModel] | None:
        """Fit (utility, power) models on the measured points.

        Args:
            anchor_zero: include the paper's auxiliary anchor — zero
                utility and power for the empty allocation.
        """
        measured = table.measured_points()
        if len(measured) < 2:
            return None
        index = self.layout.index()
        rows = index.rows([p.erv for p in measured])
        x = index.counts[rows]
        y_u = np.array([p.utility for p in measured])
        y_p = np.array([p.power for p in measured])
        if anchor_zero:
            zero = np.zeros((1, x.shape[1]))
            x = np.vstack([x, zero])
            y_u = np.append(y_u, 0.0)
            y_p = np.append(y_p, 0.0)
        model_u = make_model(self._MODEL_NAME).fit(x, y_u)
        model_p = make_model(self._MODEL_NAME).fit(x, y_p)
        if OBS.enabled:
            OBS.counter(
                "exploration.model_refits",
                anchored="true" if anchor_zero else "false",
            ).inc()
        return model_u, model_p

    # -- point selection ---------------------------------------------------------------

    def next_point(
        self,
        table: OperatingPointTable,
        candidates: list[ExtendedResourceVector],
    ) -> ExtendedResourceVector | None:
        """The next configuration to measure, or None when exhausted."""
        index = self.layout.index()
        cand_rows = index.rows(candidates)
        measured_rows = self._measured_rows(table)
        keep = self._unmeasured(cand_rows, measured_rows)
        if not len(keep):
            return None
        unmeasured = [candidates[i] for i in keep.tolist()]
        rows = cand_rows[keep]
        stage = self.stage_of(table)
        if OBS.enabled:
            OBS.counter("exploration.points_planned", stage=stage.value).inc()
        if stage is MaturityStage.INITIAL:
            return self._furthest_point(measured_rows, unmeasured, rows)
        return self._refinement_point(table, unmeasured, rows)

    def _measured_rows(self, table: OperatingPointTable) -> np.ndarray:
        """ErvIndex rows of the table's measured points, in table order."""
        return self.layout.index().rows(
            [p.erv for p in table.measured_points()]
        )

    def _unmeasured(
        self, cand_rows: np.ndarray, measured_rows: np.ndarray
    ) -> np.ndarray:
        """Positions in ``cand_rows`` whose row is not in ``measured_rows``."""
        measured = np.zeros(len(self.layout.index().counts), dtype=bool)
        measured[measured_rows] = True
        return np.flatnonzero(~measured[cand_rows])

    def _furthest_point(
        self,
        measured_rows: np.ndarray,
        candidates: list[ExtendedResourceVector],
        rows: np.ndarray,
    ) -> ExtendedResourceVector:
        """The candidate furthest from every measured point.

        Ties on the distance go to the largest counts tuple.  ERV counts
        are small integers, so the squared distances are exact and rank
        the candidates exactly as the Euclidean distances do.
        """
        if not len(measured_rows):
            # Nothing measured yet: start from the largest allocation, the
            # most informative corner of the space.
            return max(candidates, key=lambda c: (c.total_threads(), c.counts))
        counts = self.layout.index().counts
        diff = counts[rows][:, None, :] - counts[measured_rows][None, :, :]
        nearest = (diff * diff).sum(axis=2).min(axis=1)
        tied = np.flatnonzero(nearest == nearest.max())
        return max(
            (candidates[i] for i in tied.tolist()), key=lambda c: c.counts
        )

    def _refinement_point(
        self,
        table: OperatingPointTable,
        candidates: list[ExtendedResourceVector],
        rows: np.ndarray,
    ) -> ExtendedResourceVector:
        primary = self.fit_models(table, anchor_zero=False)
        if primary is None:
            return self._furthest_point(
                self._measured_rows(table), candidates, rows
            )
        model_u, model_p = primary
        x = self.layout.index().counts[rows]
        pred_u = model_u.predict(x)
        pred_p = model_p.predict(x)

        # Priority 1: repair negative predictions.
        neg_u = np.maximum(0.0, -pred_u)
        neg_p = np.maximum(0.0, -pred_p)
        has_negative = (neg_u > 0) | (neg_p > 0)
        if has_negative.any():
            # Combined error: geometric mean of the negative deviations,
            # with a single-sided fallback so lone negatives still rank.
            combined = np.sqrt(neg_u * neg_p)
            fallback = np.maximum(neg_u / max(pred_u.max(), 1e-9),
                                  neg_p / max(pred_p.max(), 1e-9))
            score = np.where(combined > 0, combined, 0.0)
            if score.max() > 0:
                return candidates[int(np.argmax(score))]
            masked = np.where(has_negative, fallback, -np.inf)
            return candidates[int(np.argmax(masked))]

        # Priority 2: largest discrepancy against the zero-anchored model.
        auxiliary = self.fit_models(table, anchor_zero=True)
        if auxiliary is None:
            return candidates[0]
        aux_u, aux_p = auxiliary
        diff_u = np.abs(pred_u - aux_u.predict(x))
        diff_p = np.abs(pred_p - aux_p.predict(x))
        discrepancy = np.sqrt(diff_u * diff_p)
        return candidates[int(np.argmax(discrepancy))]

    # -- table completion -----------------------------------------------------------------

    def predict_missing(
        self,
        table: OperatingPointTable,
        candidates: list[ExtendedResourceVector],
    ) -> int:
        """Fill unmeasured candidates with regression-predicted points.

        Returns the number of predicted points written.  Predictions are
        clamped to be non-negative; existing measured entries are never
        overwritten.
        """
        models = self.fit_models(table, anchor_zero=False)
        if models is None:
            return 0
        model_u, model_p = models
        measured = table.measured_points()
        index = self.layout.index()
        cand_rows = index.rows(candidates)
        missing = self._unmeasured(cand_rows, self._measured_rows(table))
        if not len(missing):
            return 0
        x = index.counts[cand_rows[missing]]
        pred_u = np.maximum(0.0, model_u.predict(x))
        pred_p = np.maximum(0.0, model_p.predict(x))
        # Polynomial extrapolation far outside the measured region can
        # invent operating points that look better than anything observed,
        # which would systematically mislead the allocator.  Clamp
        # predictions into the measured envelope: utility never exceeds
        # the best observation, power never leaves the observed range.
        utilities = [p.utility for p in measured]
        powers = [p.power for p in measured if p.power > 0]
        if utilities:
            pred_u = np.minimum(pred_u, max(utilities))
        if powers:
            pred_p = np.clip(pred_p, 0.5 * min(powers), 1.5 * max(powers))
        for i, utility, power in zip(
            missing.tolist(), pred_u.tolist(), pred_p.tolist()
        ):
            point = table.get_or_create(candidates[i])
            if not point.measured:
                point.set_predicted(utility, power)
        if OBS.enabled:
            OBS.counter("exploration.predictions").inc(len(missing))
        return len(missing)
