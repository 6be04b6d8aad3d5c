"""Per-point reference for the RM's per-epoch table work.

The RM's epoch code in ``repro.core`` runs on the layout's ``ErvIndex``
as numpy masks and slices.  This module keeps the per-point Python it
replaced, as the reference the array paths must equal with ``==``:

* :func:`measured_points` — the full-table scan behind
  ``OperatingPointTable.measured_points()``/``measured_count()``;
* :func:`allocatable_points` — the stable-app point filter,
  ``repro.core.epoch.allocatable_points``;
* :func:`exploration_candidates` — the region filter,
  ``repro.core.epoch.exploration_candidates``;
* :class:`PerPointPlanner` — the planner's measured set, regression
  features, furthest-point search and table completion;
* :class:`PerPointRowsAllocator` — the allocator's request keys, cost
  rows, resource rows and pruning mask.

Whole runs compare a plain ``HarpManager`` against one given the
per-point planner and allocator, with the two filters swapped into
``repro.core.epoch`` (``tests/test_epoch_arrays.py``): their
``EpochDecision``s must be equal epoch by epoch."""

from __future__ import annotations

import numpy as np

from repro.core.allocator import LagrangianAllocator
from repro.core.cost import batch_costs
from repro.core.exploration import ExplorationPlanner
from repro.core.operating_point import MaturityStage, OperatingPoint
from repro.core.pareto import dominated_mask
from repro.core.regression import make_model
from repro.core.resource_vector import ErvLayout


def measured_points(table) -> list[OperatingPoint]:
    """The table's measured points in table order, by a full scan."""
    return [p for p in table if p.measured]


def allocatable_points(table, capacity) -> list[OperatingPoint]:
    """Points the allocator may select: non-empty, fitting, useful."""
    return [
        p
        for p in table
        if not p.erv.is_empty()
        and p.erv.fits(capacity)
        and (p.measured or p.utility > 0)
    ]


def exploration_candidates(all_ervs, capacity_vec):
    """The space's ERVs whose core vector fits the region."""
    return [
        erv
        for erv in all_ervs
        if all(u <= c for u, c in zip(erv.core_vector(), capacity_vec))
    ]


class PerPointPlanner(ExplorationPlanner):
    """The exploration planner with per-point sets, features and norms."""

    def stage_of(self, table):
        measured = len(measured_points(table))
        if measured >= self.stable_after:
            stage = MaturityStage.STABLE
        elif measured >= self.initial_threshold:
            stage = MaturityStage.REFINEMENT
        else:
            stage = MaturityStage.INITIAL
        table.stage = stage
        return stage

    def fit_models(self, table, anchor_zero=False):
        measured = measured_points(table)
        if len(measured) < 2:
            return None
        x = np.array([p.erv.as_array() for p in measured])
        y_u = np.array([p.utility for p in measured])
        y_p = np.array([p.power for p in measured])
        if anchor_zero:
            x = np.vstack([x, np.zeros((1, x.shape[1]))])
            y_u = np.append(y_u, 0.0)
            y_p = np.append(y_p, 0.0)
        return (
            make_model(self.model_name).fit(x, y_u),
            make_model(self.model_name).fit(x, y_p),
        )

    def next_point(self, table, candidates):
        measured_ervs = {p.erv for p in measured_points(table)}
        unmeasured = [c for c in candidates if c not in measured_ervs]
        if not unmeasured:
            return None
        stage = self.stage_of(table)
        if stage is MaturityStage.INITIAL:
            return self.furthest_point(measured_ervs, unmeasured)
        return self.refinement_point(table, unmeasured)

    @staticmethod
    def furthest_point(measured, candidates):
        """Max over candidates of (min Euclidean distance, counts)."""
        if not measured:
            return max(candidates, key=lambda c: (c.total_threads(), c.counts))

        def min_dist(candidate):
            return min(candidate.distance(m) for m in measured)

        return max(candidates, key=lambda c: (min_dist(c), c.counts))

    def refinement_point(self, table, candidates):
        primary = self.fit_models(table)
        if primary is None:
            return self.furthest_point(
                {p.erv for p in measured_points(table)}, candidates
            )
        model_u, model_p = primary
        x = np.array([c.as_array() for c in candidates])
        pred_u = model_u.predict(x)
        pred_p = model_p.predict(x)
        neg_u = np.maximum(0.0, -pred_u)
        neg_p = np.maximum(0.0, -pred_p)
        has_negative = (neg_u > 0) | (neg_p > 0)
        if has_negative.any():
            combined = np.sqrt(neg_u * neg_p)
            fallback = np.maximum(neg_u / max(pred_u.max(), 1e-9),
                                  neg_p / max(pred_p.max(), 1e-9))
            score = np.where(combined > 0, combined, 0.0)
            if score.max() > 0:
                return candidates[int(np.argmax(score))]
            masked = np.where(has_negative, fallback, -np.inf)
            return candidates[int(np.argmax(masked))]
        auxiliary = self.fit_models(table, anchor_zero=True)
        if auxiliary is None:
            return candidates[0]
        aux_u, aux_p = auxiliary
        diff_u = np.abs(pred_u - aux_u.predict(x))
        diff_p = np.abs(pred_p - aux_p.predict(x))
        return candidates[int(np.argmax(np.sqrt(diff_u * diff_p)))]

    def predictions(self, table, candidates):
        """(missing ERVs, clamped utility, clamped power), or None."""
        models = self.fit_models(table)
        if models is None:
            return None
        model_u, model_p = models
        measured = measured_points(table)
        measured_ervs = {p.erv for p in measured}
        missing = [c for c in candidates if c not in measured_ervs]
        if not missing:
            return missing, np.empty(0), np.empty(0)
        x = np.array([c.as_array() for c in missing])
        pred_u = np.maximum(0.0, model_u.predict(x))
        pred_p = np.maximum(0.0, model_p.predict(x))
        utilities = [p.utility for p in measured]
        powers = [p.power for p in measured if p.power > 0]
        if utilities:
            pred_u = np.minimum(pred_u, max(utilities))
        if powers:
            pred_p = np.clip(pred_p, 0.5 * min(powers), 1.5 * max(powers))
        return missing, pred_u, pred_p

    def predict_missing(self, table, candidates):
        predicted = self.predictions(table, candidates)
        if predicted is None:
            return 0
        missing, pred_u, pred_p = predicted
        for erv, utility, power in zip(missing, pred_u, pred_p):
            point = table.get_or_create(erv)
            if not point.measured:
                point.set_predicted(utility, power)
        return len(missing)


class PerPointRowsAllocator(LagrangianAllocator):
    """The allocator with per-point request keys and problem rows."""

    @staticmethod
    def _request_key(req):
        return (
            req.pid,
            req.mandatory,
            req.max_utility,
            req.hysteresis,
            req.preferred_erv.counts if req.preferred_erv is not None else None,
            tuple((p.erv.counts, p.utility, p.power) for p in req.points),
        )

    def _request_rows(self, req, req_key):
        cached = self._row_cache.get(req_key)
        if cached is not None:
            self._row_cache.move_to_end(req_key)
            self.stats.row_cache_hits += 1
            return cached
        entry = request_rows(req, self.layout)
        self.stats.points_pruned += len(req.points) - len(entry[2])
        self._row_cache[req_key] = entry
        while len(self._row_cache) > self._row_cache_size:
            self._row_cache.popitem(last=False)
        return entry


def request_rows(req, layout: ErvLayout):
    """(cost vector, resource matrix, kept indices) of one request."""
    counts_mat = np.array([p.erv.counts for p in req.points], dtype=float)
    costs = batch_costs(
        [p.power for p in req.points],
        [p.utility for p in req.points],
        req.max_utility,
    )
    if req.preferred_erv is not None:
        match = np.all(counts_mat == np.asarray(req.preferred_erv.counts), axis=1)
        costs[match] *= req.hysteresis
    res_mat = counts_mat @ layout.type_projection()
    keep = np.arange(len(req.points))
    if not req.mandatory and len(req.points) > 1:
        dominated = dominated_mask(np.column_stack([costs, res_mat]))
        keep = np.flatnonzero(~dominated)
        costs, res_mat = costs[keep], res_mat[keep]
    return costs, res_mat, keep
