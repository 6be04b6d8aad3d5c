"""Pareto dominance, front extraction, and front-quality metrics.

All objectives are minimized, matching the paper (execution time, energy,
P-cores, E-cores in Fig. 1; negated utility and power during runtime
exploration).  Includes the two front-comparison metrics used in Fig. 5:
Inverted Generational Distance (IGD) and the ratio of common operating
points between predicted and reference fronts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if ``a`` Pareto-dominates ``b`` (all objectives minimized)."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have equal length")
    at_least_one_better = False
    for ai, bi in zip(a, b):
        if ai > bi:
            return False
        if ai < bi:
            at_least_one_better = True
    return at_least_one_better


def dominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of the dominated rows of an (n, m) objective matrix.

    Row ``i`` is marked when some row ``j`` is no worse in every objective
    and strictly better in at least one.  Duplicated rows never dominate
    each other, so all copies of a non-dominated point stay unmarked.
    Values are compared directly, so two rows sharing a ±inf in a column
    tie there; a row containing NaN neither dominates nor is dominated.

    Output-sensitive front extraction: after a lexicographic sort, the
    first remaining row cannot be dominated (a dominator sorts strictly
    before the row it dominates), so it is taken as a front point, every
    remaining row it dominates is marked in one vectorized comparison,
    and it, its duplicates and the marked rows are dropped.  That costs
    O(n · |front| · m) time and O(n · m) memory, instead of the
    O(n² · m) of a pairwise check; allocator tables have a few dozen
    front points among hundreds of rows.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    mask = np.zeros(len(pts), dtype=bool)
    if pts.size == 0:
        return mask
    idx = np.lexsort(pts.T[::-1])
    rest = pts[idx]
    while len(rest):
        head = rest[0]
        covered = (head <= rest).all(axis=1)
        mask[idx[covered & (head < rest).any(axis=1)]] = True
        # ``covered`` holds the head and its duplicates unless the head
        # has a NaN; drop the head explicitly so the loop always advances.
        covered[0] = True
        keep = ~covered
        idx, rest = idx[keep], rest[keep]
    return mask


def pareto_front_indices(points: np.ndarray) -> list[int]:
    """Indices of the non-dominated rows of an (n, m) objective matrix.

    Duplicated non-dominated points are all kept.
    """
    mask = dominated_mask(points)
    return [int(i) for i in np.flatnonzero(~mask)]


def pareto_front(points: np.ndarray) -> np.ndarray:
    """The non-dominated subset of an objective matrix."""
    pts = np.asarray(points, dtype=float)
    return pts[pareto_front_indices(pts)]


def igd(reference_front: np.ndarray, approx_front: np.ndarray) -> float:
    """Inverted Generational Distance (lower is better).

    Average distance from each reference-front point to its nearest
    neighbour in the approximated front; objectives are normalized by the
    reference front's per-objective range so that differently scaled
    objectives contribute comparably.
    """
    ref = np.asarray(reference_front, dtype=float)
    approx = np.asarray(approx_front, dtype=float)
    if ref.size == 0:
        raise ValueError("reference front must be non-empty")
    if approx.size == 0:
        return float("inf")
    if ref.ndim != 2 or approx.ndim != 2 or ref.shape[1] != approx.shape[1]:
        raise ValueError("fronts must be 2-D with matching objective count")
    span = ref.max(axis=0) - ref.min(axis=0)
    span[span == 0] = 1.0
    ref_n = (ref - ref.min(axis=0)) / span
    approx_n = (approx - ref.min(axis=0)) / span
    dists = np.linalg.norm(
        ref_n[:, None, :] - approx_n[None, :, :], axis=2
    ).min(axis=1)
    return float(dists.mean())


def common_point_ratio(
    reference_keys: Sequence, approx_keys: Sequence
) -> float:
    """Fraction of reference-front configurations present in the approximated front.

    The Fig. 5 metric: operating points are identified by their
    configuration (ERV), not by their objective values.
    """
    ref = set(reference_keys)
    if not ref:
        raise ValueError("reference front must be non-empty")
    return len(ref & set(approx_keys)) / len(ref)
