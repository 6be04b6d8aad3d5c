"""One allocation epoch as data: plan it, then let the RM execute it.

:func:`plan_epoch` is the paper's two-stage algorithm (§5.3).  Stage 1
allocates with the MMKP solver: stable apps bid their regression-completed
tables, exploring apps a mandatory fair share.  Stage 2 picks each
exploring app's point inside the cores it was assigned plus an even cut
of the free ones.  ``HarpManager.reallocate`` executes the resulting
:class:`EpochDecision` (pushes, session bookkeeping, counters, obs).

Planning pushes nothing and changes no session, transport or world
state.  Its only writes are the table completion (``predict_missing``)
and the maturity stages the planner records on the tables.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.allocator import AllocationRequest, LagrangianAllocator, Selection
from repro.core.exploration import ExplorationPlanner
from repro.core.operating_point import MaturityStage, OperatingPoint, OperatingPointTable
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.platform.topology import Core, Platform

if TYPE_CHECKING:
    from repro.core.manager import AppSession


@dataclass(frozen=True)
class AppDecision:
    """What one application runs after the epoch.

    ``erv`` is None when no configuration fits an exploring app's region
    (the app keeps its threads, unmeasured).  ``new_point`` marks an
    exploring app moving to a newly picked point: its sample count restarts.
    """

    pid: int
    erv: ExtendedResourceVector | None
    knobs: dict = field(default_factory=dict)
    hw_threads: frozenset[int] = frozenset()
    co_allocated: bool = False
    new_point: bool = False


@dataclass(frozen=True)
class EpochDecision:
    """Every live application's decision, in session order.  ``solver_error``
    is set when the solve raised and the epoch fell back to fair share."""

    apps: tuple[AppDecision, ...]
    solver_error: str | None = None


def plan_epoch(
    sessions: Sequence[AppSession],
    planner: ExplorationPlanner,
    allocator: LagrangianAllocator,
    platform: Platform,
    reserve: dict[str, int],
    explore: bool = True,
    measurements_per_point: int = 20,
) -> EpochDecision:
    """Plan one epoch for ``sessions`` on ``platform`` minus ``reserve``.

    ``explore=False`` treats every table as stable and authoritative
    (offline mode).  An exploring app keeps its current point until it
    holds ``measurements_per_point`` samples.
    """
    layout = planner.layout
    capacity = [
        max(0, cap - reserve.get(ct.name, 0))
        for cap, ct in zip(platform.capacity_vector(), platform.core_types)
    ]
    exploring = {
        s.pid for s in sessions
        if explore and planner.stage_of(s.table) is not MaturityStage.STABLE
    }
    fair_erv = _fair_share_erv(platform, layout, reserve, len(sessions))
    requests = [
        AllocationRequest(pid=s.pid, points=[_fair_point(fair_erv)], mandatory=True)
        for s in sessions if s.pid in exploring
    ]
    for session in sessions:
        if session.pid in exploring:
            continue
        if explore:
            # Complete the table with regression approximations for
            # not-yet-explored configurations (§5, challenge 2).  In
            # offline mode the description table is authoritative.
            planner.predict_missing(session.table, layout.index().ervs)
        requests.append(
            AllocationRequest(
                pid=session.pid,
                points=allocatable_points(session.table, capacity)
                or [_fair_point(fair_erv)],
                max_utility=session.table.max_utility(),
                preferred_erv=session.current_erv,
            )
        )

    solver_error = None
    try:
        selections = allocator.allocate(
            requests, platform.capacity_vector(), reserved=reserve or None
        ).selections
    except Exception as exc:
        # Graceful degradation: every app gets the fair share, placed by
        # the solver's deterministic placement phase (co-allocation and
        # background reserve included), so the epoch still allocates.
        solver_error = str(exc)
        selections = {
            s.pid: Selection(pid=s.pid, point=_fair_point(fair_erv))
            for s in sessions
        }
        allocator.place_selections(
            selections, platform.capacity_vector(), reserved=reserve or None
        )

    # Stage 2: exploration within the assigned cores plus the free ones.
    regions = _explorer_regions(platform, reserve, selections, sorted(exploring))
    apps = []
    for session in sessions:
        sel = selections[session.pid]
        if session.pid in regions:
            apps.append(_exploration_decision(
                session, regions[session.pid], sel.co_allocated,
                platform, planner, measurements_per_point,
            ))
        else:
            apps.append(AppDecision(
                session.pid, sel.point.erv, dict(sel.point.knobs),
                sel.hw_threads, sel.co_allocated,
            ))
    return EpochDecision(tuple(apps), solver_error)


def allocatable_points(
    table: OperatingPointTable, capacity: list[int]
) -> list[OperatingPoint]:
    """The table's points the allocator may select, in table order:
    non-empty, within ``capacity``, and measured or predicted useful."""
    rows = table.index_rows()  # may add rows to the index: read it after
    cores = table.layout.index().cores[rows]
    points = table.points
    useful = np.fromiter(
        (p.measured or p.utility > 0 for p in points),
        dtype=bool, count=len(points),
    )
    keep = useful & (cores.sum(axis=1) > 0) & np.all(cores <= capacity, axis=1)
    return [points[i] for i in np.flatnonzero(keep).tolist()]


def exploration_candidates(
    layout: ErvLayout, capacity: list[int]
) -> list[ExtendedResourceVector]:
    """Every ERV of the space within ``capacity``, in index order."""
    index = layout.index()
    fits = np.all(index.cores[: len(index)] <= capacity, axis=1)
    return [index.ervs[i] for i in np.flatnonzero(fits).tolist()]


def _fair_share_erv(
    platform: Platform, layout: ErvLayout, reserve: dict[str, int], n_sessions: int
) -> ExtendedResourceVector:
    """An even split of the machine used while exploring (§5.3)."""
    counts: dict[tuple[str, int], int] = {}
    for ct in platform.core_types:
        available = max(0, platform.count_of_type(ct.name) - reserve.get(ct.name, 0))
        share = available // max(1, n_sessions)
        if share > 0:
            counts[(ct.name, ct.smt)] = share
    if not counts:
        # More applications than cores: ask for a single core of the
        # most plentiful type and let co-allocation handle the rest.
        biggest = max(
            platform.core_types, key=lambda ct: platform.count_of_type(ct.name)
        )
        counts[(biggest.name, biggest.smt)] = 1
    return layout.from_counts(counts)


def _fair_point(erv: ExtendedResourceVector) -> OperatingPoint:
    return OperatingPoint(erv=erv, utility=1.0, power=1.0)


def _explorer_regions(
    platform: Platform, reserve: dict[str, int],
    selections: dict[int, Selection], explorer_pids: list[int],
) -> dict[int, list[Core]]:
    """Each explorer's assigned cores plus an even cut of the free ones
    (outside the background reserve), dealt round-robin in pid order."""
    if not explorer_pids:
        return {}
    core_of = platform.core_of_hw_thread
    core_by_id = {c.core_id: c for c in platform.cores}
    assigned = {core_of[hw] for sel in selections.values() for hw in sel.hw_threads}
    regions = {
        pid: [
            core_by_id[cid]
            for cid in sorted({core_of[hw] for hw in selections[pid].hw_threads})
        ]
        for pid in explorer_pids
    }
    dealt = 0
    for ct in platform.core_types:
        pool = platform.cores_of_type(ct.name)
        pool = pool[: max(0, len(pool) - reserve.get(ct.name, 0))]
        for core in pool:
            if core.core_id not in assigned:
                regions[explorer_pids[dealt % len(explorer_pids)]].append(core)
                dealt += 1
    return regions


def _exploration_decision(
    session: AppSession, region: list[Core], co_allocated: bool,
    platform: Platform, planner: ExplorationPlanner, measurements_per_point: int,
) -> AppDecision:
    """Pick (or keep) the exploring app's point and place it in the region."""
    region_cap = Counter(core.core_type.name for core in region)
    capacity = [region_cap[ct.name] for ct in platform.core_types]
    candidates = exploration_candidates(planner.layout, capacity)
    if not candidates:
        return AppDecision(session.pid, None, co_allocated=co_allocated)
    # The candidates are the whole space within the region, and the
    # region never exceeds the platform: membership is this test.
    erv = session.current_erv
    new_point = not (
        erv is not None
        and session.samples_at_current < measurements_per_point
        and not erv.is_empty()
        and erv.fits(capacity)
    )
    if new_point:
        table = session.table
        erv = planner.next_point(table, candidates)
        if erv is None:
            # Everything reachable is measured; re-measure the best.
            erv = max(
                candidates, key=lambda c: table.get(c).utility if table.get(c) else 0.0
            )
    return AppDecision(
        session.pid, erv, {}, _place_in_region(erv, region), co_allocated, new_point
    )


def _place_in_region(
    erv: ExtendedResourceVector, region: list[Core]
) -> frozenset[int]:
    pools: dict[str, list[Core]] = {}
    for core in region:
        pools.setdefault(core.core_type.name, []).append(core)
    hw_ids: list[int] = []
    for comp, count in zip(erv.layout.components, erv.counts):
        pool = pools.get(comp.core_type, [])
        for core in pool[:count]:
            hw_ids.extend(t.thread_id for t in core.hw_threads[: comp.threads_used])
        del pool[:count]
    return frozenset(hw_ids)
