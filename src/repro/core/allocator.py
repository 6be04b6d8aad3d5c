"""Multi-application resource allocation (§4.2.2, Eq. 1).

Selecting one operating point per application to minimize the system-wide
energy-utility cost under per-core-type capacity constraints is a
Multiple-choice Multi-dimensional Knapsack Problem.  Following the paper
(and Wildermann et al.), we solve it approximately in three phases:

1. **Lagrangian relaxation** — relax the capacity constraint with a
   multiplier vector λ ≥ 0 and iterate a projected subgradient: each
   application independently picks the point minimizing ζ + λ·r, then λ
   moves along the constraint violation.
2. **Greedy repair** — if the relaxed solution is still infeasible,
   repeatedly downgrade the selection whose cheapest feasible alternative
   costs the least extra ζ per unit of excess resource removed.
3. **Concrete placement** — map selected extended resource vectors onto
   disjoint physical cores and hardware threads.

When applications outnumber resources, the capacity constraint is
temporarily relaxed and the surplus applications run *co-allocated*,
sharing cores (the paper's §4.2.2 limitation); co-allocated applications
are flagged so the manager suspends performance monitoring for them
(§5.1).

The solver pads the per-application cost vectors and resource matrices
into dense tensors built once per solve and runs the subgradient
iteration and greedy repair as batched numpy operations.  Dominated
operating points (worse cost *and* no smaller resource demand on every
type) are pruned before the solve, and whole solves are memoized on a
fingerprint of the inputs so manager epochs with unchanged tables skip
the solver entirely.  A scalar-loop oracle of phases 1 and 2 lives in
the test suite (``tests/alloc_oracle.py``) and pins the batched code
selection-for-selection.

Consecutive manager epochs are nearly identical problems, and the control
plane exploits that (docs/performance.md, "Scaling the control plane"):

* **Warm-started solves** — the Lagrange multiplier vector λ of the last
  solve is persisted and reused as the starting iterate of the next
  one; warm solves run a shorter subgradient schedule
  (``_WARM_ITERS``) and stop early once the iterate is feasible and
  stable.  Primal recovery repairs the last iterate *and* a greedy
  choice seeded from the previous epoch, then keeps the cheapest
  feasible candidate; a seeded solve that strays too far above the
  Lagrangian lower bound also tries the from-scratch greedy, so a warm
  solve costs at most ``_SEED_DRIFT_TOL`` times the repaired greedy
  solution — the documented bound.
  :meth:`LagrangianAllocator.reset_warm_state` forces the next solve
  cold.
* **Row and placement caches** — per-application cost/resource arrays
  (including Pareto pruning) are memoized by request value, and
  :meth:`LagrangianAllocator.place_selections` memoizes the deterministic
  phase-3 placement so repeated fair-share fallbacks skip the per-core
  rebuild.

A plain greedy solver (:class:`GreedyAllocator`) is included as an
ablation baseline.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.cost import batch_costs
from repro.core.operating_point import OperatingPoint
from repro.core.pareto import dominated_mask
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.obs import OBS
from repro.platform.topology import Platform

logger = logging.getLogger(__name__)


#: Cost factor of an application's currently active configuration.
HYSTERESIS = 0.85


@dataclass
class AllocationRequest:
    """One application's input to the allocator."""

    pid: int
    points: list[OperatingPoint]
    max_utility: float = 1.0
    # Fixed-cost pseudo-requests (exploring applications asking for a fair
    # share) pin the selection to a single mandatory point.
    mandatory: bool = False
    # The application's currently active configuration, if any.  Its cost
    # receives the ``HYSTERESIS`` discount so near-tied alternatives do not
    # make the allocation flip-flop (reconfigurations are not free).
    preferred_erv: "ExtendedResourceVector | None" = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError(f"application {self.pid} offers no operating points")


@dataclass
class Selection:
    """The allocator's decision for one application."""

    pid: int
    point: OperatingPoint
    co_allocated: bool = False
    hw_threads: frozenset[int] = frozenset()


@dataclass
class AllocationResult:
    """Selections plus the concrete disjoint placement."""

    selections: dict[int, Selection] = field(default_factory=dict)
    feasible: bool = True

    def erv_of(self, pid: int) -> ExtendedResourceVector:
        return self.selections[pid].point.erv


@dataclass
class AllocatorStats:
    """Observable counters for the solver hot path.

    ``repair_give_ups`` counts repair invocations that ended with residual
    capacity violations (the co-allocation fallback territory); a solve
    repairs up to two candidate selections, so one oversubscribed epoch can
    contribute two give-ups.
    """

    solves: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    points_pruned: int = 0
    repair_calls: int = 0
    repair_steps: int = 0
    repair_give_ups: int = 0
    # Incremental-solving counters (docs/performance.md).
    warm_starts: int = 0
    # Always 0: there is no delta path any more, but perfbench reads both.
    delta_solves: int = 0
    delta_fallbacks: int = 0
    subgradient_iters: int = 0
    row_cache_hits: int = 0
    placement_cache_hits: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


def _dominated_points(
    costs: np.ndarray, cores: np.ndarray, groups: np.ndarray
) -> np.ndarray:
    """``dominated_mask`` of the (cost, cores) rows, solved on group minima.

    ``groups`` labels rows with equal ``cores``.  A row costing more than
    its group's cheapest is dominated by that cheapest row; a row at the
    minimum is dominated exactly when another group's minimum dominates
    it, so the front extraction runs on one row per distinct core vector
    (ties kept) instead of on every point.  A NaN cost is neither at nor
    above the minimum, so such a row stays unmarked, as in the full check.
    """
    low = np.full(int(groups.max()) + 1, np.inf)
    np.fmin.at(low, groups, costs)
    floor = low[groups]
    dominated = costs > floor
    best = np.flatnonzero(costs == floor)
    dominated[best] = dominated_mask(
        np.column_stack([costs[best], cores[best]])
    )
    return dominated


class _RequestKey(NamedTuple):
    """One request by value (see :meth:`LagrangianAllocator._request_key`)."""

    pid: int
    mandatory: bool
    max_utility: float
    preferred_row: int  # -1: no current configuration
    rows: bytes  # intp ErvIndex row per point
    utility: bytes  # float64 per point
    power: bytes  # float64 per point


class _Problem:
    """The dense padded MMKP instance built once per solve.

    ``C`` is (apps, max_points) with +inf cost padding, ``R`` is
    (apps, max_points, types) with zero padding; ``valid`` masks the real
    entries.  ``costs[i]`` is application ``i``'s unpadded cost vector and
    ``orig_index[i][j]`` maps a (possibly pruned) local point index back
    into ``requests[i].points``.
    """

    __slots__ = ("costs", "orig_index", "C", "R", "valid", "mandatory",
                 "rows")

    def __init__(
        self,
        costs: list[np.ndarray],
        resources: list[np.ndarray],
        orig_index: list[np.ndarray],
        requests: list[AllocationRequest],
        n_types: int,
    ):
        self.costs = costs
        self.orig_index = orig_index
        n = len(requests)
        width = max(len(c) for c in costs)
        self.C = np.full((n, width), np.inf)
        self.R = np.zeros((n, width, n_types))
        self.valid = np.zeros((n, width), dtype=bool)
        for i, (c, r) in enumerate(zip(costs, resources)):
            self.C[i, : len(c)] = c
            self.R[i, : len(c)] = r
            self.valid[i, : len(c)] = True
        self.mandatory = np.array([req.mandatory for req in requests])
        self.rows = np.arange(n)


class LagrangianAllocator:
    """Subgradient MMKP solver with greedy repair and placement.

    Args:
        cache_size: number of memoized solves to retain (0 disables).
    """

    #: Subgradient budget of a cold solve.
    _COLD_ITERS = 60
    #: Subgradient budget of a solve warm-started from the previous
    #: solve's multipliers.
    _WARM_ITERS = 20
    #: Initial subgradient step, in cost-per-core units.
    _STEP0 = 1.0
    #: Consecutive feasible, unchanged iterates after which a warm-started
    #: subgradient loop stops early.
    _WARM_STABLE_ITERS = 3
    #: Largest accepted ratio of a greedy-seeded warm solve's cost to the
    #: Lagrangian lower bound before the from-scratch greedy is also tried.
    _SEED_DRIFT_TOL = 1.10

    def __init__(
        self,
        platform: Platform,
        layout: ErvLayout,
        cache_size: int = 128,
    ):
        self.platform = platform
        self.layout = layout
        self.cache_size = cache_size
        self.stats = AllocatorStats()
        self._cache: OrderedDict[tuple, tuple] = OrderedDict()
        # Per-request candidate rows (cost vector, resource matrix, kept
        # indices), memoized by request value so unchanged applications
        # skip problem construction (pruning included) entirely.
        self._row_cache: OrderedDict[tuple, tuple] = OrderedDict()
        self._row_cache_size = 4096
        # Deterministic phase-3 placements memoized by selection signature
        # (the fair-share fallback calls place_selections() with the same
        # signature on every solver failure).
        self._placement_cache: OrderedDict[tuple, tuple] = OrderedDict()
        self._placement_cache_size = 128
        # Warm state from the previous solve.
        self._warm_lambda: np.ndarray | None = None
        # Previous epoch's repaired-greedy candidate: pid -> (key, local
        # row index), used to seed primal recovery on warm solves.
        self._last_greedy: dict[int, tuple] | None = None
        self._greedy_env: tuple | None = None
        # Static platform maps, paid once instead of per placement.
        self._core_thread_ids = {
            c.core_id: [t.thread_id for t in c.hw_threads]
            for c in platform.cores
        }

    def reset_warm_state(self) -> None:
        """Forget multipliers and per-app state (the next solve is cold)."""
        self._warm_lambda = None
        self._last_greedy = None
        self._greedy_env = None

    def clear_caches(self) -> None:
        """Drop memoized solves, candidate rows, and placements.

        Together with :meth:`reset_warm_state` this restores a
        freshly-constructed allocator: the next solve pays full problem
        construction and placement, with nothing reused across epochs.
        """
        self._cache.clear()
        self._row_cache.clear()
        self._placement_cache.clear()

    # -- public API ----------------------------------------------------------------

    def allocate(
        self,
        requests: list[AllocationRequest],
        capacity: list[int] | None = None,
        reserved: dict[str, int] | None = None,
    ) -> AllocationResult:
        """Solve Eq. 1 and place the winners on concrete cores.

        Args:
            requests: one per application.
            capacity: core budget per type (defaults to the platform).
            reserved: cores per type withheld from managed applications —
                the §4.3 production model where background/system tasks
                get a dedicated share instead of time-sharing everywhere.
        """
        if capacity is None:
            capacity = self.platform.capacity_vector()
        if reserved:
            capacity = [
                max(0, cap - reserved.get(ct.name, 0))
                for cap, ct in zip(capacity, self.platform.core_types)
            ]
            if sum(capacity) == 0:
                raise ValueError("reservation leaves no cores for applications")
        result = AllocationResult()
        if not requests:
            return result

        req_keys = [self._request_key(req) for req in requests]
        env = (tuple(capacity), tuple(sorted((reserved or {}).items())))
        key = (tuple(req_keys), env)
        cached = self._cache_get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            if OBS.enabled:
                OBS.counter("allocator.cache", result="hit").inc()
            return self._rebuild_from_cache(requests, cached)
        self.stats.cache_misses += 1
        self.stats.solves += 1

        with OBS.span("allocator.solve", track="rm", apps=len(requests)):
            result = self._solve(
                requests, req_keys, capacity, env, reserved or {}
            )
        selections = result.selections
        if self.cache_size:
            self._cache_put(key, self._cache_entry_from_result(requests, result))
        if OBS.enabled:
            OBS.counter("allocator.cache", result="miss").inc()
            OBS.counter("allocator.solves").inc()
            if not result.feasible:
                OBS.event(
                    "allocator.co_allocation", track="rm",
                    apps=sorted(
                        s.pid for s in selections.values() if s.co_allocated
                    ),
                )
        return result

    def _solve(
        self,
        requests: list[AllocationRequest],
        req_keys: list[tuple],
        capacity: list[int],
        env: tuple,
        reserved: dict[str, int],
    ) -> AllocationResult:
        problem = self._build_problem(requests, req_keys, len(capacity))
        lam0 = None
        greedy_seed = None
        if (
            self._warm_lambda is not None
            and len(self._warm_lambda) == len(capacity)
        ):
            lam0 = self._warm_lambda
            self.stats.warm_starts += 1
            if OBS.enabled:
                OBS.counter("alloc.warm_start_hits").inc()
            greedy_seed = self._greedy_seed_for(requests, req_keys, problem, env)
        capacity_arr = np.asarray(capacity, dtype=float)
        local, lam_final, iters, greedy = self._select(
            requests, problem, capacity_arr, lam0, greedy_seed
        )
        if greedy_seed is not None:
            local = self._bound_seed_drift(
                requests, problem, capacity_arr, local, lam_final
            )
        self.stats.subgradient_iters += iters
        if OBS.enabled:
            OBS.counter("allocator.subgradient_iterations").inc(iters)
        choices = [int(problem.orig_index[i][c]) for i, c in enumerate(local)]
        selections = {
            req.pid: Selection(pid=req.pid, point=req.points[idx])
            for req, idx in zip(requests, choices)
        }
        self._mark_and_place(selections, capacity, reserved)
        result = AllocationResult(
            selections=selections,
            feasible=not any(s.co_allocated for s in selections.values()),
        )
        if lam_final is not None:
            self._warm_lambda = np.array(lam_final, dtype=float)
        if greedy is not None:
            self._last_greedy = {
                req.pid: (rk, int(g))
                for req, rk, g in zip(requests, req_keys, greedy)
            }
            self._greedy_env = env
        return result

    def _bound_seed_drift(
        self,
        requests: list[AllocationRequest],
        problem: _Problem,
        capacity: np.ndarray,
        local: list[int],
        lam: np.ndarray,
    ) -> list[int]:
        """Bound how far a greedy-seeded warm solve drifts from scratch.

        Repair only downgrades, so a primal-recovery candidate seeded from
        earlier epochs can ratchet below what a from-scratch repair finds.
        The dual value L(λ) = Σ_i min_j (c_ij + λ·r_ij) − λ·capacity is a
        lower bound on the optimum.  A feasible solve costing at most
        ``_SEED_DRIFT_TOL`` × L(λ) is kept; otherwise the from-scratch
        repaired greedy is computed too and the better candidate wins.
        Either way a warm solve costs at most ``_SEED_DRIFT_TOL`` times
        the from-scratch repaired-greedy bound.
        """
        key = self._candidate_key(problem, local, capacity)
        penalized = problem.C + problem.R @ lam
        pick = np.argmin(penalized, axis=1)
        pick[problem.mandatory] = 0
        dual = float(penalized[problem.rows, pick].sum() - lam @ capacity)
        if not key[0] and key[1] <= self._SEED_DRIFT_TOL * dual:
            return local
        fresh = np.argmin(problem.C, axis=1)
        fresh[problem.mandatory] = 0
        fresh = self._repair(requests, problem, fresh, capacity)
        if self._candidate_key(problem, fresh, capacity) < key:
            return [int(c) for c in fresh]
        return local

    def _greedy_seed_for(
        self,
        requests: list[AllocationRequest],
        req_keys: list[tuple],
        problem: _Problem,
        env: tuple,
    ) -> list[int] | None:
        """Per-app starting points for primal recovery's greedy repair.

        An unchanged application (same request value, same capacity and
        reservation) reuses its repaired-greedy choice from the previous
        epoch — already feasible in combination with the other unchanged
        apps.  Changed or new applications fall back to their true greedy
        (cheapest-cost) pick.  Local row indices stay valid across epochs
        for unchanged requests because candidate rows are memoized by
        request value.

        The seed is dropped entirely when an application left since the
        previous epoch: repair only ever downgrades, so seeded entries
        could never claim the freed capacity back and the candidate would
        drift away from the from-scratch greedy bound.
        """
        cached = self._last_greedy
        if cached is None or self._greedy_env != env:
            return None
        pids = {req.pid for req in requests}
        if any(pid not in pids for pid in cached):
            return None
        seed: list[int] = []
        hits = 0
        for i, (req, rk) in enumerate(zip(requests, req_keys)):
            prev = cached.get(req.pid)
            if prev is not None and prev[0] == rk:
                seed.append(prev[1])
                hits += 1
            elif req.mandatory:
                seed.append(0)
            else:
                seed.append(int(np.argmin(problem.costs[i])))
        return seed if hits else None

    # -- memoization -----------------------------------------------------------------

    def _request_key(self, req: AllocationRequest) -> "_RequestKey":
        """A by-value hash of everything one request contributes to a solve.

        Points enter as their rows in the layout's :class:`ErvIndex` plus
        their utility and power, copied into bytes when the key is made:
        a table whose points mutate in place (EMA updates, regression
        refreshes) changes the key and invalidates any memoized solve or
        cached row.  Bytes cache their hash and compare as one block, so
        a memo or row-cache lookup costs no per-point work.
        """
        points = req.points
        index = self.layout.index()
        rows = index.rows([p.erv for p in points])
        preferred = (
            -1 if req.preferred_erv is None else index.row(req.preferred_erv)
        )
        return _RequestKey(
            req.pid,
            req.mandatory,
            req.max_utility,
            preferred,
            rows.tobytes(),
            np.array([p.utility for p in points], dtype=float).tobytes(),
            np.array([p.power for p in points], dtype=float).tobytes(),
        )

    def _cache_get(self, key: tuple) -> tuple | None:
        if not self.cache_size:
            return None
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
        return entry

    def _cache_put(self, key: tuple, entry: tuple) -> None:
        if not self.cache_size:
            return
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    @staticmethod
    def _cache_entry_from_result(
        requests: list[AllocationRequest], result: AllocationResult
    ) -> tuple:
        rows = []
        for req in requests:
            sel = result.selections[req.pid]
            idx = next(
                i for i, p in enumerate(req.points) if p is sel.point
            )
            rows.append((req.pid, idx, sel.co_allocated, sel.hw_threads))
        return (tuple(rows), result.feasible)

    @staticmethod
    def _rebuild_from_cache(
        requests: list[AllocationRequest], entry: tuple
    ) -> AllocationResult:
        """Fresh Selection objects so callers never alias cached state."""
        rows, feasible = entry
        result = AllocationResult(feasible=feasible)
        for req, (pid, idx, co, hw) in zip(requests, rows):
            result.selections[pid] = Selection(
                pid=pid,
                point=req.points[idx],
                co_allocated=co,
                hw_threads=hw,
            )
        return result

    # -- problem construction (padding + pruning) ---------------------------------------

    def _request_rows(
        self, req: AllocationRequest, req_key: "_RequestKey"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One application's (cost vector, resource matrix, kept indices).

        Built from the key's index rows and values: costs through
        ``batch_costs``, the resource matrix as rows of ``ErvIndex.cores``.
        Memoized by request value: consecutive epochs re-solve with mostly
        unchanged tables, so the padding/pruning work is paid once per
        distinct request instead of once per solve.
        """
        cached = self._row_cache.get(req_key)
        if cached is not None:
            self._row_cache.move_to_end(req_key)
            self.stats.row_cache_hits += 1
            return cached
        rows = np.frombuffer(req_key.rows, dtype=np.intp)
        cost_vec = batch_costs(
            np.frombuffer(req_key.power),
            np.frombuffer(req_key.utility),
            req.max_utility,
        )
        if req_key.preferred_row >= 0:
            cost_vec[rows == req_key.preferred_row] *= HYSTERESIS
        index = self.layout.index()
        res_mat = index.cores[rows]
        keep = np.arange(len(rows))
        if not req.mandatory and len(rows) > 1:
            # Hysteresis is applied before pruning, so a discounted
            # current point survives exactly when the solver could
            # still pick it.
            dominated = _dominated_points(
                cost_vec, res_mat, index.core_group[rows]
            )
            if dominated.any():
                keep = np.flatnonzero(~dominated)
                self.stats.points_pruned += int(dominated.sum())
                if OBS.enabled:
                    OBS.counter("allocator.points_pruned").inc(
                        int(dominated.sum())
                    )
                cost_vec = cost_vec[keep]
                res_mat = res_mat[keep]
        entry = (cost_vec, res_mat, keep)
        self._row_cache[req_key] = entry
        while len(self._row_cache) > self._row_cache_size:
            self._row_cache.popitem(last=False)
        return entry

    def _build_problem(
        self,
        requests: list[AllocationRequest],
        req_keys: list[tuple] | None,
        n_types: int,
    ) -> _Problem:
        if req_keys is None:
            req_keys = [self._request_key(req) for req in requests]
        costs: list[np.ndarray] = []
        resources: list[np.ndarray] = []
        orig_index: list[np.ndarray] = []
        for req, rk in zip(requests, req_keys):
            cost_vec, res_mat, keep = self._request_rows(req, rk)
            costs.append(cost_vec)
            resources.append(res_mat)
            orig_index.append(keep)
        return _Problem(costs, resources, orig_index, requests, n_types)

    # -- phase 1+2: selection ---------------------------------------------------------

    @staticmethod
    def _cost_scale(costs: list[np.ndarray]) -> float:
        """Median of per-application minimum costs, guarded for emptiness."""
        mins = [float(c.min()) for c in costs if len(c)]
        if not mins:
            return 1.0
        return max(1.0, float(np.median(mins)))

    @staticmethod
    def _candidate_key(
        problem: _Problem, choice, capacity: np.ndarray
    ) -> tuple[bool, float]:
        """Primal-recovery order: feasible candidates first, then cheapest."""
        demand = problem.R[problem.rows, choice].sum(axis=0)
        feasible = bool(np.all(demand - capacity <= 1e-9))
        return (not feasible, float(problem.C[problem.rows, choice].sum()))

    def _repair_bound(self, problem: _Problem) -> int:
        """Repair-step budget derived from problem size (apps × points)."""
        return max(1, len(problem.costs) * problem.C.shape[1])

    def _select(
        self,
        requests: list[AllocationRequest],
        problem: _Problem,
        capacity: np.ndarray,
        lam0: np.ndarray | None = None,
        greedy_seed: list[int] | None = None,
    ) -> tuple[list[int], np.ndarray | None, int, list[int] | None]:
        """Run phase 1+2; returns (choices, final λ, iterations, greedy).

        ``lam0`` warm-starts the subgradient loop; warm solves run the
        shorter ``_WARM_ITERS`` schedule and stop early once the
        iterate has been feasible and unchanged for
        ``_WARM_STABLE_ITERS`` consecutive iterations.  Cold solves
        (``lam0 is None``) keep the original fixed schedule bit-for-bit.

        ``greedy_seed`` (warm solves only) replaces the from-scratch
        unconstrained-greedy starting point of primal recovery with the
        previous epoch's repaired-greedy choices for unchanged
        applications; repair then starts near-feasible and finishes in a
        handful of steps instead of unwinding a fully oversubscribed
        greedy pick every epoch.  The returned ``greedy`` component is
        this epoch's repaired-greedy candidate, for seeding the next one.
        """
        C, R = problem.C, problem.R
        rows, mandatory = problem.rows, problem.mandatory
        warm = lam0 is not None
        lam = np.array(lam0, dtype=float) if warm else np.zeros(len(capacity))
        max_iters = self._WARM_ITERS if warm else self._COLD_ITERS
        cost_scale = self._cost_scale(problem.costs)
        total_cores = float(max(capacity.sum(), 1.0))
        best_cost = np.inf
        best_choice: np.ndarray | None = None
        choice = np.zeros(len(requests), dtype=int)
        prev_choice: np.ndarray | None = None
        stable = 0
        iters = 0
        for it in range(max_iters):
            iters = it + 1
            penalized = C + R @ lam
            choice = np.argmin(penalized, axis=1)
            choice[mandatory] = 0
            demand = R[rows, choice].sum(axis=0)
            violation = demand - capacity
            feasible = bool(np.all(violation <= 0))
            if feasible:
                total = float(C[rows, choice].sum())
                if total < best_cost:
                    best_cost = total
                    best_choice = choice.copy()
            step = self._STEP0 * cost_scale / (total_cores * (1 + it))
            lam = np.maximum(0.0, lam + step * violation)
            stable = (
                stable + 1
                if prev_choice is not None and np.array_equal(choice, prev_choice)
                else 0
            )
            prev_choice = choice
            if warm and feasible and stable >= self._WARM_STABLE_ITERS:
                break
        last_choice = choice

        # Primal recovery: repair both the final relaxed iterate and the
        # unconstrained greedy choice (or the previous epoch's seed), then
        # keep the cheapest feasible candidate (including the best feasible
        # dual iterate, if any).
        if greedy_seed is not None:
            unconstrained = np.asarray(greedy_seed, dtype=int)
        else:
            unconstrained = np.argmin(C, axis=1)
            unconstrained[mandatory] = 0
        repaired_greedy_arr = np.asarray(
            self._repair(requests, problem, unconstrained, capacity),
            dtype=int,
        )
        candidates = [
            self._repair(requests, problem, last_choice, capacity),
            repaired_greedy_arr,
        ]
        if best_choice is not None:
            candidates.append(best_choice)
        best = None
        for cand in candidates:
            cand = np.asarray(cand, dtype=int)
            key = self._candidate_key(problem, cand, capacity)
            if best is None or key < best[0]:
                best = (key, cand)
        assert best is not None
        return (
            [int(c) for c in best[1]],
            lam,
            iters,
            [int(c) for c in repaired_greedy_arr],
        )

    # -- phase 2: repair ----------------------------------------------------------------

    def _repair(
        self,
        requests: list[AllocationRequest],
        problem: _Problem,
        choice,
        capacity: np.ndarray,
    ) -> np.ndarray:
        """Greedy downgrade until the capacity constraint holds (or gives up).

        Each move swaps one application's selection for the alternative
        with the lowest extra cost per unit of *total* violation removed —
        violations newly created on other core types count against a
        candidate, which prevents repair from cycling between types.
        The step budget scales with problem size (apps × points); when it
        is exhausted, or no swap shrinks the violation, the give-up is
        counted so co-allocation fallbacks stay observable.
        """
        self.stats.repair_calls += 1
        if OBS.enabled:
            OBS.counter("allocator.repair_calls").inc()
        C, R = problem.C, problem.R
        rows = problem.rows
        width = C.shape[1]
        choice = np.array(choice, dtype=int)
        swappable = problem.valid.copy()
        swappable[problem.mandatory, :] = False
        for _ in range(self._repair_bound(problem)):
            sel_res = R[rows, choice]
            demand = sel_res.sum(axis=0)
            violation = float(np.maximum(demand - capacity, 0.0).sum())
            if violation <= 1e-9:
                return choice
            # base[i, j, :] = demand with app i's selection swapped for j.
            base = demand[None, None, :] - sel_res[:, None, :] + R
            new_violation = np.maximum(base - capacity, 0.0).sum(axis=2)
            improvement = violation - new_violation
            mask = swappable & (improvement > 1e-9)
            mask[rows, choice] = False
            if not mask.any():
                self._give_up("no improving swap", violation)
                return choice
            cur_cost = C[rows, choice]
            with np.errstate(divide="ignore", invalid="ignore"):
                penalty = (C - cur_cost[:, None]) / improvement
            penalty = np.where(mask, penalty, np.inf)
            # First row-major occurrence of the minimum: ties go to the
            # lowest (app, point), as a strict-less scalar scan would.
            i, j = divmod(int(np.argmin(penalty)), width)
            self.stats.repair_steps += 1
            if OBS.enabled:
                OBS.counter("allocator.repair_steps").inc()
            choice[i] = j
        self._give_up("step budget exhausted", violation)
        return choice

    def _give_up(self, reason: str, violation: float) -> None:
        self.stats.repair_give_ups += 1
        if OBS.enabled:
            OBS.counter("allocator.repair_give_ups").inc()
            OBS.event(
                "allocator.repair_give_up", track="rm",
                reason=reason, residual_violation=violation,
            )
        logger.debug(
            "allocator repair gave up (%s); residual violation %.3f cores "
            "-> co-allocation fallback", reason, violation,
        )

    # -- phase 3: placement ---------------------------------------------------------------

    def place_selections(
        self,
        selections: dict[int, Selection],
        capacity: list[int],
        reserved: dict[str, int] | None = None,
    ) -> None:
        """Public placement entry point for externally built selections.

        Used by the RM's graceful-degradation path: when the MMKP solve
        fails, the manager builds fair-share selections itself and only
        needs the deterministic disjoint placement (with co-allocation
        overflow) that the solver normally runs as its phase 3.

        Placement is a pure function of the selection signature (pid →
        ERV counts), the capacity, and the reservation, so it is memoized:
        a solver-failure storm re-validates each epoch against the cached
        placement instead of rebuilding the per-core pools every call.
        """
        key = (
            tuple(
                (pid, selections[pid].point.erv.counts)
                for pid in sorted(selections)
            ),
            tuple(capacity),
            tuple(sorted((reserved or {}).items())),
        )
        entry = self._placement_cache.get(key)
        if entry is not None:
            self._placement_cache.move_to_end(key)
            self.stats.placement_cache_hits += 1
            if OBS.enabled:
                OBS.counter("allocator.placement_cache", result="hit").inc()
            for pid, hw, co in entry:
                selections[pid].hw_threads = hw
                selections[pid].co_allocated = co
            return
        self._mark_and_place(selections, capacity, reserved)
        if OBS.enabled:
            OBS.counter("allocator.placement_cache", result="miss").inc()
        self._placement_cache[key] = tuple(
            (pid, sel.hw_threads, sel.co_allocated)
            for pid, sel in sorted(selections.items())
        )
        while len(self._placement_cache) > self._placement_cache_size:
            self._placement_cache.popitem(last=False)

    def _mark_and_place(
        self,
        selections: dict[int, Selection],
        capacity: list[int],
        reserved: dict[str, int] | None = None,
    ) -> None:
        """Place ERVs disjointly; overflow applications get co-allocated.

        Reserved cores (the highest-numbered ones of each type) are never
        handed to managed applications — they stay free for background
        work.
        """
        type_order = [ct.name for ct in self.platform.core_types]
        free_cores: dict[str, list] = {}
        # Pools are consumed via an index cursor rather than pop(0): the
        # head-pop shifts the whole list and dominated placement at fleet
        # scale (hundreds of cores, hundreds of applications).
        next_free: dict[str, int] = {}
        for name in type_order:
            pool = list(self.platform.cores_of_type(name))
            hold_back = (reserved or {}).get(name, 0)
            if hold_back:
                pool = pool[: max(0, len(pool) - hold_back)]
            free_cores[name] = pool
            next_free[name] = 0

        # Deterministic order: larger requests first, then pid.
        ordered = sorted(
            selections.values(),
            key=lambda s: (-s.point.erv.total_cores(), s.pid),
        )
        pending_co: list[Selection] = []
        thread_ids = self._core_thread_ids
        for sel in ordered:
            erv = sel.point.erv
            if any(
                need > len(free_cores[name]) - next_free[name]
                for name, need in zip(type_order, erv.core_vector())
            ):
                pending_co.append(sel)
                continue
            hw_ids: list[int] = []
            for comp, count in zip(erv.layout.components, erv.counts):
                pool = free_cores[comp.core_type]
                pos = next_free[comp.core_type]
                for _ in range(count):
                    core = pool[pos]
                    pos += 1
                    hw_ids.extend(
                        thread_ids[core.core_id][: comp.threads_used]
                    )
                next_free[comp.core_type] = pos
            sel.hw_threads = frozenset(hw_ids)

        # Co-allocation: share the least-loaded cores of the demanded types.
        if pending_co:
            core_of_hw = self.platform.core_of_hw_thread
            usage: dict[int, int] = {c.core_id: 0 for c in self.platform.cores}
            for sel in selections.values():
                for hw_id in sel.hw_threads:
                    usage[core_of_hw[hw_id]] += 1
            allowed: dict[str, list] = {}
            for name in type_order:
                pool = list(self.platform.cores_of_type(name))
                hold_back = (reserved or {}).get(name, 0)
                if hold_back:
                    pool = pool[: max(0, len(pool) - hold_back)]
                allowed[name] = pool
            for sel in pending_co:
                sel.co_allocated = True
                erv = sel.point.erv
                hw_ids = []
                for comp, count in zip(erv.layout.components, erv.counts):
                    pool = sorted(
                        allowed.get(comp.core_type, []),
                        key=lambda c: (usage[c.core_id], c.core_id),
                    )
                    take = min(count, len(pool))
                    for core in pool[:take]:
                        usage[core.core_id] += 1
                        hw_ids.extend(
                            t.thread_id
                            for t in core.hw_threads[: comp.threads_used]
                        )
                if not hw_ids:
                    # Degenerate: grant the whole machine (pure time-sharing).
                    hw_ids = [t.thread_id for t in self.platform.hw_threads]
                sel.hw_threads = frozenset(hw_ids)


class GreedyAllocator(LagrangianAllocator):
    """Ablation baseline: pure cost-greedy selection without relaxation.

    Each application independently takes its cheapest point; the repair
    phase then enforces feasibility.  No λ coordination means popular
    resource types are oversubscribed before repair kicks in.
    """

    def _select(
        self,
        requests: list[AllocationRequest],
        problem: _Problem,
        capacity: np.ndarray,
        lam0: np.ndarray | None = None,
        greedy_seed: list[int] | None = None,
    ) -> tuple[list[int], np.ndarray | None, int, list[int] | None]:
        choice = np.argmin(problem.C, axis=1)
        choice[problem.mandatory] = 0
        repaired = self._repair(requests, problem, choice, capacity)
        return [int(c) for c in repaired], None, 0, None
