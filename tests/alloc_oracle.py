"""Scalar test oracle for the allocator's batched solver.

:class:`ScalarOracleAllocator` runs the original per-application Python
loops for phase 1+2 (subgradient selection and greedy repair) over the
same problem matrices the production solver builds; problem
construction, pruning, warm state, memoization and placement are
inherited unchanged.  ``np.argmin``'s first-occurrence tie-breaking
matches the loops' strict-less iteration order, so whenever argmins are
unique the two solvers must agree selection-for-selection — the parity
sweeps in ``test_perf_hotpaths.py`` and ``test_scale.py`` check exactly
that.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocator import LagrangianAllocator


def _resources(problem) -> list[np.ndarray]:
    """Per-application resource matrices, unpadded."""
    return [problem.R[i, : len(c)] for i, c in enumerate(problem.costs)]


class ScalarOracleAllocator(LagrangianAllocator):
    """The Lagrangian allocator with scalar selection and repair loops."""

    def _select(self, requests, problem, capacity, lam0=None, greedy_seed=None):
        costs, resources = problem.costs, _resources(problem)
        warm = lam0 is not None
        lam = np.array(lam0, dtype=float) if warm else np.zeros(len(capacity))
        max_iters = self._WARM_ITERS if warm else self._COLD_ITERS
        cost_scale = self._cost_scale(costs)
        total_cores = float(max(capacity.sum(), 1.0))
        best_cost = np.inf
        best_choice: list[int] | None = None
        last_choice = [0] * len(requests)
        prev_choice: list[int] | None = None
        stable = 0
        iters = 0
        for it in range(max_iters):
            iters = it + 1
            choice = []
            for req, cost_vec, res_mat in zip(requests, costs, resources):
                if req.mandatory:
                    choice.append(0)
                    continue
                penalized = cost_vec + res_mat @ lam
                choice.append(int(np.argmin(penalized)))
            last_choice = choice
            demand = sum(
                res_mat[c] for res_mat, c in zip(resources, choice)
            )
            violation = demand - capacity
            feasible = bool(np.all(violation <= 0))
            if feasible:
                total = sum(c[x] for c, x in zip(costs, choice))
                if total < best_cost:
                    best_cost = total
                    best_choice = choice
            step = self._STEP0 * cost_scale / (total_cores * (1 + it))
            lam = np.maximum(0.0, lam + step * violation)
            stable = stable + 1 if choice == prev_choice else 0
            prev_choice = choice
            if warm and feasible and stable >= self._WARM_STABLE_ITERS:
                break

        if greedy_seed is not None:
            unconstrained = list(greedy_seed)
        else:
            unconstrained = [
                0 if req.mandatory else int(np.argmin(cost_vec))
                for req, cost_vec in zip(requests, costs)
            ]
        repaired_greedy = [
            int(c)
            for c in self._repair(requests, problem, unconstrained, capacity)
        ]
        candidates = [
            self._repair(requests, problem, last_choice, capacity),
            repaired_greedy,
        ]
        if best_choice is not None:
            candidates.append(best_choice)
        best = None
        for choice in candidates:
            total = sum(c[x] for c, x in zip(costs, choice))
            demand = sum(res[c] for res, c in zip(resources, choice))
            feasible = bool(np.all(demand - capacity <= 1e-9))
            key = (not feasible, total)
            if best is None or key < best[0]:
                best = (key, choice)
        assert best is not None
        return [int(c) for c in best[1]], lam, iters, repaired_greedy

    def _repair(self, requests, problem, choice, capacity):
        self.stats.repair_calls += 1
        costs, resources = problem.costs, _resources(problem)
        choice = list(choice)
        for _ in range(self._repair_bound(problem)):
            demand = sum(res[c] for res, c in zip(resources, choice))
            violation = float(np.maximum(demand - capacity, 0.0).sum())
            if violation <= 1e-9:
                return choice
            best = None  # (penalty_per_unit, app_idx, point_idx)
            for i, req in enumerate(requests):
                if req.mandatory:
                    continue
                cur_cost = costs[i][choice[i]]
                cur_res = resources[i][choice[i]]
                base = demand - cur_res
                for j in range(len(costs[i])):
                    if j == choice[i]:
                        continue
                    new_violation = float(
                        np.maximum(base + resources[i][j] - capacity, 0.0).sum()
                    )
                    improvement = violation - new_violation
                    if improvement <= 1e-9:
                        continue
                    penalty = (costs[i][j] - cur_cost) / improvement
                    if best is None or penalty < best[0]:
                        best = (penalty, i, j)
            if best is None:
                self._give_up("no improving swap", violation)
                return choice
            self.stats.repair_steps += 1
            _, i, j = best
            choice[i] = j
        self._give_up("step budget exhausted", violation)
        return choice
