"""Per-thread test oracle for the CFS baseline's placement.

:class:`PerThreadCfsScheduler` keeps the placement loop that
``CfsScheduler.place`` ran before it remembered a fill order: every
runnable thread, restricted or not, takes a ``min`` over its allowed
hardware threads with a fresh scoring closure.  Scoring ties break on
the hardware-thread id, so the greedy is a pure function of the runnable
threads and their masks, and the production scheduler must return the
same placement, in the same insertion order, on every input — the
property tests in ``test_cfs_fill_order.py`` check exactly that.
"""

from __future__ import annotations

from repro.sim.process import ThreadId
from repro.sim.schedulers.cfs import CfsScheduler


class PerThreadCfsScheduler(CfsScheduler):
    """CFS placing each runnable thread by its own greedy scan."""

    def place(self, world) -> dict[ThreadId, int]:
        # The topology maps are static per platform; rebuild only when
        # the scheduler meets a different world.
        if self._platform is not world.platform:
            hw_threads = world.platform.hw_threads
            self._capacity = {
                t.thread_id: t.core_type.base_speed for t in hw_threads
            }
            self._core_of = {t.thread_id: t.core_id for t in hw_threads}
            self._platform = world.platform
        capacity = self._capacity
        core_of = self._core_of

        load: dict[int, int] = dict.fromkeys(capacity, 0)
        # Number of busy hw threads per core, maintained incrementally as
        # threads are placed — the same value the original per-candidate
        # sibling scan computed, at O(1) per lookup.
        core_busy: dict[int, int] = dict.fromkeys(core_of.values(), 0)
        placement: dict[ThreadId, int] = {}
        for process, thread in self.runnable(world):
            allowed = self.allowed_hw_threads(world, process)
            if not allowed:
                continue

            def score(hw_id: int) -> tuple:
                return (
                    load[hw_id],            # idle hw threads first
                    core_busy[core_of[hw_id]],  # idle cores before SMT siblings
                    -capacity[hw_id],       # higher capacity first
                    hw_id,                  # deterministic tie-break
                )

            best = min(allowed, key=score)
            placement[thread.tid] = best
            if load[best] == 0:
                core_busy[core_of[best]] += 1
            load[best] += 1
        return placement
