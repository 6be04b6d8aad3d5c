"""CFS-like baseline scheduler.

Models the behaviour of the Linux Completely Fair Scheduler on a hybrid
processor at the granularity HARP observes: per-tick load-balanced
placement.  The heuristic mirrors capacity-aware CFS:

1. never stack a thread on a busy hardware thread while an idle one is
   allowed (idle-core preference),
2. among idle hardware threads prefer a fully idle core over an SMT
   sibling of a busy core,
3. prefer higher-capacity (P/big) cores,
4. balance by per-hardware-thread run-queue length otherwise.

Crucially — and this is the gap the paper targets — CFS has no notion of
application-level behaviour: every runnable thread is balanced
individually, and applications are never told where they run.

Threads are placed greedily, one at a time, each on the allowed hardware
thread with the least score.  A thread without an affinity mask may run
anywhere, so its choice depends only on the choices before it, not on
which thread it is: a run of k unrestricted threads always takes the
first k entries of one per-platform *fill order*.  The scheduler
remembers that order, extends it with the same greedy step when a longer
run arrives, and drops it with its other topology maps when it meets a
different platform; placing a leading run of unrestricted threads is then
a copy of the order's prefix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.process import ThreadId
from repro.sim.schedulers.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import World


class CfsScheduler(Scheduler):
    """Capacity-aware load-balancing baseline."""

    name = "cfs"

    def __init__(self) -> None:
        self._platform = None
        self._capacity: dict[int, float] = {}
        self._core_of: dict[int, int] = {}
        # The fill order, and the run-queue state after placing all of it.
        self._fill_order: list[int] = []
        self._fill_load: dict[int, int] = {}
        self._fill_core_busy: dict[int, int] = {}

    def placement_signature(self, world: "World") -> tuple:
        # The placement is a pure function of the runnable thread set (in
        # order) and each process's affinity mask.
        return self._remembered_signature(
            world, lambda process, thread: (thread.tid, process.affinity)
        )

    def next_preemption_tick(self, world: "World") -> int | None:
        # No quantum: threads stay put until the runnable set or an
        # affinity mask moves the signature, so busy stretches never
        # expire on scheduler time alone.
        return None

    def place(self, world: "World") -> dict[ThreadId, int]:
        """Place every runnable thread, in runnable order, greedily.

        The leading run of threads without an affinity mask takes the
        prefix of the remembered fill order: the greedy's k-th choice
        over all hardware threads depends only on the k - 1 choices
        before it, so the prefix is exactly what the per-thread greedy
        would pick.  From the first masked thread on, the run-queue
        state is rebuilt from that prefix and every remaining thread
        takes the same greedy step (:meth:`_place_one`) over its allowed
        hardware threads.
        """
        # The topology maps are static per platform; rebuild only when
        # the scheduler meets a different world.
        if self._platform is not world.platform:
            hw_threads = world.platform.hw_threads
            self._capacity = {
                t.thread_id: t.core_type.base_speed for t in hw_threads
            }
            self._core_of = {t.thread_id: t.core_id for t in hw_threads}
            self._fill_order = []
            self._fill_load = dict.fromkeys(self._capacity, 0)
            self._fill_core_busy = dict.fromkeys(self._core_of.values(), 0)
            self._platform = world.platform

        runnable = self.runnable(world)
        free = 0
        for process, _ in runnable:
            if process.affinity is not None:
                break
            free += 1
        fill = self._fill_order
        while len(fill) < free:
            fill.append(
                self._place_one(
                    world._hw_ids, self._fill_load, self._fill_core_busy
                )
            )
        placement: dict[ThreadId, int] = {
            thread.tid: hw_id
            for (_, thread), hw_id in zip(runnable[:free], fill)
        }
        if free == len(runnable):
            return placement

        core_of = self._core_of
        load = dict.fromkeys(self._capacity, 0)
        core_busy = dict.fromkeys(core_of.values(), 0)
        for hw_id in fill[:free]:
            if load[hw_id] == 0:
                core_busy[core_of[hw_id]] += 1
            load[hw_id] += 1
        for process, thread in runnable[free:]:
            allowed = self.allowed_hw_threads(world, process)
            if allowed:
                placement[thread.tid] = self._place_one(allowed, load, core_busy)
        return placement

    def _place_one(
        self,
        allowed: list[int],
        load: dict[int, int],
        core_busy: dict[int, int],
    ) -> int:
        """One greedy step: the best allowed hardware thread, queued on.

        ``core_busy`` counts the busy hardware threads per core, kept in
        step with ``load`` so the SMT-sibling term is an O(1) lookup.
        """
        capacity = self._capacity
        core_of = self._core_of

        def score(hw_id: int) -> tuple:
            return (
                load[hw_id],                # idle hw threads first
                core_busy[core_of[hw_id]],  # idle cores before SMT siblings
                -capacity[hw_id],           # higher capacity first
                hw_id,                      # deterministic tie-break
            )

        best = min(allowed, key=score)
        if load[best] == 0:
            core_busy[core_of[best]] += 1
        load[best] += 1
        return best
