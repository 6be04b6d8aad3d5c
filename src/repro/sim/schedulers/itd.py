"""Intel Thread Director (ITD)-based allocator baseline.

Models the paper's extended ITD baseline (§6.1): the hardware classifies
each thread's instruction mix and exposes per-class performance/efficiency
scores per core type; an allocator inspired by Saez et al. / PMCSched uses
the classification to place the threads that benefit most from P-cores
there and routes the rest to E-cores.

The classification is synthetic: each application model reports an ITD
class and a P-vs-E performance ratio for its instruction mix, standing in
for the hardware's ML classifier.  Like the real ITD path, the allocator
is *per-thread* — it neither coordinates threads of one application nor
communicates decisions back, which is why it degrades in the paper's
multi-application scenarios.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.process import ThreadId
from repro.sim.schedulers.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import World


class ItdScheduler(Scheduler):
    """Classification-driven P/E placement."""

    name = "itd"

    def placement_signature(self, world: "World") -> tuple:
        # Placement depends on the runnable set, affinities, and each
        # thread's ITD class (phase extensions may reclassify threads).
        return self._remembered_signature(
            world, lambda process, thread: (
                thread.tid, process.affinity, thread.itd_class
            ),
        )

    def next_preemption_tick(self, world: "World") -> int | None:
        # Classification-driven placement has no quantum: it only moves
        # when the runnable set or a thread's ITD class moves the
        # signature.
        return None

    def place(self, world: "World") -> dict[ThreadId, int]:
        platform = world.platform
        hw_threads = platform.hw_threads
        max_speed = max(ct.base_speed for ct in platform.core_types)

        load: dict[int, int] = {t.thread_id: 0 for t in hw_threads}
        core_of = {t.thread_id: t.core_id for t in hw_threads}
        siblings: dict[int, list[int]] = {}
        for t in hw_threads:
            siblings.setdefault(t.core_id, []).append(t.thread_id)
        is_fast = {
            t.thread_id: t.core_type.base_speed >= max_speed - 1e-12
            for t in hw_threads
        }

        # Threads with the largest P-core benefit (per the ITD classifier's
        # perf ratio) are placed first and grab the fast cores.
        pairs = sorted(
            self.runnable(world),
            key=lambda pt: (-pt[0].model.itd_perf_ratio(pt[1].itd_class), pt[1].tid),
        )
        placement: dict[ThreadId, int] = {}
        for process, thread in pairs:
            allowed = self.allowed_hw_threads(world, process)
            if not allowed:
                continue
            ratio = process.model.itd_perf_ratio(thread.itd_class)

            def score(hw_id: int) -> tuple:
                core_busy = sum(
                    1 for s in siblings[core_of[hw_id]] if load[s] > 0
                )
                # Idle hardware threads always win (no classifier stacks
                # work while cores sit idle), but once the machine is
                # saturated the classification dominates: threads pile
                # onto their preferred core type regardless of queue
                # depth.  This per-thread, application-blind packing is
                # precisely what degrades ITD in multi-application
                # scenarios (§6.3.2).
                wants_fast = ratio > 1.15
                type_rank = 0 if (is_fast[hw_id] == wants_fast) else 1
                busy = 1 if load[hw_id] > 0 else 0
                return (busy, type_rank, load[hw_id], core_busy, hw_id)

            best = min(allowed, key=score)
            placement[thread.tid] = best
            load[best] += 1
        return placement
