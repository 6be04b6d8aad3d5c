"""Linux Energy-Aware Scheduler (EAS) baseline.

EAS tracks per-task demand with PELT and places tasks to minimize energy
according to the platform's energy model, preferring LITTLE cores for
low-demand tasks and migrating "misfit" tasks — whose utilization
saturates a LITTLE core — up to the big island (§3.1).  We reproduce this
decision structure:

* each task carries a PELT-style utilization, kept here (see below);
* a task whose scaled demand exceeds 80% of LITTLE capacity is a misfit
  and must run big;
* remaining tasks are placed on the core (within capacity) with the lowest
  estimated energy per unit of work, i.e. LITTLE first;
* like CFS, idle cores are preferred over stacking.

As in the paper, EAS reasons about threads individually and never informs
applications of its decisions.

PELT lives in this module, its one reader.  A thread's average decays by
``decay = 0.5 ** (tick_s / 32 ms)`` per tick and, on a tick it ran, gains
``activity·share · (1 - decay)``.  :meth:`EasScheduler.account` folds in
the ticks a thread ran as the engine applies them; the ticks it did not
run are caught up lazily, one ``u * decay`` each, when :meth:`place`
next reads the thread.  The catch-up stops once ``u * decay == u``:
zero is a fixed point, and so are two subnormal ulps (1e-323) at the
default 0.01 s tick, where the factor is ~0.805.  These are the float
operations of a per-tick update in the same order, so the lazy average
equals the eager one bit for bit, on both engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.process import SimThread, ThreadId
from repro.sim.schedulers.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import World

#: PELT's half-life: the kernel's per-entity load tracking, which EAS
#: consumes, halves a task's average every 32 ms.
_PELT_HALFLIFE_S = 0.032


def _pelt_decay(tick_s: float) -> float:
    """Per-tick PELT decay factor at a tick of ``tick_s`` seconds."""
    return 0.5 ** (tick_s / _PELT_HALFLIFE_S)


def _catch_up(thread: SimThread, tick: int, decay: float) -> None:
    """Decay ``thread``'s average over the ticks up to ``tick`` that it
    did not run, stopping at a fixed point of the decay."""
    u = thread.utilization
    for _ in range(tick - thread.pelt_tick):
        decayed = u * decay
        if decayed == u:
            break
        u = decayed
    thread.utilization = u
    thread.pelt_tick = tick


class EasScheduler(Scheduler):
    """PELT-driven energy-aware placement for big.LITTLE platforms."""

    name = "eas"
    #: Share of LITTLE capacity at which a task's demand makes it a misfit.
    _MISFIT_THRESHOLD = 0.8

    def placement_signature(self, world: "World") -> None:
        # PELT utilization moves every tick, so placements are never
        # reusable across ticks; opt out of the engine's placement cache.
        return None

    def next_preemption_tick(self, world: "World") -> int:
        # The PELT inputs move every tick, so the current placement is
        # only valid for the tick it was computed on.  (The missing
        # signature already keeps busy leaps away from EAS; this keeps
        # the preemption report honest on its own.)
        return world.tick_index + 1

    def account(
        self,
        world: "World",
        ran: list[tuple[SimThread, float]],
        n_ticks: int,
    ) -> None:
        """Fold ``n_ticks`` ticks of ``ran`` into each thread's average."""
        decay = _pelt_decay(world.tick_s)
        gain_scale = 1 - decay
        now = world.tick_index
        for thread, act_share in ran:
            _catch_up(thread, now, decay)
            gain = act_share * gain_scale
            u = thread.utilization
            for _ in range(n_ticks):
                u = u * decay + gain
            thread.utilization = u
            thread.pelt_tick = now + n_ticks

    def place(self, world: "World") -> dict[ThreadId, int]:
        platform = world.platform
        hw_threads = platform.hw_threads
        max_capacity = max(ct.base_speed for ct in platform.core_types)

        # Energy efficiency per hw thread: active watts per unit speed.
        energy_per_work = {}
        capacity = {}
        for t in hw_threads:
            ct = t.core_type
            energy_per_work[t.thread_id] = ct.active_power_w / ct.base_speed
            capacity[t.thread_id] = ct.base_speed

        load: dict[int, int] = {t.thread_id: 0 for t in hw_threads}
        placement: dict[ThreadId, int] = {}

        runnable = self.runnable(world)
        decay = _pelt_decay(world.tick_s)
        for _, thread in runnable:
            _catch_up(thread, world.tick_index, decay)
        # Highest-demand tasks are placed first, mirroring misfit migration
        # having priority over energy-aware wake-up placement.
        pairs = sorted(runnable, key=lambda pt: -pt[1].utilization)
        for process, thread in pairs:
            allowed = self.allowed_hw_threads(world, process)
            if not allowed:
                continue
            # PELT utilization is relative to the core the task ran on; it
            # is kept as a busy fraction, so scale into an absolute demand
            # against the biggest core.
            demand = thread.utilization
            is_misfit = demand >= self._MISFIT_THRESHOLD * (
                min(ct.base_speed for ct in platform.core_types) / max_capacity
            )

            def score(hw_id: int) -> tuple:
                fits = capacity[hw_id] / max_capacity >= demand * 0.99
                misfit_penalty = (
                    0 if (not is_misfit or capacity[hw_id] == max_capacity) else 1
                )
                return (
                    load[hw_id],                      # idle first
                    misfit_penalty,                   # misfits need big cores
                    0 if fits else 1,                 # capacity fit
                    energy_per_work[hw_id],           # cheapest energy per work
                    hw_id,
                )

            best = min(allowed, key=score)
            placement[thread.tid] = best
            load[best] += 1
        return placement
