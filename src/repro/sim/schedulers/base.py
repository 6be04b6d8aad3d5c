"""Scheduler interface and shared placement helpers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.sim.process import SimProcess, SimThread, ThreadId

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import World


class Scheduler(ABC):
    """Maps runnable threads onto hardware threads each tick.

    Schedulers must respect process affinity masks (as the Linux scheduler
    respects cpusets / sched_setaffinity); the engine validates this.
    """

    name: str = "scheduler"
    #: ``(pairs list, signature)`` of :meth:`_remembered_signature`.
    _signature: tuple | None = None

    @abstractmethod
    def place(self, world: "World") -> dict[ThreadId, int]:
        """Return a thread→hardware-thread placement for this tick."""

    def placement_signature(self, world: "World") -> tuple | None:
        """Hashable key of everything ``place`` depends on, or ``None``.

        When a scheduler returns a signature, the engine reuses the
        previous tick's placement as long as the signature is unchanged —
        placements are only recomputed when the runnable thread set or an
        affinity mask (i.e. the HARP allocation) actually changes.  Schedulers whose decisions also depend on continuously
        varying state (PELT utilization, run-queue history) must return
        ``None`` to opt out of caching.
        """
        return None

    def _remembered_signature(self, world: "World", entry) -> tuple:
        """``entry(process, thread)`` over the runnable pairs, as a tuple,
        rebuilt only with the pairs list: the world rebuilds that at every
        change of the runnable set, a thread list (which alone sets
        ``itd_class``) or an affinity mask."""
        pairs, remembered = self.runnable(world), self._signature
        if remembered is None or remembered[0] is not pairs:
            signature = tuple([entry(p, t) for p, t in pairs])
            remembered = self._signature = (pairs, signature)
        return remembered[1]

    def next_preemption_tick(self, world: "World") -> int | None:
        """Earliest future tick at which the placement may move on its own.

        The event engine's busy-stretch fast-forward assumes that while
        the placement signature is unchanged the placement itself is
        unchanged.  A scheduler whose decisions additionally depend on
        *time* — a round-robin quantum, a periodic rebalance — must report
        the first tick index at which that dependency expires; busy leaps
        never cross it.  ``None`` means the placement is a pure function
        of the signature and never expires by itself (true for CFS, ITD
        and pinned placement).  Schedulers that already opt out of the
        signature cache (``placement_signature() is None``) are never
        leapt over, but should still report honestly.
        """
        return None

    def account(
        self,
        world: "World",
        ran: list[tuple[SimThread, float]],
        n_ticks: int,
    ) -> None:
        """Observe ``n_ticks`` identical ticks as the engine applies them.

        ``ran`` holds ``(thread, activity·share)`` for every thread that
        ran on each of those ticks; the engine calls this before
        ``world.tick_index`` advances past them, so the ticks are
        ``world.tick_index`` … ``world.tick_index + n_ticks - 1``.  A
        scheduler that keeps per-thread history (EAS's PELT) folds them
        in here; the default keeps none.
        """

    @staticmethod
    def runnable(world: "World") -> list[tuple[SimProcess, SimThread]]:
        """All (process, thread) pairs eligible to run, deterministic order.

        A process whose published demand (``World.set_demand``) is
        (near-)zero is sleeping — an idle daemon does not sit on a run
        queue — and its threads are absent.  Pairs come in ascending-pid
        order (spawn order; pids are never reused), and the world hands
        out one list until its runnable set or a thread list changes.
        """
        return world.runnable_pairs()

    @staticmethod
    def allowed_hw_threads(world: "World", process: SimProcess) -> list[int]:
        """Hardware threads the process may run on, in id order."""
        all_ids = world._hw_ids
        if process.affinity is None:
            return all_ids
        return [i for i in all_ids if i in process.affinity]
