"""Simulated processes and threads."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.base import ApplicationModel


class ThreadId(NamedTuple):
    """Identifies one thread: (process id, thread index)."""

    pid: int
    tidx: int


#: Offsets in a process's accumulator block: work done, ground-truth
#: energy, retired instructions, then CPU seconds per core type (one slot
#: per core type of the owning world's platform, in platform order).
WORK_DONE, ENERGY_TRUE_J, INSTRUCTIONS, CPU_TIME = 0, 1, 2, 3


#: Safety margin (in ticks) subtracted from analytic work horizons.  The
#: engine accumulates ``work_done`` with one float add per tick, so after
#: k ticks the accumulated progress differs from the closed form
#: ``k * rate * dt`` by a few ULPs; two ticks cover that drift.
WORK_EXPIRY_GUARD_TICKS = 2


def ticks_until_work_expiry(work_budget: float, work_per_tick: float) -> int | None:
    """Whole ticks of progress guaranteed to stay inside ``work_budget``.

    The busy-stretch fast-forward's screen: with a constant per-tick
    progress of ``work_per_tick`` work units, every tick of a leap no
    longer than the return value provably starts strictly inside the
    budget (the work left before a completion or a phase flip), with the
    :data:`WORK_EXPIRY_GUARD_TICKS` margin against float drift.  Such a
    leap needs no scan; a longer one finds the boundary's exact tick
    with :func:`work_before_completion`.  ``None`` means the budget
    imposes no bound (no progress per tick, or an infinite budget).
    """
    if work_per_tick <= 0.0 or math.isinf(work_budget):
        return None
    return int(work_budget / work_per_tick) - WORK_EXPIRY_GUARD_TICKS


def work_before_completion(
    work_done: float,
    total_work: float,
    horizon: float,
    work_per_tick: float,
    limit: int,
) -> list[float]:
    """``work_done`` after each tick that leaves a process's behaviour as is.

    Replays the engine's per-tick ``work_done += work_per_tick`` from
    ``work_done``, and stops after ``limit`` ticks or before the first
    tick that

    * completes the process: ``work_per_tick >= max(0.0, total_work -
      work_done)``, the test ``World`` applies; or
    * starts in a new phase: its ``work_done`` reaches ``horizon``, the
      absolute work level ``ApplicationModel.steady_work_horizon``
      reports (``math.inf`` for a model that reports ``None``).

    The length of the result is therefore the exact number of ticks a
    busy leap may replay before either boundary, and entry ``i`` is
    ``work_done`` after ``i + 1`` of them.
    """
    steps: list[float] = []
    w = work_done
    while (
        len(steps) < limit
        and w < horizon
        and work_per_tick < max(0.0, total_work - w)
    ):
        w += work_per_tick
        steps.append(w)
    return steps


@dataclass
class SimThread:
    """One schedulable thread.

    ``utilization`` is the thread's PELT average as of tick
    ``pelt_tick``; the EAS scheduler, its one reader, keeps both (see
    :mod:`repro.sim.schedulers.eas`).
    """

    tid: ThreadId
    itd_class: int = 0
    utilization: float = 0.0
    pelt_tick: int = 0


@dataclass
class SimProcess:
    """A running application instance.

    Attributes:
        pid: unique process id within the world.
        model: the application's ground-truth behaviour model.
        nthreads: current number of worker threads (adaptable at runtime).
        affinity: hardware-thread ids the process may run on (None = all).
        knobs: current adaptivity-knob values (custom applications).
        finished: progress bookkeeping, with :attr:`work_done`.

    The accumulator properties read the process's block of its world's
    ledger (``World._acc``), where the engine adds to them; a process
    built outside a world reads a private block without core types.
    """

    pid: int
    model: "ApplicationModel"
    nthreads: int
    affinity: frozenset[int] | None = None
    knobs: dict = field(default_factory=dict)
    finished: bool = False
    # True when the process was terminated by World.kill(silent=True): it
    # died without notifying anyone, and the RM must discover the death
    # through its liveness lease.
    crashed: bool = False
    start_time_s: float = 0.0
    finish_time_s: float | None = None
    threads: list[SimThread] = field(default_factory=list)
    on_finish: list[Callable[["SimProcess"], None]] = field(default_factory=list)
    managed: bool = False
    daemon: bool = False
    #: CPU demand per thread in [0, 1] for proportional time-sharing; at
    #: most 1e-6 means sleeping.  Written only through
    #: ``World.set_demand``, which keeps the runnable set current.
    demand: float = field(default=1.0, init=False)
    #: Bumped whenever ``threads`` gains or loses a ``SimThread``: a thread
    #: list regrown to an earlier length holds new objects under the same
    #: ids, and the engine's tick-pattern memory must not mistake it for
    #: the list it recorded.
    threads_revision: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.nthreads < 1:
            raise ValueError("nthreads must be >= 1")
        self._sync_threads()
        # The ledger's owner and this process's block offset in it, where
        # work done comes first: a private one-block ledger without core
        # types until a world's ``spawn`` re-points both.
        self._owner = SimpleNamespace(
            _acc=np.zeros(CPU_TIME), _type_names=(), _dirty=set()
        )
        self._base = 0

    @property
    def name(self) -> str:
        return self.model.name

    @property
    def work_done(self) -> float:
        """Work units completed."""
        return self._owner._acc.item(self._base)

    @work_done.setter
    def work_done(self, value: float) -> None:
        self._owner._acc[self._base] = value

    @property
    def energy_true_j(self) -> float:
        """Ground-truth attributed energy, used only to *validate* the
        attribution (never visible to the RM)."""
        return self._owner._acc.item(self._base + ENERGY_TRUE_J)

    @property
    def instructions(self) -> float:
        """Instructions retired, the count perf reads."""
        return self._owner._acc.item(self._base + INSTRUCTIONS)

    @property
    def cpu_time_by_type(self) -> dict[str, float]:
        """CPU seconds consumed per core type, for each type with nonzero
        time — the input to EnergAt-style energy attribution."""
        names, start = self._owner._type_names, self._base + CPU_TIME
        times = self._owner._acc[start:start + len(names)].tolist()
        return {name: t for name, t in zip(names, times) if t}

    def set_nthreads(self, nthreads: int) -> None:
        """Adjust the parallelization degree (malleability, §4.1.3)."""
        if nthreads < 1:
            raise ValueError("nthreads must be >= 1")
        self.nthreads = nthreads
        if len(self.threads) != nthreads:
            self._sync_threads()
            # The owning world's runnable pairs name the old threads.
            self._owner._runnable_pairs = None
            self._owner._dirty.add(self.pid)

    def set_affinity(self, hw_threads: frozenset[int] | None) -> None:
        """Restrict the process to a set of hardware threads."""
        if hw_threads is not None and not hw_threads:
            raise ValueError("affinity set must be non-empty or None")
        self.affinity = hw_threads
        # The owning world's runnable pairs key the schedulers' signatures.
        self._owner._runnable_pairs = None

    def _sync_threads(self) -> None:
        if len(self.threads) != self.nthreads:
            self.threads_revision += 1
        while len(self.threads) < self.nthreads:
            idx = len(self.threads)
            self.threads.append(
                SimThread(
                    tid=ThreadId(self.pid, idx),
                    itd_class=self.model.itd_class_for_thread(idx),
                )
            )
        del self.threads[self.nthreads:]

    @property
    def active_threads(self) -> list[SimThread]:
        return self.threads if not self.finished else []

    def remaining_work(self) -> float:
        return max(0.0, self.model.total_work - self.work_done)

    def progress_fraction(self) -> float:
        return min(1.0, self.work_done / self.model.total_work)

    def elapsed_s(self, now_s: float) -> float:
        end = self.finish_time_s if self.finished else now_s
        return end - self.start_time_s
