"""Application behaviour models.

The ground truth of the simulation: how much useful work an application
extracts from a set of thread slots, how many instructions it emits while
doing so, and how busy it keeps its cores.  The HARP resource manager
never reads these models — it must discover their behaviour through the
same noisy IPS/power observations the paper's implementation gets from
perf and RAPL.

The composite model captures the effects the paper's evaluation hinges on:

* **Amdahl serial fraction** — the serial part runs on the fastest thread.
* **Memory-bandwidth ceiling** — memory-bound applications (mg, cg, ft)
  stop scaling once the aggregate rate hits the cap, so extra P-cores add
  power without performance (Fig. 1b).
* **Static vs dynamic load balancing** — statically partitioned OpenMP
  loops are gated by the slowest thread, so mixed P/E allocations stall
  P-cores (§2.2); dynamically balanced workloads use whatever they get.
* **Busy-wait spinning** — spinning threads inflate IPS without utility,
  reproducing lu's miss-selection under a generic utility metric (§6.3.1).
* **Oversubscription penalty** — running more threads than hardware
  threads costs context switches and lock-holder preemption (§2.2).
* **Synchronization contention** — throughput collapses beyond a thread
  count when all workers hammer one queue (binpack's 6.9× outlier).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar

from repro.platform.topology import Platform
from repro.sim.engine import AppPerf, ThreadSlot
from repro.sim.process import SimProcess


class AdaptivityType(enum.Enum):
    """How an application can adapt to allocations (§4.1.3)."""

    STATIC = "static"
    SCALABLE = "scalable"
    CUSTOM = "custom"


class Balancing(enum.Enum):
    """Work-distribution discipline across worker threads."""

    DYNAMIC = "dynamic"
    STATIC = "static"


@dataclass
class ApplicationModel:
    """Composite analytic model of one application.

    Attributes:
        name: benchmark name (e.g. ``"ep.C"``).
        adaptivity: static / scalable / custom classification.
        total_work: abstract work units to completion.
        serial_fraction: Amdahl serial part, in [0, 1).
        balancing: static partitioning (slowest thread gates) or dynamic.
        type_efficiency: per-core-type efficiency multiplier on top of the
            platform's base speeds (instruction-mix effects).
        mem_bw_cap: aggregate work/s ceiling imposed by memory bandwidth
            (None = compute-bound).
        oversub_coeff: strength of the time-sharing penalty when threads
            outnumber their hardware threads (context switches, cache
            thrash, and lock-holder preemption; 0.8 means 2× oversubscription
            costs ~44 % of throughput).
        contention_threshold: thread count beyond which synchronization
            contention collapses throughput (None = no contention).
        contention_exponent: how hard throughput collapses past the
            threshold: rate *= (threshold / n) ** exponent.
        spin_ips_rate: instructions/s a stalled-but-spinning thread emits
            per unit of base speed (0 = threads sleep when idle).
        ips_per_work: useful instructions emitted per work unit.
        power_intensity: multiplier on the core's active power while
            running this application (instruction-mix effect: vectorized
            kernels draw more than stall-heavy ones).  The uniform γ
            coefficients of the attribution model (Eq. 3) cannot see this,
            which is the realistic error source behind the paper's 8.76 %
            attribution MAPE.
        runtime_lib: which runtime libharp would hook ("openmp", "tbb",
            "tensorflow", "kpn", or None for plain pthreads).
        fixed_nthreads: thread count of non-scalable applications.
    """

    name: str
    adaptivity: AdaptivityType = AdaptivityType.SCALABLE
    total_work: float = 100.0
    serial_fraction: float = 0.01
    balancing: Balancing = Balancing.DYNAMIC
    type_efficiency: dict[str, float] = field(default_factory=dict)
    mem_bw_cap: float | None = None
    oversub_coeff: float = 0.8
    contention_threshold: int | None = None
    contention_exponent: float = 1.0
    contention_blocks: bool = True
    spin_ips_rate: float = 0.0
    ips_per_work: float = 1.0e9
    power_intensity: float = 1.0
    runtime_lib: str | None = "openmp"
    fixed_nthreads: int | None = None
    provides_utility: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.serial_fraction < 1.0:
            raise ValueError("serial_fraction must be in [0, 1)")
        if self.total_work <= 0:
            raise ValueError("total_work must be > 0")

    # -- scheduling metadata ---------------------------------------------------

    def default_nthreads(self, platform: Platform) -> int:
        """Thread count at launch: OMP_NUM_THREADS-style nproc default."""
        if self.fixed_nthreads is not None:
            return self.fixed_nthreads
        return platform.n_hw_threads

    def efficiency(self, core_type: str) -> float:
        return self.type_efficiency.get(core_type, 1.0)

    #: True for a model whose demand is a backlog that each tick it is
    #: placed drains (the RM daemon's pending busy time).  Its ``perf()``
    #: stays slot-pure — it reads the backlog only through
    #: ``process.demand`` — and the world calls :meth:`burn` once per
    #: such tick, right after the tick's ledger apply and before any exit
    #: or event callback, whether the tick was evaluated afresh or served
    #: from memory, and publishes the demand it returns.
    burns_backlog: ClassVar[bool] = False

    def burn(self, process: SimProcess) -> float:
        """Drain one tick of backlog (called only if ``burns_backlog``);
        returns the process's demand after it."""
        return process.demand

    def steady_work_horizon(self, process: SimProcess) -> float | None:
        """Work units this model can absorb with behaviour guaranteed fixed.

        Three consumers evaluate ``perf`` once and reuse its result on
        later ticks, which is only sound while the model's response is a
        pure function of the (unchanged) slots: the event engine's
        busy-stretch fast-forward; ``World.step()``'s tick-pattern memory
        on both engines, which serves a tick from a remembered pattern
        only while every placed model reports ``None``; and the world's
        per-process ``perf()`` memory, which reuses one process's last
        response while its slots repeat.  The contract (*slot purity*):

        * ``None`` — ``perf`` depends only on the slots and on state that
          changes exclusively at event boundaries (knobs, a backlog
          drained by :meth:`burn`), and the process's demand is written
          only there, through ``World.set_demand``.  The composite model
          and its subclasses qualify: progress feeds back into nothing.
          The pattern memory keys on ``process.knobs``,
          ``process.threads_revision`` and ``process.demand``, and the
          ``perf()`` memory on the slots, the demand, the revision and
          the knobs, so such state must reach ``perf`` through one of
          those.
        * a float above ``process.work_done`` — an absolute work level:
          behaviour is slot-pure on every tick that starts with
          ``work_done`` below it, and may change on the first tick that
          starts at or above it (e.g. a phase boundary, the exact
          threshold the model compares against; ``math.inf`` for none).
          Leaps stop on the tick before, and ``step()`` evaluates every
          tick afresh.
        """
        return None

    def itd_class_for_thread(self, tidx: int) -> int:
        """Synthetic ITD class: 0 = generic compute, 1 = memory-bound.

        Only strongly bandwidth-bound kernels read as memory-bound to the
        classifier; mildly capped ones still present a compute-heavy
        instruction mix.
        """
        return 1 if (self.mem_bw_cap is not None and self.mem_bw_cap < 8.0) else 0

    def itd_perf_ratio(self, itd_class: int) -> float:
        """P-vs-E performance ratio the ITD classifier would report.

        Memory-bound classes gain little from P-cores; compute classes see
        the full architectural speed gap.
        """
        if itd_class == 1:
            return 1.1
        return 1.8

    # -- the behavioural core --------------------------------------------------

    def perf(self, slots: list[ThreadSlot], process: SimProcess) -> AppPerf:
        """Convert delivered thread slots into progress, activity and IPS.

        The engine may not call this on every tick.  While
        :meth:`steady_work_horizon` reports ``None`` the response must be
        slot-pure: the same slots, demand, ``process.threads_revision``
        and ``process.knobs`` give the same ``AppPerf``, and the call has
        no side effect, because the engine reuses a remembered response
        (a tick pattern, a busy leap, the per-process ``perf()`` memory)
        instead of calling again.  A model whose response depends on
        anything else (its progress) must report a work horizon; one
        whose running drains state does so in :meth:`burn`.
        """
        if not slots:
            return AppPerf(0.0, [], 0.0)
        speeds = [
            slot.speed * self.efficiency(slot.core_type) for slot in slots
        ]
        n = len(speeds)
        fastest = max(speeds)
        slowest = min(speeds)
        if fastest <= 0:
            return AppPerf(0.0, [0.0] * n, 0.0)

        if self.balancing is Balancing.STATIC:
            parallel_rate = n * slowest
        else:
            parallel_rate = sum(speeds)

        if self.mem_bw_cap is not None:
            parallel_rate = min(parallel_rate, self.mem_bw_cap)

        # Amdahl composition of the serial and parallel phases.
        rate = 1.0 / (
            self.serial_fraction / fastest
            + (1.0 - self.serial_fraction) / max(parallel_rate, 1e-12)
        )

        # Oversubscription: the time-sharing penalty (context switches,
        # cache thrash, lock-holder preemption) applies whenever this
        # application's threads do not own their hardware threads outright
        # — whether crowded out by its own surplus threads or by other
        # applications.  The pressure ratio compares thread count against
        # the total CPU share actually delivered.
        total_share = sum(slot.share for slot in slots)
        if total_share > 0 and n > total_share * 1.001:
            ratio = n / total_share
            rate *= 1.0 / (1.0 + self.oversub_coeff * (ratio - 1.0))

        # Synchronization contention (shared-queue collapse).
        contention_factor = 1.0
        if self.contention_threshold is not None and n > self.contention_threshold:
            contention_factor = (
                self.contention_threshold / n
            ) ** self.contention_exponent
            rate *= contention_factor

        activities = self._activities(speeds, slowest)
        if contention_factor < 1.0 and self.contention_blocks:
            # Contended threads sleep on the shared lock rather than spin,
            # so CPU activity (and thus power) collapses with throughput.
            activities = [a * contention_factor for a in activities]
        ips = rate * self.ips_per_work
        if self.spin_ips_rate > 0 and self.balancing is Balancing.STATIC:
            # Threads that finished their static chunk spin at the barrier,
            # emitting instructions that do no useful work.
            for speed, activity in zip(speeds, self._wait_fractions(speeds, slowest)):
                ips += self.spin_ips_rate * speed * activity
        return AppPerf(rate, activities, ips)

    def _wait_fractions(self, speeds: list[float], slowest: float) -> list[float]:
        """Per-thread fraction of the tick spent waiting at the barrier."""
        return [
            0.0 if speed <= 0 else max(0.0, 1.0 - slowest / speed)
            for speed in speeds
        ]

    def _activities(self, speeds: list[float], slowest: float) -> list[float]:
        """Per-thread on-CPU fraction.

        Dynamically balanced workloads keep every thread busy.  Statically
        partitioned ones either spin (on-CPU, wasting energy) or sleep at
        the barrier depending on the runtime's wait policy.
        """
        if self.balancing is Balancing.DYNAMIC:
            return [1.0] * len(speeds)
        waits = self._wait_fractions(speeds, slowest)
        if self.spin_ips_rate > 0:
            # Spin-wait: cores stay busy through the imbalance.
            return [1.0] * len(speeds)
        return [1.0 - w for w in waits]
