"""Performance and power monitoring (§5.1).

Combines the perf substrate (per-process IPS), application-provided
utility (when libharp signalled the capability), and EnergAt-style power
attribution into per-interval (utility, power) samples.  Smoothing with
the paper's EMA (α = 0.1) happens where the paper applies it — when the
samples are folded into operating-point characteristics — so this module
delivers raw interval measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.energy import EnergyAttributor
from repro.obs import OBS
from repro.sim.engine import World
from repro.sim.perf import IntervalReader


class ExponentialMovingAverage:
    """The paper's EMA smoother: value += α · (sample − value)."""

    def __init__(self, alpha: float = 0.1):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value: float | None = None

    @property
    def value(self) -> float | None:
        return self._value

    def update(self, sample: float) -> float:
        if self._value is None:
            self._value = sample
        else:
            self._value += self.alpha * (sample - self._value)
        return self._value

    def reset(self) -> None:
        self._value = None


@dataclass(frozen=True)
class MonitorSample:
    """One interval's measurement for one application."""

    pid: int
    utility: float
    power_w: float
    utility_source: str  # "app" | "ips"
    #: Energy attributed to the application over this interval — what the
    #: RM's own accounting (not the ground-truth simulator counter) would
    #: bill the application for.  Accumulated per session by the manager
    #: so energy attribution survives migrations and RM restarts.
    energy_j: float = 0.0


class SystemMonitor:
    """Interval sampler over the simulated system.

    Tracks deltas of the package energy counter, per-core-type busy time,
    and per-process CPU time / instructions between calls, then attributes
    power and derives utility per managed application.

    Boundary-driven contract: the monitor never polls the world per tick.
    Its owner (the RM's sample chain) calls :meth:`sample` only at epoch
    boundaries it scheduled through ``World.request_wakeup``, and every
    delta here is a difference of *cumulative* counters — so the samples
    are identical whether the interval was simulated tick by tick or
    replayed in one leap by the event engine's idle/busy fast-forwards.
    This property is what lets managed runs leap between measurement
    boundaries; the parity suite (``tests/test_eventsim.py``) enforces it.
    """

    def __init__(self, world: World, attributor: EnergyAttributor):
        self.world = world
        self.attributor = attributor
        self._ips_reader = IntervalReader(world.perf)
        self._last_energy = world.total_energy_j()
        self._last_busy = dict(world.busy_time_by_type_s)
        self._last_cpu: dict[int, dict[str, float]] = {}
        self._last_time = world.time_s

    def sample(
        self,
        pids: list[int],
        app_utilities: dict[int, float | None] | None = None,
    ) -> dict[int, MonitorSample]:
        """Measure the interval since the previous call.

        Args:
            pids: processes to sample.
            app_utilities: application-provided utility per pid (None
                entries fall back to IPS).
        """
        now = self.world.time_s
        interval = now - self._last_time
        energy = self.world.total_energy_j()
        energy_delta = max(0.0, energy - self._last_energy)
        busy = dict(self.world.busy_time_by_type_s)
        busy_delta = {
            name: max(0.0, busy.get(name, 0.0) - self._last_busy.get(name, 0.0))
            for name in busy
        }

        cpu_delta: dict[int, dict[str, float]] = {}
        for pid in pids:
            process = self.world.processes.get(pid)
            if process is None:
                continue
            current = dict(process.cpu_time_by_type)
            previous = self._last_cpu.get(pid, {})
            cpu_delta[pid] = {
                name: max(0.0, current.get(name, 0.0) - previous.get(name, 0.0))
                for name in set(current) | set(previous)
            }
            self._last_cpu[pid] = current

        attribution = self.attributor.attribute(
            energy_delta, interval, busy_delta, cpu_delta
        )

        samples: dict[int, MonitorSample] = {}
        for pid in pids:
            if pid not in cpu_delta:
                continue
            provided = None
            if app_utilities is not None:
                provided = app_utilities.get(pid)
            if provided is not None:
                utility = provided
                source = "app"
            else:
                ips = self._ips_reader.sample_ips(pid, now)
                if ips is None:
                    continue
                utility = ips
                source = "ips"
            power = attribution[pid].power_w if pid in attribution else 0.0
            energy_j = attribution[pid].energy_j if pid in attribution else 0.0
            samples[pid] = MonitorSample(
                pid=pid,
                utility=utility,
                power_w=power,
                utility_source=source,
                energy_j=energy_j,
            )

        self._last_energy = energy
        self._last_busy = busy
        self._last_time = now
        if OBS.enabled:
            OBS.counter("monitor.intervals").inc()
            OBS.counter("monitor.samples").inc(len(samples))
            if interval > 0:
                OBS.gauge("monitor.package_power_w").set(
                    energy_delta / interval
                )
            for pid, sample in samples.items():
                OBS.gauge("monitor.attributed_power_w", pid=pid).set(
                    sample.power_w
                )
                OBS.counter(
                    "monitor.utility_source", source=sample.utility_source
                ).inc()
        return samples

    def forget(self, pid: int) -> None:
        """Drop state of an exited process."""
        self._last_cpu.pop(pid, None)
