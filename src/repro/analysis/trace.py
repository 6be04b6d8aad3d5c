"""Execution tracing and telemetry.

Records time series from a running world — per-application allocations,
progress, package power, per-core-type busy time — for debugging,
visualization, and the allocation-timeline reports used by the examples.
A tracer is an ``on_event`` listener that requests a wakeup at its next
sample tick, so it samples the same ticks on both engines; traces can be
exported as JSON-compatible dictionaries or rendered as a text timeline.

The tracer also feeds the harpobs registry (``repro.obs``): while the
default registry is enabled, every trace sample is mirrored as a
``trace.sample`` event plus ``trace.*`` gauges, so world-level time
series land in the same Perfetto/Prometheus exports as the RM's own
spans and counters (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import OBS
from repro.sim.engine import World


@dataclass
class TraceSample:
    """One sampling instant of the world."""

    time_s: float
    package_power_w: float
    running: dict[int, str] = field(default_factory=dict)
    progress: dict[int, float] = field(default_factory=dict)
    affinity_size: dict[int, int] = field(default_factory=dict)
    nthreads: dict[int, int] = field(default_factory=dict)


class WorldTracer:
    """Samples world state at a fixed interval, first in ``on_event``
    (so before a resource manager acts on the same boundary)."""

    def __init__(self, world: World, interval_s: float = 0.1):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.world = world
        self.interval_s = interval_s
        self.samples: list[TraceSample] = []
        self._next_sample_tick = 0
        self._events: list[tuple[float, str]] = []
        world.on_event.insert(0, self._on_event)
        world.request_wakeup(self._next_sample_tick)
        world.on_process_start.append(
            lambda p: self._events.append(
                (world.time_s, f"start pid={p.pid} {p.model.name}")
            )
        )
        world.on_process_exit.append(
            lambda p: self._events.append(
                (world.time_s, f"exit pid={p.pid} {p.model.name}")
            )
        )

    @property
    def events(self) -> list[tuple[float, str]]:
        return list(self._events)

    def _on_event(self, world: World) -> None:
        if world.tick_index < self._next_sample_tick:
            return
        self._next_sample_tick = world.tick_index + world.ticks_in(self.interval_s)
        world.request_wakeup(self._next_sample_tick)
        sample = TraceSample(
            time_s=world.time_s,
            package_power_w=world.last_stats.package_power_w,
        )
        for process in world.running_processes():
            if process.daemon:
                continue
            sample.running[process.pid] = process.model.name
            sample.progress[process.pid] = process.progress_fraction()
            sample.affinity_size[process.pid] = (
                len(process.affinity) if process.affinity else
                world.platform.n_hw_threads
            )
            sample.nthreads[process.pid] = process.nthreads
        self.samples.append(sample)
        if OBS.enabled:
            OBS.gauge("trace.package_power_w").set(sample.package_power_w)
            OBS.gauge("trace.running_apps").set(len(sample.running))
            OBS.counter("trace.samples").inc()
            OBS.event(
                "trace.sample", track="trace",
                power_w=sample.package_power_w,
                apps={
                    str(pid): sample.running[pid] for pid in sample.running
                },
            )

    # -- export ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible dump of the trace."""
        return {
            "interval_s": self.interval_s,
            "events": [{"t_s": t, "event": e} for t, e in self._events],
            "samples": [
                {
                    "t_s": s.time_s,
                    "power_w": s.package_power_w,
                    "apps": {
                        str(pid): {
                            "name": s.running[pid],
                            "progress": s.progress[pid],
                            "hw_threads": s.affinity_size[pid],
                            "nthreads": s.nthreads[pid],
                        }
                        for pid in s.running
                    },
                }
                for s in self.samples
            ],
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    def _nearest_sample(self, times: list[float], t: float) -> TraceSample:
        """The sample whose time is closest to ``t`` (times are sorted)."""
        idx = bisect_left(times, t)
        if idx == 0:
            return self.samples[0]
        if idx == len(times):
            return self.samples[-1]
        before, after = times[idx - 1], times[idx]
        return self.samples[idx - 1 if t - before <= after - t else idx]

    def timeline(self, width: int = 60) -> str:
        """A text timeline: one row per application, '#' where running.

        Empty traces render as ``"(empty trace)"`` (the same benign
        behavior as :meth:`average_power_w` returning 0.0).
        """
        if not self.samples:
            return "(empty trace)"
        apps: dict[int, str] = {}
        for sample in self.samples:
            apps.update(sample.running)
        end = self.samples[-1].time_s or 1e-9
        # Samples are appended in time order, so one bisect per column
        # replaces the old O(samples × width) min() scan.
        times = [s.time_s for s in self.samples]
        lines = [f"0s {'-' * width} {end:.1f}s"]
        for pid in sorted(apps):
            row = []
            for col in range(width):
                t = end * (col + 0.5) / width
                sample = self._nearest_sample(times, t)
                row.append("#" if pid in sample.running else ".")
            lines.append(f"{apps[pid][:14]:>14} [{''.join(row)}]")
        return "\n".join(lines)

    def average_power_w(self) -> float:
        """Mean package power over the trace; 0.0 for an empty trace.

        Consistent with :meth:`timeline`, an empty trace yields a benign
        value instead of raising.
        """
        if not self.samples:
            return 0.0
        return sum(s.package_power_w for s in self.samples) / len(self.samples)
