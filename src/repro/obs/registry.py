"""The harpobs telemetry core: metrics, events, and spans.

A :class:`Registry` is a process-local container of named *instruments*
(counters, gauges, histograms), *structured events* timestamped with the
monotonic simulated clock, and nestable *spans* measured in wall time
(the simulated clock does not advance inside an allocation epoch, so span
durations come from ``time.perf_counter`` while their position on the
timeline comes from the simulated clock).

Design constraints, in order:

1. **Disabled is free.**  The module-level default registry ``OBS`` starts
   disabled; every instrumentation site in the hot paths guards itself
   with a single attribute check (``if OBS.enabled:``), so the disabled
   cost is one boolean load per site and no allocation whatsoever.
2. **Telemetry never perturbs the system.**  Recording draws no entropy,
   never touches RNG state, and never feeds back into allocation or
   simulation decisions; obs-on and obs-off runs with the same seeds
   produce bit-identical allocation sequences (enforced by a test).
3. **Thread safe.**  Three threads can record at once: the IPC socket
   server's selector loop (the requests it serves), the caller's thread
   (pushes and client requests), and a libharp client's push listener
   (the RM pushes it answers).  All registry mutation happens under one
   registry lock.

Timestamps come from a pluggable ``clock`` callable returning simulated
seconds — :class:`repro.sim.engine.World` installs its own clock on the
default registry at construction time.  Without a clock, timestamps stay
at the last known value (0.0 initially); a per-registry sequence number
preserves total event order regardless.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "OBS",
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "Registry",
    "Span",
]

LabelKey = tuple[str, tuple[tuple[str, str], ...]]

#: Default histogram bucket upper bounds (seconds-flavoured, exponential).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


def _label_key(name: str, labels: dict[str, object]) -> LabelKey:
    if not labels:  # fast path: most hot-path instruments are unlabeled
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class Counter:
    """A monotonically increasing value.

    Increments take a per-instrument lock: ``+=`` on a float spans several
    bytecodes, and the IPC server's selector loop, the caller's thread and
    the libharp push listener can increment the same counter at once.
    """

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down; remembers the last set."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bound bucketed distribution with count/sum/min/max."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "sum", "min", "max", "_lock")

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(bounds))
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


@dataclass(frozen=True)
class Event:
    """One recorded occurrence: an instant or a completed span.

    ``ts_s`` is simulated seconds (where on the timeline it happened);
    ``wall_s`` is the wall-clock duration for spans (how long the RM
    actually took, the §6.6 overhead quantity) and ``None`` for instants.
    ``seq`` preserves total order even when the simulated clock stands
    still across many events (e.g. inside one allocation epoch).
    """

    seq: int
    ts_s: float
    name: str
    kind: str  # "instant" | "span"
    track: str
    depth: int = 0
    wall_s: float | None = None
    args: dict = field(default_factory=dict)


class Span:
    """Context manager recording one span; exception safe (always ends)."""

    __slots__ = ("_registry", "name", "track", "args", "_t0_wall", "_t0_sim",
                 "depth")

    def __init__(self, registry: "Registry", name: str, track: str,
                 args: dict):
        self._registry = registry
        self.name = name
        self.track = track
        self.args = args
        self._t0_wall = 0.0
        self._t0_sim = 0.0
        self.depth = 0

    def __enter__(self) -> "Span":
        self._registry._span_enter(self)
        return self

    def __exit__(self, *exc_info) -> None:
        # Record the span even when its body raised: a crashed solve is
        # exactly the kind of thing a trace should show.
        self._registry._span_exit(self, failed=exc_info[0] is not None)


class _NullSpan:
    """Shared no-op span handed out while the registry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Registry:
    """Process-local set of instruments, events, and spans.

    Args:
        enabled: start recording immediately (default off).
        clock: callable returning simulated seconds; installed later by
            :class:`repro.sim.engine.World` when absent.
        walltime: wall-duration source for spans; injectable so exports
            can be made byte-deterministic in tests.
        max_events: ring limit — events beyond it are counted as dropped
            rather than stored, bounding memory on long runs.
    """

    def __init__(
        self,
        enabled: bool = False,
        clock: Callable[[], float] | None = None,
        walltime: Callable[[], float] = time.perf_counter,
        max_events: int = 200_000,
    ):
        self.enabled = enabled
        self.walltime = walltime
        self.max_events = max_events
        #: Bumped on every reset; callers that cache instrument handles
        #: (the per-tick sim hot path) compare it to detect staleness.
        self.generation = 0
        self._clock = clock
        self._lock = threading.RLock()
        self._counters: dict[LabelKey, Counter] = {}
        self._gauges: dict[LabelKey, Gauge] = {}
        self._histograms: dict[LabelKey, Histogram] = {}
        self._events: list[Event] = []
        self._dropped_events = 0
        self._seq = 0
        # Span nesting depth per (thread, track).
        self._depths: dict[tuple[int, str], int] = {}

    # -- lifecycle -----------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded state (instruments, events, clock)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._events.clear()
            self._dropped_events = 0
            self._seq = 0
            self._depths.clear()
            self._clock = None
            self.generation += 1

    def set_clock(self, clock: Callable[[], float] | None) -> None:
        """Install the simulated-time source for event timestamps."""
        self._clock = clock

    def now_s(self) -> float:
        clock = self._clock
        return clock() if clock is not None else 0.0

    # -- instruments ---------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = _label_key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(
                    key, Counter(name, dict(key[1]))
                )
        return counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = _label_key(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(key, Gauge(name, dict(key[1])))
        return gauge

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = _label_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    key, Histogram(name, dict(key[1]), bounds)
                )
        return histogram

    # -- events & spans ------------------------------------------------------------

    def event(self, name: str, /, track: str = "events", **args: object) -> None:
        """Record an instant event at the current simulated time."""
        if not self.enabled:
            return
        self._append(
            name=name, kind="instant", track=track, depth=0, wall_s=None,
            args=dict(args),
        )

    def span(self, name: str, /, track: str = "rm", **args: object):
        """A nestable context manager timing one operation.

        Returns a shared no-op object while disabled, so callers can
        unconditionally write ``with OBS.span(...):``; hot paths that
        cannot afford even that call should guard with ``OBS.enabled``.
        """
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, track, dict(args))

    def _span_enter(self, span: Span) -> None:
        span._t0_wall = self.walltime()
        span._t0_sim = self.now_s()
        key = (threading.get_ident(), span.track)
        with self._lock:
            span.depth = self._depths.get(key, 0)
            self._depths[key] = span.depth + 1

    def _span_exit(self, span: Span, failed: bool) -> None:
        wall = self.walltime() - span._t0_wall
        key = (threading.get_ident(), span.track)
        args = span.args
        if failed:
            args = dict(args, failed=True)
        sim_dur = self.now_s() - span._t0_sim
        if sim_dur > 0:
            args = dict(args, sim_dur_s=sim_dur)
        with self._lock:
            depth = self._depths.get(key, 1) - 1
            if depth <= 0:
                self._depths.pop(key, None)
            else:
                self._depths[key] = depth
        self._append(
            name=span.name, kind="span", track=span.track, depth=span.depth,
            wall_s=wall, args=args, ts_s=span._t0_sim,
        )

    def _append(
        self,
        name: str,
        kind: str,
        track: str,
        depth: int,
        wall_s: float | None,
        args: dict,
        ts_s: float | None = None,
    ) -> None:
        # Read the clock before taking the lock: the clock is an injected
        # callable of unknown cost (and possibly re-entrant into this
        # registry), so it must not run inside the critical section.
        if ts_s is None:
            ts_s = self.now_s()
        with self._lock:
            if len(self._events) >= self.max_events:
                self._dropped_events += 1
                return
            self._events.append(
                Event(
                    seq=self._seq,
                    ts_s=ts_s,
                    name=name,
                    kind=kind,
                    track=track,
                    depth=depth,
                    wall_s=wall_s,
                    args=args,
                )
            )
            self._seq += 1

    # -- read side -----------------------------------------------------------------

    @property
    def events(self) -> list[Event]:
        with self._lock:
            return list(self._events)

    @property
    def dropped_events(self) -> int:
        return self._dropped_events

    def counters(self) -> list[Counter]:
        with self._lock:
            return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> list[Gauge]:
        with self._lock:
            return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> list[Histogram]:
        with self._lock:
            return [self._histograms[k] for k in sorted(self._histograms)]

    def snapshot(self) -> dict:
        """JSON-compatible summary of all instruments (no event bodies).

        This is what the ``ObservabilityQuery`` IPC message returns: small
        enough to frame, complete enough to drive a dashboard scrape.
        """
        with self._lock:
            return {
                "enabled": self.enabled,
                "counters": [
                    {"name": c.name, "labels": c.labels, "value": c.value}
                    for c in self.counters()
                ],
                "gauges": [
                    {"name": g.name, "labels": g.labels, "value": g.value}
                    for g in self.gauges()
                ],
                "histograms": [
                    {
                        "name": h.name,
                        "labels": h.labels,
                        "count": h.count,
                        "sum": h.sum,
                        "min": h.min if h.count else None,
                        "max": h.max if h.count else None,
                        "bounds": list(h.bounds),
                        "bucket_counts": list(h.bucket_counts),
                    }
                    for h in self.histograms()
                ],
                "n_events": len(self._events),
                "dropped_events": self._dropped_events,
            }


#: The process-local default registry every instrumentation site uses.
#: Disabled by default: the hot paths pay one attribute check and nothing
#: else until someone calls ``OBS.enable()``.
OBS = Registry(enabled=False)
