"""Execution-stage detection (the paper's §7 outlook, item 2).

    "Many applications exhibit distinct performance-energy characteristics
    across different execution stages. [...] a generic solution would
    require automatically detecting these stages without explicit
    application input."

Two pieces:

* :class:`PhasedApplicationModel` — a workload whose behaviour switches
  between phases as work progresses (e.g. an I/O-ish setup phase, a
  compute phase, a memory-bound reduction), used to exercise detection;
* :class:`PhaseChangeDetector` — a CUSUM-style detector over the
  monitoring stream: it tracks a slow baseline of the (utility, power)
  samples for the *current configuration* and flags a stage transition
  when the relative deviation stays beyond a threshold for several
  consecutive samples;
* :class:`PhaseAwareManager` — on detection, archives the application's
  operating-point table and restarts exploration for the new stage, so
  each stage gets its own table (stage tables are cached and reused when a
  known behaviour signature returns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.apps.base import ApplicationModel
from repro.core.manager import AppSession, HarpManager
from repro.core.monitor import MonitorSample
from repro.core.operating_point import OperatingPointTable
from repro.sim.engine import AppPerf, ThreadSlot
from repro.sim.process import SimProcess


@dataclass(frozen=True)
class Phase:
    """One execution stage of a phased application.

    ``work_fraction`` values across a model's phases must sum to 1; the
    remaining attributes override the model's behaviour while the phase is
    active.
    """

    work_fraction: float
    serial_fraction: float = 0.01
    mem_bw_cap: float | None = None
    ips_per_work: float = 1.0e9
    power_intensity: float = 1.0


@dataclass
class PhasedApplicationModel(ApplicationModel):
    """An application whose behaviour changes across execution stages."""

    phases: list[Phase] = field(default_factory=list)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.phases:
            raise ValueError("phased application needs at least one phase")
        total = sum(p.work_fraction for p in self.phases)
        if abs(total - 1.0) > 1e-6:
            raise ValueError("phase work fractions must sum to 1")

    def phase_at(self, work_done: float) -> Phase:
        """The phase active at a given progress position."""
        boundary = 0.0
        for phase in self.phases:
            boundary += phase.work_fraction * self.total_work
            if work_done < boundary - 1e-12:
                return phase
        return self.phases[-1]

    def steady_work_horizon(self, process: SimProcess) -> float:
        """The work level at which the current phase ends.

        Exactly the threshold :meth:`phase_at` compares against
        (``boundary - 1e-12``): a tick that starts with ``work_done``
        below it runs in the current phase, and the first tick that
        starts at or above it runs in the next, so the event engine's
        busy leaps stop on the tick before the flip.  The last phase
        extends to the end of the work (``math.inf``), where the
        completion takes over.
        """
        boundary = 0.0
        for phase in self.phases[:-1]:
            boundary += phase.work_fraction * self.total_work
            if process.work_done < boundary - 1e-12:
                return boundary - 1e-12
        return math.inf

    def perf(self, slots: list[ThreadSlot], process: SimProcess) -> AppPerf:
        phase = self.phase_at(process.work_done)
        # Temporarily adopt the phase's behaviour; ApplicationModel.perf
        # reads these attributes directly.
        saved = (
            self.serial_fraction, self.mem_bw_cap,
            self.ips_per_work, self.power_intensity,
        )
        try:
            self.serial_fraction = phase.serial_fraction
            self.mem_bw_cap = phase.mem_bw_cap
            self.ips_per_work = phase.ips_per_work
            self.power_intensity = phase.power_intensity
            return super().perf(slots, process)
        finally:
            (
                self.serial_fraction, self.mem_bw_cap,
                self.ips_per_work, self.power_intensity,
            ) = saved


class PhaseChangeDetector:
    """Relative-shift detector over per-configuration measurement streams.

    A sample deviates when either utility or power differs from the slow
    baseline by more than ``threshold`` (relative).  ``patience``
    consecutive deviations — under an unchanged configuration — signal a
    stage transition.  Reconfigurations reset the baseline, since a new
    allocation legitimately changes both metrics.
    """

    def __init__(
        self,
        threshold: float = 0.35,
        patience: int = 4,
        baseline_alpha: float = 0.02,
    ):
        if threshold <= 0:
            raise ValueError("threshold must be > 0")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.threshold = threshold
        self.patience = patience
        self.baseline_alpha = baseline_alpha
        self._baseline_u: float | None = None
        self._baseline_p: float | None = None
        self._deviations = 0
        self._config_key = None
        self._warmup = 0

    def reset(self, config_key=None) -> None:
        """Forget the baseline (call after a reconfiguration)."""
        self._baseline_u = None
        self._baseline_p = None
        self._deviations = 0
        self._config_key = config_key
        self._warmup = 0

    def observe(self, config_key, utility: float, power: float) -> bool:
        """Feed one sample; True when a stage transition is detected."""
        if config_key != self._config_key:
            self.reset(config_key)
        if self._baseline_u is None:
            self._baseline_u = utility
            self._baseline_p = power
            return False
        self._warmup += 1
        dev_u = abs(utility - self._baseline_u) / max(abs(self._baseline_u), 1e-12)
        dev_p = abs(power - self._baseline_p) / max(abs(self._baseline_p), 1e-12)
        deviating = max(dev_u, dev_p) > self.threshold
        if deviating and self._warmup > self.patience:
            self._deviations += 1
        else:
            self._deviations = 0
            # Only track the baseline while behaviour is steady.
            a = self.baseline_alpha
            self._baseline_u += a * (utility - self._baseline_u)
            self._baseline_p += a * (power - self._baseline_p)
        if self._deviations >= self.patience:
            self.reset(config_key)
            return True
        return False


class PhaseAwareManager(HarpManager):
    """HARP RM with automatic stage detection and per-stage tables."""

    def __init__(self, *args, detector_factory=PhaseChangeDetector, **kwargs):
        super().__init__(*args, **kwargs)
        self._detector_factory = detector_factory
        self._detectors: dict[int, PhaseChangeDetector] = {}
        self._stage_index: dict[str, int] = {}
        self.phase_changes: dict[str, int] = {}

    def _on_measurement(self, session: AppSession, sample: MonitorSample) -> None:
        detector = self._detectors.get(session.pid)
        if detector is None:
            detector = self._detector_factory()
            self._detectors[session.pid] = detector
        changed = detector.observe(
            session.current_erv, sample.utility, sample.power_w
        )
        if not changed:
            return
        app = session.table.app_name
        self.phase_changes[app] = self.phase_changes.get(app, 0) + 1
        stage = self._stage_index.get(app, 0) + 1
        self._stage_index[app] = stage
        # Per-stage tables: resume the stage's table if this behaviour was
        # seen before, otherwise start a fresh exploration.
        key = f"{app}#stage{stage}"
        table = self.table_store.get(key)
        if table is None:
            table = OperatingPointTable(app, self.layout)
            self.table_store[key] = table
        session.table = table
        session.samples_at_current = 0
        session.measurements_total = 0
        self.reallocate()

    def _on_process_exit(self, process) -> None:
        self._detectors.pop(process.pid, None)
        super()._on_process_exit(process)
