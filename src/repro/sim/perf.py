"""Synthetic perf counters.

HARP's monitoring relies on the Linux perf subsystem for per-application
instruction counts (§5.1).  This module provides the same observable: a
per-process instruction counter that readers poll to derive IPS over an
interval, with multiplicative measurement noise standing in for counter
multiplexing and sampling jitter.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.sim.process import SimProcess


class PerfCounters:
    """Per-process instruction counters with read-side noise.

    The counts themselves are the processes' ``instructions``
    accumulators, which the engine advances in its world's ledger.
    """

    def __init__(self, noise_std: float = 0.02, seed: int | None = None):
        if noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        self.noise_std = noise_std
        self._rng = np.random.default_rng(seed)
        #: The processes these counters read: the owning world binds its
        #: process table.
        self.processes: Mapping[int, SimProcess] = {}

    def read_instructions(self, pid: int) -> float:
        """Cumulative instruction count for a process (exact, like perf)."""
        process = self.processes.get(pid)
        return 0.0 if process is None else process.instructions

    def noisy_rate(self, rate: float) -> float:
        """Apply sampling/multiplexing noise to an interval-derived rate."""
        if self.noise_std > 0 and rate > 0:
            rate *= max(0.0, 1.0 + self._rng.normal(0.0, self.noise_std))
        return rate


class IntervalReader:
    """Derives interval IPS from cumulative counters, like a perf poller."""

    def __init__(self, counters: PerfCounters):
        self._counters = counters
        self._last_instructions: dict[int, float] = {}
        self._last_time: dict[int, float] = {}

    def sample_ips(self, pid: int, now_s: float) -> float | None:
        """IPS over the interval since the previous call for this pid.

        Returns None on the first call (no interval yet) or when no time
        has passed.
        """
        instructions = self._counters.read_instructions(pid)
        prev_i = self._last_instructions.get(pid)
        prev_t = self._last_time.get(pid)
        self._last_instructions[pid] = instructions
        self._last_time[pid] = now_s
        if prev_i is None or prev_t is None or now_s <= prev_t:
            return None
        rate = max(0.0, (instructions - prev_i) / (now_s - prev_t))
        return self._counters.noisy_rate(rate)
