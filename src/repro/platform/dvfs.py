"""DVFS governors.

The paper runs its evaluation under the platform-default governors
(``powersave`` via intel_pstate on Raptor Lake, ``schedutil`` on the
Odroid) and repeats the Intel measurements under ``performance``
(§6.3.3).  We model the three governors at the granularity the simulation
needs: given per-core utilization over the last interval, pick the next
operating frequency for each core.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.platform.topology import Core, Platform


class Governor(ABC):
    """Selects per-core frequencies from observed utilization."""

    name: str

    #: ``(utilization dict, frequencies)`` of the last :meth:`select_all`
    #: call, or ``None``; a governor whose choice also depends on its own
    #: settings drops it when they change.
    _last_choice: tuple | None = None

    def __init__(self, platform: Platform):
        self.platform = platform

    @abstractmethod
    def select_freq(self, core: Core, utilization: float) -> float:
        """Next frequency (MHz) for ``core`` given utilization in [0, 1]."""

    def select_all(self, utilization_by_core: dict[int, float]) -> dict[int, float]:
        """Frequencies for every core; missing cores are treated as idle.

        The last choice is remembered.  Called again with the same dict
        object, this returns the same frequencies dict without choosing
        again: the engine passes the core utilization of the tick
        pattern it last applied, which repeats while a stretch repeats.
        A new choice equal to the last one also returns the last dict,
        so the engine's frequency-keyed memories can compare by
        identity.  A caller must therefore not mutate a utilization dict
        it has passed, nor the frequencies it got back.
        """
        last = self._last_choice
        if last is not None and last[0] is utilization_by_core:
            return last[1]
        freqs = {}
        for core in self.platform.cores:
            util = utilization_by_core.get(core.core_id, 0.0)
            freqs[core.core_id] = self.select_freq(core, util)
        if last is not None and freqs == last[1]:
            freqs = last[1]
        self._last_choice = (utilization_by_core, freqs)
        return freqs


class PerformanceGovernor(Governor):
    """Always runs at maximum frequency."""

    name = "performance"

    def select_freq(self, core: Core, utilization: float) -> float:
        return float(core.core_type.max_freq_mhz)


class SchedutilGovernor(Governor):
    """Utilization-driven governor used on the Odroid.

    Mirrors the kernel's formula ``f = 1.25 * f_max * util`` clamped to the
    core's frequency range.
    """

    name = "schedutil"
    _HEADROOM = 1.25

    def select_freq(self, core: Core, utilization: float) -> float:
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        ct = core.core_type
        target = self._HEADROOM * ct.max_freq_mhz * utilization
        return float(min(ct.max_freq_mhz, max(ct.min_freq_mhz, target)))


class PowersaveGovernor(Governor):
    """intel_pstate ``powersave``: demand-driven but less aggressive.

    Ramps frequency with utilization but keeps a lower floor and slightly
    less headroom than schedutil, reflecting intel_pstate's conservative
    response on mostly-idle cores.
    """

    name = "powersave"
    _HEADROOM = 1.1

    def select_freq(self, core: Core, utilization: float) -> float:
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        ct = core.core_type
        target = self._HEADROOM * ct.max_freq_mhz * utilization
        return float(min(ct.max_freq_mhz, max(ct.min_freq_mhz, target)))


_GOVERNORS = {
    PerformanceGovernor.name: PerformanceGovernor,
    SchedutilGovernor.name: SchedutilGovernor,
    PowersaveGovernor.name: PowersaveGovernor,
}


def make_governor(name: str, platform: Platform) -> Governor:
    """Instantiate a governor by its Linux name."""
    try:
        cls = _GOVERNORS[name]
    except KeyError:
        raise ValueError(
            f"unknown governor {name!r}; available: {sorted(_GOVERNORS)}"
        ) from None
    return cls(platform)
