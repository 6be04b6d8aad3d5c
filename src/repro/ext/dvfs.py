"""DVFS-aware resource allocation (the paper's §7 outlook, item 1).

    "First, adding dynamic frequency-scaling control of the CPU would
    allow for even finer energy management."

The extension adds a frequency dimension to operating points without
touching the core machinery:

* offline DSE probes every (ERV × frequency-scale) combination; the scale
  travels in the point's knob payload (``freq_scale``), making these
  *fine-grained* operating points that share an ERV;
* :class:`CappedGovernor` wraps any base governor with per-core frequency
  caps;
* :class:`DvfsAwareManager` applies the selected point's cap to the
  allocated cores on activation (a RM-side knob — frequency is an OS
  control, not an application one) and releases the caps when the
  application exits or its session is reaped.

Memory-bandwidth-bound applications are the natural winners: capping the
clock on their cores cuts power roughly cubically while the bandwidth
ceiling keeps throughput unchanged.
"""

from __future__ import annotations

from typing import Callable

from repro.core.manager import AppSession, HarpManager
from repro.core.operating_point import OperatingPoint
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.dse.explorer import (
    DseResult,
    enumerate_erv_grid,
    measure_operating_point,
)
from repro.ipc.messages import ActivateOperatingPoint
from repro.platform.dvfs import Governor
from repro.platform.topology import Core, Platform

FREQ_SCALE_KNOB = "freq_scale"


class CappedGovernor(Governor):
    """Wraps a governor with per-core maximum-frequency caps."""

    name = "capped"

    def __init__(self, base: Governor):
        super().__init__(base.platform)
        self.base = base
        self._caps: dict[int, float] = {}

    def set_cap(self, core_id: int, scale: float) -> None:
        """Cap a core at ``scale`` × its maximum frequency (0 < scale ≤ 1)."""
        if not 0.0 < scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        self._last_choice = None
        if scale >= 1.0:
            self._caps.pop(core_id, None)
        else:
            self._caps[core_id] = scale

    def clear_caps(self, core_ids: list[int] | None = None) -> None:
        """Remove caps from the given cores (all cores when None)."""
        self._last_choice = None
        if core_ids is None:
            self._caps.clear()
            return
        for core_id in core_ids:
            self._caps.pop(core_id, None)

    def cap_of(self, core_id: int) -> float:
        return self._caps.get(core_id, 1.0)

    def select_freq(self, core: Core, utilization: float) -> float:
        freq = self.base.select_freq(core, utilization)
        scale = self._caps.get(core.core_id)
        if scale is not None:
            freq = min(freq, scale * core.core_type.max_freq_mhz)
            freq = max(freq, float(core.core_type.min_freq_mhz))
        return freq


def explore_application_dvfs(
    model_factory: Callable,
    platform: Platform,
    grid: list[ExtendedResourceVector] | None = None,
    freq_scales: tuple[float, ...] = (0.7, 0.85, 1.0),
    probe_s: float = 0.6,
    governor: str = "performance",
    seed: int = 0,
) -> DseResult:
    """Offline DSE over the (configuration × frequency) space.

    Each probe runs with the allocation's cores capped at the candidate
    scale; the resulting points carry the scale in their knob payload.
    """
    layout = ErvLayout(platform)
    if grid is None:
        grid = enumerate_erv_grid(layout)
    model = model_factory()
    result = DseResult(app_name=model.name)
    for erv in grid:
        for scale in freq_scales:
            mp = measure_operating_point(
                model_factory, platform, erv, probe_s=probe_s,
                governor=governor, seed=seed, freq_scale=scale,
            )
            result.points.append(mp)
    return result


class DvfsAwareManager(HarpManager):
    """HARP RM that also selects per-allocation frequency caps.

    Requires the world's governor to be a :class:`CappedGovernor`; the
    manager installs the selected point's cap on the application's cores
    at activation time and lifts it when the session ends (exit or reap).
    """

    def __init__(self, world, *args, **kwargs):
        if not isinstance(world.governor, CappedGovernor):
            raise TypeError(
                "DvfsAwareManager requires the world to run a CappedGovernor"
            )
        super().__init__(world, *args, **kwargs)
        self._capped_cores: dict[int, list[int]] = {}

    def _push_activation(
        self, session: AppSession, message: ActivateOperatingPoint
    ) -> bool:
        governor: CappedGovernor = self.world.governor
        governor.clear_caps(self._capped_cores.pop(session.pid, []))
        scale = float(message.knobs.get(FREQ_SCALE_KNOB, 1.0))
        if scale < 1.0:
            core_of = self.world.platform.core_of_hw_thread
            cores = sorted({core_of[hw] for hw in message.hw_threads})
            for core_id in cores:
                governor.set_cap(core_id, scale)
            self._capped_cores[session.pid] = cores
        return super()._push_activation(session, message)

    def _drop_session(self, pid: int) -> AppSession | None:
        # Exit or reap (a failed push included): the cores go back to
        # the pool, so their caps must go too.
        self.world.governor.clear_caps(self._capped_cores.pop(pid, []))
        return super()._drop_session(pid)
