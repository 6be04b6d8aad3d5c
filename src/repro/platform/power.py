"""Per-core and platform power models.

Dynamic CPU power scales roughly with f·V² and voltage itself rises with
frequency, so we model active power as a cubic in the frequency ratio with
a small frequency-independent leakage floor.  This matches the shape of
published RAPL sweeps for both Raptor Lake and the Exynos 5422 closely
enough for the resource manager, which only sees integrated energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platform.topology import Core, CoreType, Platform

# Fraction of active power that does not scale with frequency (leakage and
# always-on structures).  Public: the engine's power kernel applies the
# same formula over arrays of cores.
STATIC_FRACTION = 0.22


@dataclass
class CorePowerModel:
    """Power model of a single core."""

    core_type: CoreType

    def power(
        self,
        busy_threads: int,
        freq_mhz: float | None = None,
        activity: float = 1.0,
    ) -> float:
        """Instantaneous core power in watts.

        Args:
            busy_threads: number of busy hardware threads on the core.
            freq_mhz: current operating frequency; defaults to maximum.
            activity: fraction of the interval the busy threads actually
                execute (1.0 = fully busy).
        """
        ct = self.core_type
        if busy_threads < 0 or busy_threads > ct.smt:
            raise ValueError(
                f"busy_threads must be in [0, {ct.smt}] for {ct.name}"
            )
        if not 0.0 <= activity <= 1.0:
            raise ValueError("activity must be in [0, 1]")
        if busy_threads == 0 or activity <= 0.0:
            return ct.idle_power_w
        freq = ct.max_freq_mhz if freq_mhz is None else freq_mhz
        ratio = freq / ct.max_freq_mhz
        scale = STATIC_FRACTION + (1.0 - STATIC_FRACTION) * ratio**3
        active = ct.active_power_w * scale
        if busy_threads > 1:
            active += ct.smt_power_w * (busy_threads - 1) * scale
        return ct.idle_power_w + active * activity

    def power_fractional(
        self,
        busy_fractions: list[float],
        freq_mhz: float | None = None,
    ) -> float:
        """Power with per-hardware-thread fractional busyness.

        The most-busy hardware thread draws the core's primary active
        power; each additional busy sibling contributes the (smaller) SMT
        increment, all scaled by its busy fraction.
        """
        ct = self.core_type
        if len(busy_fractions) > ct.smt:
            raise ValueError(f"at most {ct.smt} hw threads on a {ct.name} core")
        fractions = sorted(
            (min(1.0, max(0.0, f)) for f in busy_fractions), reverse=True
        )
        if not fractions or fractions[0] <= 0.0:
            return ct.idle_power_w
        freq = ct.max_freq_mhz if freq_mhz is None else freq_mhz
        ratio = freq / ct.max_freq_mhz
        scale = STATIC_FRACTION + (1.0 - STATIC_FRACTION) * ratio**3
        power = ct.idle_power_w + ct.active_power_w * scale * fractions[0]
        for frac in fractions[1:]:
            power += ct.smt_power_w * scale * frac
        return power


@dataclass
class PlatformPowerModel:
    """Aggregates per-core power plus the uncore/static contribution."""

    platform: Platform

    def __post_init__(self) -> None:
        self._core_models = {
            ct.name: CorePowerModel(ct) for ct in self.platform.core_types
        }

    def core_power(
        self,
        core: Core,
        busy_threads: int,
        freq_mhz: float | None = None,
        activity: float = 1.0,
    ) -> float:
        """Power of one core given its busy-thread count and frequency."""
        return self._core_models[core.core_type.name].power(
            busy_threads, freq_mhz, activity
        )

    def package_power(
        self,
        busy_by_core: dict[int, int],
        freq_by_core: dict[int, float] | None = None,
    ) -> float:
        """Total package power for a per-core busy-thread mapping.

        Args:
            busy_by_core: core_id → number of busy hardware threads; cores
                absent from the mapping are idle.
            freq_by_core: optional core_id → frequency (MHz).
        """
        total = self.platform.uncore_power_w
        for core in self.platform.cores:
            busy = busy_by_core.get(core.core_id, 0)
            freq = None
            if freq_by_core is not None:
                freq = freq_by_core.get(core.core_id)
            total += self.core_power(core, busy, freq)
        return total

    def idle_power(self) -> float:
        """Package power with every core idle."""
        return self.package_power({})

    def max_power(self) -> float:
        """Package power with every hardware thread busy at max frequency."""
        busy = {c.core_id: c.core_type.smt for c in self.platform.cores}
        return self.package_power(busy)
