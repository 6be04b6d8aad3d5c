"""Core topology of single-ISA heterogeneous processors.

The two evaluation platforms of the paper are modelled explicitly:

* Intel Raptor Lake Core i9-13900K — 8 high-performance P-cores with SMT
  (16 hardware threads) plus 16 energy-efficient E-cores, P-cores capped at
  4.6 GHz and E-cores at 3.8 GHz (the paper pins these to avoid thermal
  throttling).
* Odroid XU3-E (Samsung Exynos 5422) — a four-core Cortex-A15 (big) island
  at 1.8 GHz and a four-core Cortex-A7 (LITTLE) island at 1.2 GHz.

Speeds are expressed in normalized work-units per second where a single
P-core (respectively A15) hardware thread running alone at maximum
frequency delivers ``1.0``.  The heterogeneity ratios (E-core ≈ 0.55×
P-core performance at roughly one quarter of the power; A7 ≈ 0.35× A15)
follow published measurements for these parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True)
class CoreType:
    """A class of identical cores within a heterogeneous processor.

    Attributes:
        name: identifier such as ``"P"``, ``"E"``, ``"big"``, ``"LITTLE"``.
        base_speed: work-units/s of one hardware thread running alone on the
            core at ``max_freq_mhz``.
        smt: number of hardware threads per core (2 for Intel P-cores).
        smt_factor: per-thread speed multiplier when *all* SMT siblings of a
            core are busy.  Two busy P-hyperthreads each run at
            ``base_speed * smt_factor`` (> 0.5 means SMT increases total
            core throughput).
        max_freq_mhz: maximum (pinned) operating frequency.
        min_freq_mhz: lowest DVFS operating point.
        idle_power_w: per-core power when idle (clock-gated).
        active_power_w: per-core power when one hardware thread is fully
            busy at ``max_freq_mhz``.
        smt_power_w: additional power when the second SMT sibling is busy.
        ips_per_speed: instructions/s emitted per work-unit/s of progress;
            used by the synthetic perf substrate to derive IPS readings.
    """

    name: str
    base_speed: float
    smt: int
    smt_factor: float
    max_freq_mhz: int
    min_freq_mhz: int
    idle_power_w: float
    active_power_w: float
    smt_power_w: float
    ips_per_speed: float = 1.0e9

    def __post_init__(self) -> None:
        if self.smt < 1:
            raise ValueError(f"core type {self.name!r}: smt must be >= 1")
        if not 0.0 < self.smt_factor <= 1.0:
            raise ValueError(
                f"core type {self.name!r}: smt_factor must be in (0, 1]"
            )
        if self.base_speed <= 0:
            raise ValueError(f"core type {self.name!r}: base_speed must be > 0")
        if self.min_freq_mhz > self.max_freq_mhz:
            raise ValueError(
                f"core type {self.name!r}: min_freq_mhz > max_freq_mhz"
            )

    def thread_speed(self, busy_siblings: int, freq_mhz: float | None = None) -> float:
        """Speed of one busy hardware thread given total busy siblings on the core.

        Args:
            busy_siblings: number of busy hardware threads on the core
                (including the one being queried); must be >= 1.
            freq_mhz: operating frequency; defaults to the maximum.
        """
        if busy_siblings < 1:
            raise ValueError("busy_siblings must be >= 1")
        freq = self.max_freq_mhz if freq_mhz is None else freq_mhz
        scale = freq / self.max_freq_mhz
        if busy_siblings == 1:
            return self.base_speed * scale
        return self.base_speed * self.smt_factor * scale


@dataclass(frozen=True)
class HwThread:
    """A single hardware thread (logical CPU)."""

    thread_id: int
    core_id: int
    core_type: CoreType


@dataclass(frozen=True)
class Core:
    """A physical core with one or more hardware threads."""

    core_id: int
    core_type: CoreType
    hw_threads: tuple[HwThread, ...]


@dataclass
class Platform:
    """A heterogeneous processor: an ordered set of cores of several types.

    The ordering of ``core_types`` is significant: it defines the component
    order of resource vectors exchanged between the RM and applications.
    """

    name: str
    core_types: list[CoreType]
    cores: list[Core] = field(default_factory=list)
    uncore_power_w: float = 0.0

    def __post_init__(self) -> None:
        names = [ct.name for ct in self.core_types]
        if len(set(names)) != len(names):
            raise ValueError("duplicate core type names")
        self._type_by_name = {ct.name: ct for ct in self.core_types}

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        name: str,
        counts: list[tuple[CoreType, int]],
        uncore_power_w: float = 0.0,
    ) -> "Platform":
        """Create a platform with ``count`` cores of each given type."""
        platform = cls(
            name=name,
            core_types=[ct for ct, _ in counts],
            uncore_power_w=uncore_power_w,
        )
        core_id = 0
        thread_id = 0
        for core_type, count in counts:
            for _ in range(count):
                threads = tuple(
                    HwThread(thread_id + i, core_id, core_type)
                    for i in range(core_type.smt)
                )
                platform.cores.append(Core(core_id, core_type, threads))
                core_id += 1
                thread_id += core_type.smt
        return platform

    # -- queries -----------------------------------------------------------

    def core_type(self, name: str) -> CoreType:
        """Look up a core type by name."""
        try:
            return self._type_by_name[name]
        except KeyError:
            raise KeyError(
                f"platform {self.name!r} has no core type {name!r}"
            ) from None

    def cores_of_type(self, name: str) -> list[Core]:
        """All cores of the named type, in id order."""
        return [c for c in self.cores if c.core_type.name == name]

    def count_of_type(self, name: str) -> int:
        """Number of cores of the named type."""
        return len(self.cores_of_type(name))

    @property
    def hw_threads(self) -> list[HwThread]:
        """All hardware threads in thread-id order."""
        return [t for core in self.cores for t in core.hw_threads]

    @cached_property
    def core_of_hw_thread(self) -> dict[int, int]:
        """Core id of each hardware thread id (built on first use)."""
        return {t.thread_id: t.core_id for t in self.hw_threads}

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def n_hw_threads(self) -> int:
        return sum(len(c.hw_threads) for c in self.cores)

    def capacity_vector(self) -> list[int]:
        """Total cores per type, in ``core_types`` order (the paper's R-vector)."""
        return [self.count_of_type(ct.name) for ct in self.core_types]

    def max_speed(self) -> float:
        """Aggregate work-units/s with every hardware thread busy."""
        total = 0.0
        for core in self.cores:
            ct = core.core_type
            total += ct.thread_speed(ct.smt) * ct.smt
        return total


# -- reference platforms ----------------------------------------------------

def raptor_lake_i9_13900k() -> Platform:
    """Intel Raptor Lake Core i9-13900K: 8 P-cores (SMT) + 16 E-cores.

    Calibration: at the paper's pinned frequencies (4.6 GHz P / 3.8 GHz E)
    an E-core delivers roughly 55 % of a P-core's single-thread throughput
    at roughly one quarter of its power; a second busy P-hyperthread adds
    about 24 % total core throughput.
    """
    p_core = CoreType(
        name="P",
        base_speed=1.0,
        smt=2,
        smt_factor=0.62,
        max_freq_mhz=4600,
        min_freq_mhz=800,
        idle_power_w=0.35,
        active_power_w=15.0,
        smt_power_w=2.6,
        ips_per_speed=2.2e9,
    )
    e_core = CoreType(
        name="E",
        base_speed=0.55,
        smt=1,
        smt_factor=1.0,
        max_freq_mhz=3800,
        min_freq_mhz=800,
        idle_power_w=0.12,
        active_power_w=3.8,
        smt_power_w=0.0,
        ips_per_speed=2.0e9,
    )
    return Platform.build(
        "intel-raptor-lake-i9-13900k",
        [(p_core, 8), (e_core, 16)],
        uncore_power_w=9.0,
    )


def odroid_xu3e() -> Platform:
    """Odroid XU3-E (Exynos 5422): 4×Cortex-A15 (big) + 4×Cortex-A7 (LITTLE).

    Frequencies follow the paper's caps: 1.8 GHz big, 1.2 GHz LITTLE.
    """
    big = CoreType(
        name="big",
        base_speed=1.0,
        smt=1,
        smt_factor=1.0,
        max_freq_mhz=1800,
        min_freq_mhz=200,
        idle_power_w=0.08,
        active_power_w=1.55,
        smt_power_w=0.0,
        ips_per_speed=1.6e9,
    )
    little = CoreType(
        name="LITTLE",
        base_speed=0.35,
        smt=1,
        smt_factor=1.0,
        max_freq_mhz=1200,
        min_freq_mhz=200,
        idle_power_w=0.02,
        active_power_w=0.28,
        smt_power_w=0.0,
        ips_per_speed=1.1e9,
    )
    return Platform.build(
        "odroid-xu3e",
        [(big, 4), (little, 4)],
        uncore_power_w=0.55,
    )
