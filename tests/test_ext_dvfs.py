"""Tests for the DVFS-aware allocation extension (§7 outlook, item 1)."""

import pytest

from repro.apps import npb_model
from repro.core.manager import ManagerConfig
from repro.core.resource_vector import ErvLayout
from repro.dse.explorer import measure_operating_point
from repro.ext.dvfs import (
    FREQ_SCALE_KNOB,
    CappedGovernor,
    DvfsAwareManager,
    explore_application_dvfs,
)
from repro.platform.dvfs import PerformanceGovernor, make_governor
from repro.sim.engine import World
from repro.sim.schedulers.pinned import PinnedScheduler


class TestCappedGovernor:
    def test_no_cap_passthrough(self, intel):
        gov = CappedGovernor(PerformanceGovernor(intel))
        core = intel.cores[0]
        assert gov.select_freq(core, 1.0) == core.core_type.max_freq_mhz

    def test_cap_applies(self, intel):
        gov = CappedGovernor(PerformanceGovernor(intel))
        core = intel.cores[0]
        gov.set_cap(core.core_id, 0.5)
        assert gov.select_freq(core, 1.0) == pytest.approx(
            0.5 * core.core_type.max_freq_mhz
        )

    def test_cap_respects_min_freq(self, intel):
        gov = CappedGovernor(PerformanceGovernor(intel))
        core = intel.cores[0]
        gov.set_cap(core.core_id, 0.01)
        assert gov.select_freq(core, 1.0) >= core.core_type.min_freq_mhz

    def test_clear_caps(self, intel):
        gov = CappedGovernor(PerformanceGovernor(intel))
        gov.set_cap(0, 0.5)
        gov.set_cap(1, 0.5)
        gov.clear_caps([0])
        assert gov.cap_of(0) == 1.0
        assert gov.cap_of(1) == 0.5
        gov.clear_caps()
        assert gov.cap_of(1) == 1.0

    def test_full_scale_removes_cap(self, intel):
        gov = CappedGovernor(PerformanceGovernor(intel))
        gov.set_cap(0, 0.5)
        gov.set_cap(0, 1.0)
        assert gov.cap_of(0) == 1.0

    def test_invalid_scale_rejected(self, intel):
        gov = CappedGovernor(PerformanceGovernor(intel))
        with pytest.raises(ValueError):
            gov.set_cap(0, 0.0)
        with pytest.raises(ValueError):
            gov.set_cap(0, 1.5)


class TestDvfsProbing:
    def test_capped_probe_draws_less_power(self, intel, intel_layout):
        erv = intel_layout.make(P2=4)
        full = measure_operating_point(
            lambda: npb_model("ep.C"), intel, erv, probe_s=0.3,
            sensor_noise=0.0, perf_noise=0.0,
        )
        capped = measure_operating_point(
            lambda: npb_model("ep.C"), intel, erv, probe_s=0.3,
            sensor_noise=0.0, perf_noise=0.0, freq_scale=0.7,
        )
        assert capped.power_w < 0.85 * full.power_w
        assert capped.utility < full.utility  # compute-bound loses speed
        assert capped.knobs == {FREQ_SCALE_KNOB: 0.7}

    def test_memory_bound_free_lunch(self, intel, intel_layout):
        # mg's bandwidth ceiling keeps throughput flat under a mild cap
        # on a large-enough E allocation.
        erv = intel_layout.make(E=16)
        full = measure_operating_point(
            lambda: npb_model("mg.C"), intel, erv, probe_s=0.3,
            sensor_noise=0.0, perf_noise=0.0,
        )
        capped = measure_operating_point(
            lambda: npb_model("mg.C"), intel, erv, probe_s=0.3,
            sensor_noise=0.0, perf_noise=0.0, freq_scale=0.85,
        )
        assert capped.utility == pytest.approx(full.utility, rel=0.1)
        assert capped.power_w < full.power_w

    def test_dvfs_dse_enumerates_scales(self, intel, intel_layout):
        grid = [intel_layout.make(E=8)]
        result = explore_application_dvfs(
            lambda: npb_model("is.C"), intel, grid=grid,
            freq_scales=(0.7, 1.0), probe_s=0.2,
        )
        assert len(result.points) == 2
        scales = {p.knobs.get(FREQ_SCALE_KNOB, 1.0) for p in result.points}
        assert scales == {0.7, 1.0}

    def test_points_with_scales_are_fine_grained(self, intel, intel_layout):
        grid = [intel_layout.make(E=8)]
        result = explore_application_dvfs(
            lambda: npb_model("is.C"), intel, grid=grid,
            freq_scales=(0.7, 1.0), probe_s=0.2,
        )
        table = result.to_table(intel_layout)
        # Both share the ERV but remain distinct points.
        assert len(table) == 2


class TestDvfsAwareManager:
    def test_requires_capped_governor(self, intel):
        world = World(intel, PinnedScheduler(), seed=0)
        with pytest.raises(TypeError):
            DvfsAwareManager(world, ManagerConfig())

    def test_applies_and_releases_caps(self, intel, intel_layout):
        governor = CappedGovernor(make_governor("powersave", intel))
        world = World(intel, PinnedScheduler(), governor=governor, seed=0)
        points = [
            {"erv": [0, 0, 16], "utility": 6.0, "power": 40.0,
             "knobs": {FREQ_SCALE_KNOB: 0.7}, "measured": True, "samples": 1},
        ]
        config = ManagerConfig(explore=False, startup_delay_s=0.02)
        manager = DvfsAwareManager(
            world, config, offline_tables={"mg.C": points}
        )
        proc = world.spawn(npb_model("mg.C"), managed=True)
        world.run_for(0.2)
        e_core_ids = [c.core_id for c in intel.cores_of_type("E")]
        assert any(governor.cap_of(cid) == 0.7 for cid in e_core_ids)
        world.run_until_all_finished()
        assert all(governor.cap_of(cid) == 1.0 for cid in e_core_ids)

    def test_failed_push_releases_caps(self, intel):
        """A session reaped for a failed push leaves no core capped."""
        governor = CappedGovernor(make_governor("powersave", intel))
        world = World(intel, PinnedScheduler(), governor=governor, seed=0)
        points = [
            {"erv": [0, 0, 16], "utility": 6.0, "power": 40.0,
             "knobs": {FREQ_SCALE_KNOB: 0.7}, "measured": True, "samples": 1},
        ]
        config = ManagerConfig(explore=False, startup_delay_s=0.02)
        manager = DvfsAwareManager(
            world, config, offline_tables={"mg.C": points}
        )
        proc = world.spawn(npb_model("mg.C"), managed=True)
        manager.sessions[proc.pid].transport.push_filter = lambda message: False
        world.run_for(0.3)
        assert manager.push_failures == 1
        assert proc.pid not in manager.sessions
        assert all(governor.cap_of(c.core_id) == 1.0 for c in intel.cores)

    def test_end_to_end_energy_win_on_memory_bound(self, intel, intel_layout):
        """DVFS-aware offline tables beat frequency-blind ones on mg."""
        from repro.analysis.scenarios import run_scenario
        from repro.dse.explorer import explore_application

        grid = [intel_layout.make(E=16), intel_layout.make(P2=8, E=16),
                intel_layout.make(E=8)]
        blind = explore_application(
            lambda: npb_model("mg.C"), intel, grid=grid, probe_s=0.3
        )
        aware = explore_application_dvfs(
            lambda: npb_model("mg.C"), intel, grid=grid,
            freq_scales=(0.7, 0.85, 1.0), probe_s=0.3,
        )

        def run(points, manager_cls, governor_factory):
            from repro.analysis.scenarios import _run_one_round, resolve_model
            world = World(
                intel, PinnedScheduler(),
                governor=governor_factory(), seed=2,
            )
            config = ManagerConfig(explore=False, startup_delay_s=0.05)
            manager_cls(world, config,
                        offline_tables={"mg.C": [p.to_wire() for p in points]})
            return _run_one_round(world, [resolve_model("mg.C")], managed=True)

        from repro.core.manager import HarpManager

        blind_round = run(
            blind.to_table_points(), HarpManager,
            lambda: make_governor("powersave", intel),
        )
        aware_round = run(
            aware.to_table_points(), DvfsAwareManager,
            lambda: CappedGovernor(make_governor("powersave", intel)),
        )
        assert aware_round.energy_j < blind_round.energy_j
        assert aware_round.makespan_s < blind_round.makespan_s * 1.2
