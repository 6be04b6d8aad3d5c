"""Edge cases of the manager's configuration space."""

import subprocess
import sys

import pytest

from repro.apps import npb_model
from repro.core.manager import HarpManager, ManagerConfig
from repro.platform.dvfs import make_governor
from repro.sim.engine import World
from repro.sim.schedulers.pinned import PinnedScheduler


def _world(platform, seed=0):
    return World(
        platform, PinnedScheduler(),
        governor=make_governor("powersave", platform), seed=seed,
    )


class TestConfigVariants:
    def test_offline_mode_without_points_falls_back_to_fair_share(self, intel):
        """No description file and no exploration: the app still runs on a
        fair-share allocation instead of being starved."""
        world = _world(intel)
        config = ManagerConfig(explore=False, startup_delay_s=0.05)
        manager = HarpManager(world, config)
        proc = world.spawn(npb_model("is.C"), managed=True)
        makespan = world.run_until_all_finished()
        assert proc.finished
        assert makespan < 60

    def test_utility_polling_disabled_uses_ips(self, intel):
        """An app that provides no utility is never polled: its table is
        measured in IPS."""
        world = _world(intel)
        config = ManagerConfig(startup_delay_s=0.05)
        manager = HarpManager(world, config)
        world.spawn(npb_model("mg.C"), managed=True)
        world.run_for(1.5)
        measured = manager.table_store["mg.C"].measured_points()
        assert measured
        # Without polling, utilities are IPS-scale (billions), not an app
        # metric (work/s, single digits).
        assert min(p.utility for p in measured) > 1e6

    def test_zero_startup_delay(self, intel):
        world = _world(intel)
        config = ManagerConfig(startup_delay_s=0.0)
        HarpManager(world, config)
        proc = world.spawn(npb_model("ep.C"), managed=True)
        world.run_for(0.05)
        assert proc.affinity is not None  # applied immediately

    def test_export_tables_snapshot(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig(startup_delay_s=0.05))
        world.spawn(npb_model("mg.C"), managed=True)
        world.run_for(2.0)
        snapshot = manager.export_tables()
        assert "mg.C" in snapshot
        assert snapshot["mg.C"]["app"] == "mg.C"
        assert isinstance(snapshot["mg.C"]["points"], list)

    def test_stages_and_all_stable_introspection(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig())
        assert manager.all_stable()  # vacuously true with no sessions
        proc = world.spawn(npb_model("mg.C"), managed=True)
        assert not manager.all_stable()
        assert proc.pid in manager.stages()


class TestModuleEntryPoint:
    def test_python_dash_m_repro_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "scenario" in result.stdout
        assert "experiment" in result.stdout
