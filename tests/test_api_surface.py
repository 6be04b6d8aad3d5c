"""The public API surface: exports exist, are importable, and documented."""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.platform",
    "repro.sim",
    "repro.sim.schedulers",
    "repro.apps",
    "repro.core",
    "repro.libharp",
    "repro.ipc",
    "repro.dse",
    "repro.obs",
    "repro.analysis",
    "repro.ext",
    "repro.cli",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_importable_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize(
    "name",
    [m for m in PUBLIC_MODULES if m not in ("repro.cli",)],
)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if obj.__module__.startswith("repro"):
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_quickstart_snippet_from_readme():
    """The README quickstart must keep working verbatim (short version)."""
    from repro.analysis.scenarios import run_scenario

    result = run_scenario(["is.C"], platform="intel", policy="cfs",
                          rounds=1, seed=42)
    assert result.makespan_s > 0


def test_docstring_coverage_of_public_methods():
    """Every public method on the core classes carries a docstring."""
    from repro.core.allocator import LagrangianAllocator
    from repro.core.exploration import ExplorationPlanner
    from repro.core.manager import HarpManager
    from repro.core.operating_point import OperatingPoint, OperatingPointTable
    from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
    from repro.libharp.client import LibHarpClient

    for cls in (
        LagrangianAllocator, ExplorationPlanner, HarpManager,
        OperatingPoint, OperatingPointTable, ErvLayout,
        ExtendedResourceVector, LibHarpClient,
    ):
        for attr_name, attr in vars(cls).items():
            if attr_name.startswith("_"):
                continue
            if inspect.isfunction(attr):
                assert attr.__doc__, f"{cls.__name__}.{attr_name} undocumented"


def test_configuration_surface_is_pinned():
    """The runtime's settable values, exactly: a new knob is a decision.

    Values that only their default ever reached are module or class
    constants; adding a config field or a defaulted constructor parameter
    to the control path must update this list on purpose.
    """
    import dataclasses

    from repro.core.allocator import AllocationRequest, LagrangianAllocator
    from repro.core.exploration import ExplorationPlanner
    from repro.core.manager import HarpManager, ManagerConfig
    from repro.fault.injector import SimFaultInjector
    from repro.fleet.coordinator import CoordinatorConfig
    from repro.fleet.node import NodeManager, node_platform
    from repro.fleet.sim import FleetSim
    from repro.ipc.client import HarpSocketClient
    from repro.ipc.server import HarpSocketServer
    from repro.libharp.client import LibHarpClient
    from repro.sim.schedulers.eas import EasScheduler

    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    def defaulted(obj):
        return [
            name
            for name, param in inspect.signature(obj).parameters.items()
            if param.default is not inspect.Parameter.empty
        ]

    assert fields(ManagerConfig) == [
        "measurements_per_point", "stable_after", "ema_alpha", "adaptation",
        "explore", "startup_delay_s", "background_reserve", "epoch_window_s",
    ]
    assert fields(CoordinatorConfig) == ["node_lease_epochs"]
    assert {
        obj.__name__: defaulted(obj)
        for obj in (
            HarpManager, LagrangianAllocator, AllocationRequest,
            ExplorationPlanner, EasScheduler, FleetSim, NodeManager,
            node_platform, HarpSocketServer, HarpSocketClient,
            LibHarpClient, SimFaultInjector,
        )
    } == {
        "HarpManager": ["config", "offline_tables", "allocator", "seed"],
        "LagrangianAllocator": ["cache_size"],
        "AllocationRequest": ["max_utility", "mandatory", "preferred_erv"],
        "ExplorationPlanner": ["stable_after"],
        "EasScheduler": [],
        "FleetSim": [
            "n_nodes", "apps", "engine", "seed", "plan",
            "coordinator_config", "manager_config",
        ],
        "NodeManager": ["engine", "seed", "manager_config"],
        "node_platform": [],
        "HarpSocketServer": [],
        "HarpSocketClient": ["timeout"],
        "LibHarpClient": ["description_points"],
        "SimFaultInjector": [],
    }
