"""Published demand under the state-change sweep, and its regressions.

``tests/state_sweep.py`` draws seeded sequences of state changes and
replays each three ways: the tick engine with every memory forced off
(the oracle), the tick engine, and the event engine.  Tier 1 replays the
committed ledger's first 100 sequences and the dense ledger's first 20;
each must agree three ways, keep the published state equal to its
sources at every boundary, and reproduce its ledger line.  CI replays
the first 200 and the whole dense ledger with the script.

The two regression cases pin what demand publication must keep: a
spawned RM daemon sleeps until the manager charges it, and
``set_nthreads`` on a runnable process reaches the next tick's pairs.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis.scenarios import make_platform, resolve_model
from repro.core.manager import HarpManager, ManagerConfig
from repro.sim import CfsScheduler, make_world
from state_sweep import DENSE_LEDGER, LEDGER, ledger_entry
from test_eventsim import _fingerprint
from test_tick_pattern import ENGINES, _assert_oracle

_ENTRIES = [json.loads(line) for line in LEDGER.read_text().splitlines()[:100]]
_DENSE_ENTRIES = [
    json.loads(line) for line in DENSE_LEDGER.read_text().splitlines()[:20]
]


@pytest.mark.parametrize("entry", _ENTRIES, ids=lambda e: f"seed{e['seed']}")
def test_ledger_sequence(entry: dict) -> None:
    assert ledger_entry(entry["seed"]) == entry


@pytest.mark.parametrize(
    "entry", _DENSE_ENTRIES, ids=lambda e: f"seed{e['seed']}"
)
def test_dense_ledger_sequence(entry: dict) -> None:
    assert ledger_entry(entry["seed"], dense=True) == entry


def _ep(total_work: float):
    model = replace(resolve_model("ep.C"))
    model.total_work = total_work
    return model


def _runnable_pids(world) -> set[int]:
    return {process.pid for process, _ in world.runnable_pairs()}


@pytest.mark.parametrize("engine", ENGINES)
def test_spawned_daemon_sleeps_until_charged(monkeypatch, engine: str) -> None:
    def scenario():
        world = make_world(
            make_platform("odroid"), CfsScheduler(), engine=engine, seed=3
        )
        manager = HarpManager(world, config=ManagerConfig())
        daemon = manager._rm_process
        asleep = [(daemon.demand, daemon.pid in _runnable_pids(world))]
        world.run_for(0.3)  # no session yet: every sample charges 0 s
        asleep.append((daemon.demand, daemon.pid in _runnable_pids(world)))
        world.spawn(_ep(1.0), nthreads=2, managed=True)  # registers
        charged = (daemon.demand, daemon.pid in _runnable_pids(world))
        world.run_for(0.5)
        manager.shutdown()
        return asleep, charged, _fingerprint(world, [])

    _assert_oracle(monkeypatch, scenario)
    asleep, (demand, runnable), _ = scenario()
    assert asleep == [(0.0, False), (0.0, False)]
    assert demand > 0.0 and runnable


@pytest.mark.parametrize("engine", ENGINES)
def test_set_nthreads_reaches_next_ticks_pairs(monkeypatch, engine: str) -> None:
    def scenario():
        world = make_world(
            make_platform("odroid"), CfsScheduler(), engine=engine, seed=3
        )
        process = world.spawn(_ep(1e3), nthreads=2)
        world.run_for(0.1)
        before = [thread.tid for _, thread in world.runnable_pairs()]
        process.set_nthreads(5)
        after = [thread.tid for _, thread in world.runnable_pairs()]
        world.run_for(world.tick_s)
        placed = sorted(world._placement_cache)
        world.run_for(0.1)
        return before, after, placed, _fingerprint(world, [])

    _assert_oracle(monkeypatch, scenario)
    before, after, placed, _ = scenario()
    assert len(before) == 2 and len(after) == 5
    assert placed == after
