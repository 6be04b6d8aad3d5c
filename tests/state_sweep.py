"""State-change parity sweep: seeded action sequences, replayed three ways.

One seed draws a world — platform, scheduler, governor (bare or wrapped
in ``CappedGovernor``), and with some probability a HARP manager with
its RM daemon — and then a sequence of the state changes the engine's
memories must see: spawn (plain, KPN, phased, managed), kill (silent or
not), a demand write, ``set_nthreads``, a knob write, ``set_affinity``,
a frequency cap set or cleared, and runs of n ticks.

:func:`replay` runs a sequence on the tick engine with every memory
forced off (the oracle: ``test_tick_pattern._run(..., cache=False)``,
whose runnable pairs come from a poll of every live process), on the
tick engine, and on the event engine.  The fingerprints, the published
demands and the manager's epoch decisions must be equal with
``==``.  At every boundary, and after every action, each replay also
checks the published state against its sources: the runnable pairs
equal a poll of the live processes' demands, and each live RM daemon's
demand equals the one its backlog gives.

A second, dense profile (:class:`_DenseSequence`, ``--dense``) starts
from 20-40 processes sharing hardware threads, so completions land in
the middle of the pid order and demand writes take SMT siblings busy
and idle: the cases the engine's incremental tick assembly must see.

Run as a script, the sweep replays the committed ledger of sequences
(``tests/fixtures/state_sweep_ledger.jsonl``, or with ``--dense``
``tests/fixtures/state_sweep_dense_ledger.jsonl``) and checks each
replay's digest against it; it exits 1 on any mismatch::

    PYTHONPATH=src python tests/state_sweep.py [--dense] [--first N]
    PYTHONPATH=src python tests/state_sweep.py --write 1000
    PYTHONPATH=src python tests/state_sweep.py --dense --write 50

``--write N`` replays seeds ``0 .. N-1`` and rewrites the ledger; a
change that is meant to alter simulated behaviour rewrites it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.scenarios import make_platform, resolve_model
from repro.apps.kpn import REPLICAS_KNOB, KpnApplicationModel
from repro.core.manager import (
    HarpManager, ManagerConfig, RmDaemonModel,
)
from repro.ext.dvfs import CappedGovernor
from repro.ext.phases import Phase, PhasedApplicationModel
from repro.platform.dvfs import make_governor
from repro.sim import (
    CfsScheduler, EasScheduler, ItdScheduler, PinnedScheduler, World,
    make_world,
)
from test_eventsim import _fingerprint
from test_tick_pattern import _polled_pairs, _run

FIXTURES = Path(__file__).resolve().parent / "fixtures"
LEDGER = FIXTURES / "state_sweep_ledger.jsonl"
DENSE_LEDGER = FIXTURES / "state_sweep_dense_ledger.jsonl"

#: Odroid (8 hardware threads) oversubscribes with a few processes, so
#: it is drawn twice as often as the 32-thread Intel part.
_PLATFORMS = ("odroid", "odroid", "intel")
_SCHEDULERS = (CfsScheduler, EasScheduler, ItdScheduler, PinnedScheduler)
_GOVERNORS = ("performance", "schedutil", "powersave")
_APPS = ("ep.C", "is.C", "cg.C", "mg.C")
_KPN_APPS = ("lms", "mandelbrot")
_DEMANDS = (0.0, 0.3, 0.5, 1.0)
_CAPS = (0.5, 0.75, 1.0)


class _Sequence:
    """One seed's world and the actions drawn on it."""

    def __init__(self, seed: int, engine: str) -> None:
        rng = self.rng = np.random.default_rng(seed)
        platform = make_platform(_PLATFORMS[rng.integers(len(_PLATFORMS))])
        governor = make_governor(
            _GOVERNORS[rng.integers(len(_GOVERNORS))], platform
        )
        if rng.random() < 0.5:
            governor = CappedGovernor(governor)
        scheduler = _SCHEDULERS[rng.integers(len(_SCHEDULERS))]()
        world = self.world = make_world(
            platform, scheduler, engine=engine, governor=governor, seed=seed
        )
        self.exit_order: list[int] = []
        world.on_process_exit.append(lambda p: self.exit_order.append(p.pid))
        self.manager = None
        self.decisions: list[tuple] = []
        if rng.random() < 0.4:
            window = (0.0, 0.02)[rng.integers(2)]
            manager = self.manager = HarpManager(
                world, config=ManagerConfig(epoch_window_s=window)
            )
            solve = manager.reallocate

            def recorded():
                decision = solve()
                if decision is not None:
                    self.decisions.append((world.tick_index, decision))
                return decision

            manager.reallocate = recorded
        world.on_event.append(check_published)

    # -- drawing -----------------------------------------------------------------

    def _pick(self, processes: list):
        return processes[self.rng.integers(len(processes))] if processes else None

    def _workers(self) -> list:
        return [p for p in self.world.running_processes() if not p.daemon]

    def _affinity(self) -> frozenset[int] | None:
        if self.rng.random() < 0.5:
            return None
        ids = self.world._hw_ids
        k = int(self.rng.integers(1, len(ids) + 1))
        return frozenset(int(i) for i in self.rng.choice(ids, k, replace=False))

    def _managed(self) -> bool:
        return self.manager is not None and self.rng.random() < 0.6

    # -- the actions ---------------------------------------------------------------

    #: Bounds of a plain spawn's drawn work.
    WORK = (0.2, 2.0)

    def spawn_plain(self) -> None:
        model = replace(resolve_model(self._pick(_APPS)))
        model.total_work = float(self.rng.uniform(*self.WORK))
        nthreads = int(self.rng.integers(1, 5))
        affinity = self._affinity() if self.rng.random() < 0.3 else None
        self.world.spawn(
            model, nthreads=nthreads, affinity=affinity, managed=self._managed()
        )

    def spawn_kpn(self) -> None:
        model = replace(resolve_model(self._pick(_KPN_APPS)))
        model.total_work = float(self.rng.uniform(0.2, 2.0))
        self.world.spawn(model, managed=self._managed())

    def spawn_phased(self) -> None:
        base = resolve_model(self._pick(_APPS))
        model = PhasedApplicationModel(
            name="phased",
            total_work=float(self.rng.uniform(0.3, 2.0)),
            serial_fraction=base.serial_fraction,
            ips_per_work=base.ips_per_work,
            phases=[
                Phase(0.3, power_intensity=0.7, ips_per_work=8e8),
                Phase(0.7, power_intensity=1.4, ips_per_work=1.2e9),
            ],
        )
        self.world.spawn(model, nthreads=int(self.rng.integers(1, 4)))

    def kill(self) -> None:
        victim = self._pick(self.world.running_processes())
        if victim is not None:
            self.world.kill(victim.pid, silent=bool(self.rng.random() < 0.5))

    def write_demand(self) -> None:
        # Mostly a live worker; now and then a finished or killed one,
        # which must stay out of the runnable set.
        if self.rng.random() < 0.15:
            pool = [
                p for p in self.world.processes.values()
                if p.finished and not p.daemon
            ]
        else:
            pool = self._workers()
        process = self._pick(pool)
        if process is not None:
            self.world.set_demand(process, self._pick(_DEMANDS))

    def set_nthreads(self) -> None:
        process = self._pick(self._workers())
        if process is not None:
            process.set_nthreads(int(self.rng.integers(1, 6)))

    def write_knob(self) -> None:
        kpn = [
            p for p in self._workers()
            if isinstance(p.model, KpnApplicationModel)
        ]
        process = self._pick(kpn)
        if process is not None:
            knob = process.model.replicas_knob_for(int(self.rng.integers(3, 9)))
            process.knobs[REPLICAS_KNOB] = knob[REPLICAS_KNOB]

    def set_affinity(self) -> None:
        process = self._pick(self._workers())
        if process is not None:
            process.set_affinity(self._affinity())

    def cap(self) -> None:
        governor = self.world.governor
        if not isinstance(governor, CappedGovernor):
            return
        if self.rng.random() < 0.3:
            governor.clear_caps()
        else:
            core = self._pick(self.world.platform.cores)
            governor.set_cap(core.core_id, self._pick(_CAPS))

    def run_ticks(self) -> None:
        world = self.world
        world.run_for(int(self.rng.integers(1, 41)) * world.tick_s)

    ACTIONS = (
        (run_ticks, 0.28), (spawn_plain, 0.15), (spawn_kpn, 0.05),
        (spawn_phased, 0.05), (kill, 0.06), (write_demand, 0.17),
        (set_nthreads, 0.08), (write_knob, 0.05), (set_affinity, 0.05),
        (cap, 0.06),
    )

    def run(self) -> dict:
        """Draw and apply the actions; then the comparable outcome."""
        actions = [action for action, _ in self.ACTIONS]
        weights = np.array([weight for _, weight in self.ACTIONS])
        weights /= weights.sum()
        for _ in range(int(self.rng.integers(10, 21))):
            actions[self.rng.choice(len(actions), p=weights)](self)
            check_published(self.world)
        self.run_ticks()
        world, manager = self.world, self.manager
        return {
            "world": _fingerprint(world, self.exit_order),
            "demands": sorted(
                (p.pid, p.demand, p.nthreads) for p in world.processes.values()
            ),
            "decisions": self.decisions,
            "manager": None if manager is None else (
                manager.allocation_epochs, manager.sessions_reaped,
            ),
        }


class _DenseSequence(_Sequence):
    """A dense world: 20-40 processes of 1-4 threads sharing hardware
    threads from the start, no manager, and actions weighted toward what
    the incremental assembly must see — completions anywhere in the pid
    order (drawn work sizes), kills, and demand writes that take SMT
    siblings and queue mates busy and idle."""

    def __init__(self, seed: int, engine: str) -> None:
        rng = self.rng = np.random.default_rng(seed)
        platform = make_platform(_PLATFORMS[rng.integers(len(_PLATFORMS))])
        governor = CappedGovernor(make_governor(
            _GOVERNORS[rng.integers(len(_GOVERNORS))], platform
        ))
        scheduler = (CfsScheduler, ItdScheduler, PinnedScheduler)[
            rng.integers(3)
        ]()
        world = self.world = make_world(
            platform, scheduler, engine=engine, governor=governor, seed=seed
        )
        self.exit_order: list[int] = []
        world.on_process_exit.append(lambda p: self.exit_order.append(p.pid))
        self.manager = None
        self.decisions: list[tuple] = []
        world.on_event.append(check_published)
        for _ in range(int(rng.integers(20, 41))):
            self.spawn_plain()

    WORK = (0.005, 0.15)
    ACTIONS = (
        (_Sequence.run_ticks, 0.3), (_Sequence.write_demand, 0.3),
        (_Sequence.kill, 0.1), (_Sequence.spawn_plain, 0.1),
        (_Sequence.set_nthreads, 0.1), (_Sequence.set_affinity, 0.05),
        (_Sequence.cap, 0.05),
    )


def check_published(world: World) -> None:
    """The published state equals what its sources give, from scratch."""
    if world.runnable_pairs() != _polled_pairs(world):
        raise AssertionError(
            f"tick {world.tick_index}: runnable pairs differ from a poll"
        )
    for process in world.running_processes():
        model = process.model
        if isinstance(model, RmDaemonModel) and process.demand != model._demand():
            raise AssertionError(
                f"tick {world.tick_index}: RM daemon demand {process.demand}"
                f" != its backlog's {model._demand()}"
            )


def run_sequence(seed: int, engine: str, dense: bool = False) -> dict:
    """Replay sequence ``seed`` (of the dense profile if ``dense``) on
    ``engine``; its comparable outcome."""
    return (_DenseSequence if dense else _Sequence)(seed, engine).run()


def replay(seed: int, dense: bool = False) -> tuple[dict, dict, dict]:
    """``(oracle, tick, event)`` outcomes of sequence ``seed``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        oracle, _ = _run(
            monkeypatch, lambda: run_sequence(seed, "tick", dense), cache=False
        )
    return (
        oracle, run_sequence(seed, "tick", dense),
        run_sequence(seed, "event", dense),
    )


def digest(outcome: dict) -> str:
    """A stable digest of one outcome (every value has an exact repr)."""
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:16]


def ledger_entry(seed: int, dense: bool = False) -> dict:
    """Replay ``seed`` three ways; its ledger line (raises on mismatch)."""
    oracle, tick, event = replay(seed, dense)
    differ = [
        f"{name}:{key}"
        for name, other in (("tick", tick), ("event", event))
        for key in oracle
        if other[key] != oracle[key]
    ]
    if differ:
        raise AssertionError(f"seed {seed}: replays differ in {differ}")
    world = oracle["world"]
    return {
        "seed": seed,
        "ticks": world["tick_index"],
        "processes": len(world["finish"]),
        "epochs": len(oracle["decisions"]),
        "digest": digest(oracle),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--first", type=int, default=None,
        help="replay only the ledger's first N sequences",
    )
    parser.add_argument(
        "--write", type=int, default=None, metavar="N",
        help="replay seeds 0..N-1 and rewrite the ledger",
    )
    parser.add_argument(
        "--dense", action="store_true",
        help="the dense profile and its ledger",
    )
    args = parser.parse_args(argv)
    ledger = DENSE_LEDGER if args.dense else LEDGER
    if args.write is not None:
        lines = [
            json.dumps(ledger_entry(seed, args.dense))
            for seed in range(args.write)
        ]
        ledger.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} sequences to {ledger}")
        return 0
    entries = [json.loads(line) for line in ledger.read_text().splitlines()]
    entries = entries[:args.first]
    failures = 0
    for entry in entries:
        try:
            got = ledger_entry(entry["seed"], args.dense)
        except AssertionError as exc:
            got = {"error": str(exc)}
        if got != entry:
            failures += 1
            print(f"MISMATCH seed {entry['seed']}: ledger {entry}, now {got}")
    print(f"{len(entries) - failures}/{len(entries)} sequences match the ledger")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
