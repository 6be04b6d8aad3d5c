"""The four canonical workloads, generated from (workload, seed).

Every workload has three phases that the harness times apart:
``setup(seed)`` generates the inputs and builds the simulated system
(trace generation, platform, world, manager, fleet), ``run(state)`` is
the timed simulation, and ``outcome(states)`` pools the modelled results
of the input's ``parts`` and runs the correctness checks.  ``run`` is a
generator that yields between chunks of one to two host seconds (a
trace, a round, a few fleet epochs); the harness times the host's speed
at each yield.  The program
only ever receives the generated inputs; nothing in it can tell which
workload it is serving.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from repro.analysis.scenarios import make_platform, resolve_model
from repro.core.manager import HarpManager, ManagerConfig
from repro.core.operating_point import MaturityStage
from repro.fleet import FleetSim, generate_fleet_apps
from repro.platform.dvfs import make_governor
from repro.scenario import PROFILES, TraceDriver, generator
from repro.sim.engine import World
from repro.sim.event import make_world
from repro.sim.schedulers.cfs import CfsScheduler
from repro.sim.schedulers.pinned import PinnedScheduler

from perfbench.stats import OpLedger, lifetime_summary

#: Tolerance of the energy identity.  The simulated package counter
#: carries 1% multiplicative noise per tick, so over hundreds of ticks it
#: agrees with the noise-free per-type books far more closely than this.
ENERGY_IDENTITY_RTOL = 0.01

@dataclass
class Outcome:
    """What one iteration produced, all of it deterministic for a seed."""

    modelled: dict
    #: Sample counts and workload context printed beside the metrics.
    extra: dict
    #: Counters read from the program's own books for the traced run.
    counters: dict
    ledger: OpLedger
    #: Failed correctness checks; the harness refuses to report numbers
    #: when this is not empty.
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def fingerprint(self) -> tuple:
        """Everything that must repeat exactly for the same seed."""
        return (self.modelled, self.extra, self.counters, self.ledger.as_dict())


def _check_energy_identity(out: Outcome, world: World, label: str) -> None:
    """Σ energy_by_type_j plus uncore power × time equals the package counter."""
    books = sum(world.energy_by_type_j.values())
    expected = books + world.platform.uncore_power_w * world.time_s
    counter = world.total_energy_j()
    out.check(
        abs(counter - expected) <= ENERGY_IDENTITY_RTOL * expected,
        f"{label}: package counter {counter:.3f} J != per-type books "
        f"+ uncore {expected:.3f} J",
    )


def _layer_counters(worlds, managers, coordinator=None) -> dict:
    stats = [m.allocator.stats for m in managers]
    hits = sum(s.cache_hits for s in stats)
    lookups = hits + sum(s.cache_misses for s in stats)
    return {
        "sim.ticks": sum(w.tick_index for w in worlds),
        "platform.energy_p_j": sum(w.energy_by_type_j.get("P", 0.0) for w in worlds),
        "platform.energy_e_j": sum(w.energy_by_type_j.get("E", 0.0) for w in worlds),
        "core.allocate.warm_starts": sum(s.warm_starts for s in stats),
        "core.allocate.delta_solves": sum(s.delta_solves for s in stats),
        "core.allocate.delta_fallbacks": sum(s.delta_fallbacks for s in stats),
        "core.allocate.subgradient_iters": sum(s.subgradient_iters for s in stats),
        "core.allocate.cache_hit_frac": hits / lookups if lookups else 0.0,
        "core.allocate.repair_give_ups": sum(s.repair_give_ups for s in stats),
        "core.epochs_coalesced": sum(m.epoch_coalesced_events for m in managers),
        "core.sessions_reaped": sum(m.sessions_reaped for m in managers),
        "core.solver_fallbacks": sum(m.solver_fallbacks for m in managers),
        "fleet.migrations": coordinator.migrations if coordinator else 0,
        "fleet.lost_directives": coordinator.lost_directives if coordinator else 0,
    }


# -- open loop: a session trace replayed on the event engine ------------------------


@dataclass
class _TraceState:
    world: World
    driver: TraceDriver
    trace: list


class OpenLoop:
    """Generated session traces replayed open loop on unmanaged worlds.

    Sessions arrive on the trace's schedule whatever the machine does;
    the ``max_live`` cap refuses arrivals beyond it.  Lifetimes are timed
    from each session's due arrival time, so a late admission counts.

    One seed's input is ``parts`` independent traces, each replayed on a
    world of its own, and the metrics pool them: one trace's host time
    and lifetimes swing by tens of percent from seed to seed, and the
    pool averages that down.
    """

    def __init__(
        self, profile: str, duration_s: float, parts: int = 1,
        engine: str = "event",
    ):
        spec = replace(PROFILES[profile], duration_s=duration_s)
        if spec.policy != "none" or spec.scheduler != "cfs":
            raise ValueError(f"{profile}: expected an unmanaged CFS profile")
        self.spec = spec
        self.parts = parts
        self.engine = engine

    def setup(self, seed: int) -> _TraceState:
        spec = self.spec
        trace = generator.generate_trace(spec, seed)
        world = make_world(
            make_platform(spec.platform), CfsScheduler(),
            engine=self.engine, seed=seed,
        )
        driver = TraceDriver(world, trace, managed=False, max_live=spec.max_live)
        return _TraceState(world, driver, trace)

    def run(self, state: _TraceState) -> Iterator[None]:
        state.world.run_for(self.spec.duration_s)
        yield

    def outcome(self, states: list[_TraceState]) -> Outcome:
        ledger = OpLedger()
        records = [r for s in states for r in s.driver.records]
        life = lifetime_summary(r["finish_s"] - r["arrival_s"] for r in records)
        out = Outcome(
            modelled={}, extra={}, ledger=ledger,
            counters=_layer_counters([s.world for s in states], []),
        )
        spawned = completed = live = 0
        for k, state in enumerate(states):
            world, driver = state.world, state.driver
            arrivals = sum(
                1 for plan in state.trace if plan.arrival_s <= world.time_s + 1e-9
            )
            ledger.offered += arrivals
            ledger.refused += driver.rejected
            ledger.lost += driver.spawned - driver.completed - driver.live_count()
            spawned += driver.spawned
            completed += driver.completed
            live += driver.live_count()
            out.check(
                driver.spawned + driver.rejected == arrivals,
                f"trace {k}: spawned {driver.spawned} + refused "
                f"{driver.rejected} != arrivals {arrivals}",
            )
            _check_energy_identity(out, world, f"trace {k}")
        out.check(
            ledger.lost == 0,
            f"spawned {spawned} != completed {completed} + live {live}",
        )
        out.modelled = {
            "sim_energy_j": sum(s.world.total_energy_j() for s in states),
            "sim_completed": completed,
            "sim_makespan_s": None,
            "sim_lifetime_p50_s": life["p50_s"],
            "sim_lifetime_p90_s": life["p90_s"],
            "sim_refused_frac": ledger.refused_frac,
            "attr_error_pct": None,
        }
        out.extra = {
            "traces": len(states),
            "lifetime_samples": life["samples"],
            "lifetime_tail_samples": life["tail_samples"],
            "arrivals": ledger.offered,
            "spawned": spawned,
            "live_at_end": live,
            "peak_live": max(s.driver.peak_live for s in states),
            "admit_lag_max_s": max(
                (r["start_s"] - r["arrival_s"] for r in records), default=0.0
            ),
        }
        return out


def engine_fingerprint(state: _TraceState) -> tuple:
    """Modelled state a tick-engine and an event-engine replay must share."""
    world, driver = state.world, state.driver
    return (
        world.tick_index,
        world.time_s,
        world.total_energy_j(),
        dict(world.energy_by_type_j),
        driver.spawned,
        driver.rejected,
        driver.completed,
        driver.peak_live,
        driver.records,
    )


# -- closed loop: the paper's multi-app scenario under HARP -------------------------


@dataclass
class _Round:
    phase: str
    start_s: float
    makespan_s: float
    energy_j: float
    energy_by_type_j: dict
    processes: list


@dataclass
class _NodeState:
    world: World
    manager: HarpManager
    #: Final RM-attributed energy per pid, captured before the manager
    #: drops the session on exit.
    attributed_j: dict = field(default_factory=dict)
    rounds: list = field(default_factory=list)
    stable_before_measure: bool = False

    def capture_attribution(self, process) -> None:
        session = self.manager.sessions.get(process.pid)
        if session is not None:
            self.attributed_j[process.pid] = session.attributed_energy_j


#: Simulated-time cap on harp-node's warm-up, as in ``run_scenario``.
WARMUP_MAX_S = 600.0


class HarpNode:
    """The Fig. 6 Intel multi-app scenario under HARP, closed loop.

    The HARP branch of ``run_scenario(policy="harp")``, unrolled so that
    construction is timed apart from the rounds and the manager's books
    stay readable: one world and manager across rounds, warm-up rounds
    until every operating-point table is STABLE, settle rounds, then the
    measured rounds.  Each round starts when the previous one ends.
    ``work_scale`` shrinks every app's total work, and with it each
    round; warm-up still lasts until exploration is done.
    """

    apps = ("ep.C", "mg.C", "ft.C", "cg.C")
    parts = 1

    def __init__(
        self,
        measured_rounds: int,
        settle_rounds: int = 2,
        work_scale: float = 1.0,
        warmup_max_rounds: int = 30,
    ):
        self.measured_rounds = measured_rounds
        self.settle_rounds = settle_rounds
        self.work_scale = work_scale
        self.warmup_max_rounds = warmup_max_rounds

    def _model(self, name: str):
        model = resolve_model(name)
        model.total_work *= self.work_scale
        return model

    def setup(self, seed: int) -> _NodeState:
        platform = make_platform("intel")
        world = World(
            platform, PinnedScheduler(),
            governor=make_governor("powersave", platform), seed=seed,
        )
        state = _NodeState(world, HarpManager(world, ManagerConfig(), seed=seed))
        # Ahead of the manager's own exit hook, which pops the session.
        world.on_process_exit.insert(0, state.capture_attribution)
        return state

    def _all_stable(self, manager: HarpManager) -> bool:
        return all(
            name in manager.table_store
            and manager.table_store[name].stage is MaturityStage.STABLE
            for name in self.apps
        )

    def _round(self, state: _NodeState, phase: str) -> None:
        world = state.world
        start_s = world.time_s
        start_j = world.total_energy_j()
        start_types = dict(world.energy_by_type_j)
        processes = [
            world.spawn(self._model(name), managed=True) for name in self.apps
        ]
        makespan = world.run_until_all_finished() - start_s
        state.rounds.append(
            _Round(
                phase, start_s, makespan, world.total_energy_j() - start_j,
                {k: v - start_types[k] for k, v in world.energy_by_type_j.items()},
                processes,
            )
        )

    def run(self, state: _NodeState) -> Iterator[None]:
        warmup = 0
        while not self._all_stable(state.manager):
            if (
                warmup >= self.warmup_max_rounds
                or state.world.time_s > WARMUP_MAX_S
            ):
                break
            self._round(state, "warmup")
            warmup += 1
            yield
        for _ in range(self.settle_rounds):
            self._round(state, "settle")
            yield
        state.stable_before_measure = self._all_stable(state.manager)
        for _ in range(self.measured_rounds):
            self._round(state, "measured")
            yield

    def outcome(self, states: list[_NodeState]) -> Outcome:
        (state,) = states
        world, manager = state.world, state.manager
        ledger = OpLedger()
        for rnd in state.rounds:
            for p in rnd.processes:
                ledger.offered += 1
                if not p.finished:
                    ledger.unfinished += 1
                elif p.crashed:
                    ledger.errored += 1
        ledger.reaped = manager.sessions_reaped
        measured = [r for r in state.rounds if r.phase == "measured"]
        n = len(measured)
        procs = [p for r in measured for p in r.processes]
        life = lifetime_summary(
            p.finish_time_s - r.start_s for r in measured for p in r.processes
        )
        true_j = sum(p.energy_true_j for p in procs)
        attributed_j = sum(state.attributed_j.get(p.pid, 0.0) for p in procs)
        counters = _layer_counters([world], [manager])
        for key, core_type in (("platform.energy_p_j", "P"), ("platform.energy_e_j", "E")):
            counters[key] = sum(r.energy_by_type_j[core_type] for r in measured) / n
        out = Outcome(
            modelled={
                "sim_energy_j": sum(r.energy_j for r in measured) / n,
                "sim_completed": sum(1 for p in procs if p.finished),
                "sim_makespan_s": sum(r.makespan_s for r in measured) / n,
                "sim_lifetime_p50_s": life["p50_s"],
                "sim_lifetime_p90_s": life["p90_s"],
                "sim_refused_frac": None,
                "attr_error_pct": 100.0 * abs(attributed_j - true_j) / true_j,
            },
            extra={
                "lifetime_samples": life["samples"],
                "lifetime_tail_samples": life["tail_samples"],
                "warmup_rounds": sum(r.phase == "warmup" for r in state.rounds),
                "settle_rounds": self.settle_rounds,
                "measured_rounds": n,
                "allocation_epochs": manager.allocation_epochs,
            },
            counters=counters,
            ledger=ledger,
        )
        out.check(ledger.failed == 0, f"apps failed: {ledger.as_dict()}")
        out.check(
            state.stable_before_measure,
            "operating-point tables not STABLE before the measured rounds: "
            + ", ".join(
                f"{name}={manager.table_store[name].stage.value}"
                for name in self.apps if name in manager.table_store
            ),
        )
        out.check(
            all(p.pid in state.attributed_j for p in procs),
            "an app's attributed energy was not captured at exit",
        )
        _check_energy_identity(out, world, "world")
        return out


# -- the fleet: a coordinator over 64 HARP nodes ------------------------------------


#: Fleet epochs per timed chunk of ``fleet-64``'s run.
FLEET_CHUNK_EPOCHS = 8


@dataclass
class _FleetState:
    sim: FleetSim
    apps: list


class Fleet:
    """A seeded app workload placed by the coordinator over N HARP nodes.

    Apps arrive uniformly over the first ``horizon_s`` fleet seconds and
    the fleet runs a fixed ``epochs`` fleet epochs, by which every app
    must have finished; lifetimes are timed from each app's arrival.  A
    fixed length, rather than running until the last app is done, keeps
    host time from following the one slowest app of each seed: every
    node's manager samples its world every 50 ms whether or not it hosts
    an app.
    """

    parts = 1

    def __init__(
        self, n_nodes: int, n_apps: int, horizon_s: float, work_scale: float,
        epochs: int,
    ):
        self.n_nodes = n_nodes
        self.n_apps = n_apps
        self.horizon_s = horizon_s
        self.work_scale = work_scale
        self.epochs = epochs

    def setup(self, seed: int) -> _FleetState:
        apps = generate_fleet_apps(
            seed, n_apps=self.n_apps, horizon_s=self.horizon_s,
            work_scale=self.work_scale,
        )
        sim = FleetSim(n_nodes=self.n_nodes, apps=apps, engine="event", seed=seed)
        return _FleetState(sim, apps)

    def run(self, state: _FleetState) -> Iterator[None]:
        for start in range(0, self.epochs, FLEET_CHUNK_EPOCHS):
            state.sim.run(min(FLEET_CHUNK_EPOCHS, self.epochs - start))
            yield

    def outcome(self, states: list[_FleetState]) -> Outcome:
        (state,) = states
        sim = state.sim
        nodes = [sim.nodes[i] for i in sorted(sim.nodes)]
        ledger = OpLedger()
        ledger.offered = len(state.apps)
        ledger.double_placed = sum(
            1 for held_by in sim.live_placements().values() if len(held_by) > 1
        )
        ledger.reaped = sum(node.manager.sessions_reaped for node in nodes)
        finish_s = {}
        for spec in state.apps:
            rec = sim.coordinator.apps.get(spec.app_id)
            if rec is None:
                ledger.lost += 1
                continue
            if rec.state != "finished":
                ledger.unfinished += 1
                continue
            node = sim.nodes.get(rec.node_id)
            app = node.apps.get(spec.app_id) if node is not None else None
            if app is None or app.process.finish_time_s is None:
                ledger.lost += 1
                continue
            finish_s[spec.app_id] = app.process.finish_time_s
        life = lifetime_summary(
            finish_s[s.app_id] - s.arrival_s for s in state.apps if s.app_id in finish_s
        )
        true_j = sum(sim.app_energy_true_j(s.app_id) for s in state.apps)
        attributed_j = sum(sim.app_attr_energy_j(s.app_id) for s in state.apps)
        out = Outcome(
            modelled={
                "sim_energy_j": sim.fleet_energy_j(),
                "sim_completed": len(finish_s),
                "sim_makespan_s": max(finish_s.values(), default=0.0),
                "sim_lifetime_p50_s": life["p50_s"],
                "sim_lifetime_p90_s": life["p90_s"],
                "sim_refused_frac": None,
                "attr_error_pct": 100.0 * abs(attributed_j - true_j) / true_j,
            },
            extra={
                "lifetime_samples": life["samples"],
                "lifetime_tail_samples": life["tail_samples"],
                "epochs": sim.epoch,
                "nodes": len(nodes),
            },
            counters=_layer_counters(
                [n.world for n in nodes], [n.manager for n in nodes],
                sim.coordinator,
            ),
            ledger=ledger,
        )
        out.check(ledger.failed == 0, f"apps failed: {ledger.as_dict()}")
        node_sum = sum(node.energy_j() for node in nodes)
        out.check(
            sim.fleet_energy_j() == node_sum,
            f"fleet energy {sim.fleet_energy_j()} J != Σ node energy {node_sum} J",
        )
        for node in nodes:
            _check_energy_identity(out, node.world, f"node {node.node_id}")
        return out


def run_through(workload, state) -> None:
    """Run a workload's simulation to its end without timing chunks."""
    for _ in workload.run(state):
        pass


#: Seed stride between the parts of one seed's input, so no two seeds
#: share a trace.
PART_STRIDE = 1000


def part_seeds(workload, seed: int) -> list[int]:
    """The seed of every independent part of one seed's input."""
    if workload.parts == 1:
        return [seed]
    return [seed * PART_STRIDE + k for k in range(workload.parts)]


#: The canonical workloads; README.md says why each was chosen.
WORKLOADS = {
    "steady-64": OpenLoop("steady-64", duration_s=90.0, parts=12),
    "bursty-1k": OpenLoop("bursty-1k", duration_s=1200.0),
    "harp-node": HarpNode(measured_rounds=1, settle_rounds=1, work_scale=0.5),
    "fleet-64": Fleet(n_nodes=64, n_apps=256, horizon_s=4.0, work_scale=0.02, epochs=56),
}
