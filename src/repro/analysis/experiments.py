"""Per-figure experiment harness (consumed by ``benchmarks/``).

One entry point per table/figure of the paper's evaluation:

========================  =============================================
Function                   Paper artifact
========================  =============================================
``fig1_config_space``      Fig. 1 — ep.C / mg.C configuration spaces
``fig5_regression``        Fig. 5 — regression-model comparison
``fig6_raptor_lake``       Fig. 6 — Intel improvement factors
``fig7_odroid``            Fig. 7 — Odroid improvement factors
``fig8_learning``          Fig. 8 — learning-phase snapshots
``governor_comparison``    §6.3.3 — powersave vs performance
``overhead_experiment``    §6.6 — HARP overhead with adaptation ignored
``energy_attribution``     §5.1 — attribution MAPE validation
========================  =============================================

Every function accepts scale parameters so quick CI-grade runs and full
paper-grade runs share one code path; results are plain dictionaries and
lists, ready for tabulation.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.metrics import geomean, mean_and_std
from repro.analysis.scenarios import (
    INTEL_MULTI_SCENARIOS,
    INTEL_SINGLE_APPS,
    ODROID_MULTI_SCENARIOS,
    ODROID_SINGLE_APPS,
    make_platform,
    resolve_model,
    run_scenario,
    _run_one_round,
)
from repro.core.energy import EnergyAttributor
from repro.core.manager import HarpManager, ManagerConfig
from repro.core.operating_point import OperatingPointTable
from repro.core.pareto import common_point_ratio, igd, pareto_front_indices
from repro.core.regression import make_model, mape
from repro.core.resource_vector import ErvLayout
from repro.dse.explorer import (
    enumerate_erv_grid,
    explore_application,
    measure_full_run,
)
from repro.libharp.adaptivity import AdaptationMode
from repro.platform.dvfs import make_governor
from repro.sim.engine import World
from repro.sim.schedulers.cfs import CfsScheduler
from repro.sim.schedulers.pinned import PinnedScheduler

# Offline DSE results are deterministic per (platform, app, grid); cache
# them for the lifetime of the process so benches can share them.
_OFFLINE_CACHE: dict[tuple, list[dict]] = {}


def _stable_seed(*parts: object) -> int:
    """Deterministic 32-bit RNG seed from a canonical key string.

    The builtin ``hash()`` is salted per process (``PYTHONHASHSEED``), so
    it must never feed an RNG: two workers replaying the same (app,
    model, size, seed) cell would draw different training subsets.
    """
    key = "|".join(str(p) for p in parts)
    return zlib.crc32(key.encode("utf-8"))


def offline_points_for(
    apps: list[str],
    platform: str = "intel",
    probe_s: float = 0.6,
    max_points: int | None = 120,
) -> dict[str, list[dict]]:
    """Offline DSE profiles (wire format) for the given applications."""
    plat = make_platform(platform)
    layout = ErvLayout(plat)
    grid = enumerate_erv_grid(layout, max_points=max_points)
    tables: dict[str, list[dict]] = {}
    for app in apps:
        key = (platform, app, probe_s, max_points)
        if key not in _OFFLINE_CACHE:
            result = explore_application(
                lambda app=app: resolve_model(app),
                plat,
                grid=grid,
                probe_s=probe_s,
            )
            _OFFLINE_CACHE[key] = [
                p.to_wire() for p in result.to_table_points()
            ]
        tables[app] = _OFFLINE_CACHE[key]
    return tables


# -- Fig. 1: configuration spaces -----------------------------------------------------


def fig1_config_space(
    apps: tuple[str, ...] = ("ep.C", "mg.C"),
    e_step: int = 2,
    ht_step: int = 2,
) -> dict[str, list[dict]]:
    """Execution time / energy over (E-cores × P-hyperthreads) configs.

    Returns, per application, rows with ``e_cores``, ``p_hyperthreads``,
    ``time_s``, ``energy_j`` and a ``pareto`` flag from the paper's
    four-objective filter (time, energy, P-cores, E-cores, all minimized).
    """
    plat = make_platform("intel")
    layout = ErvLayout(plat)
    n_e = plat.count_of_type("E")
    n_p_ht = plat.count_of_type("P") * 2
    results: dict[str, list[dict]] = {}
    for app in apps:
        rows: list[dict] = []
        for e_cores in range(0, n_e + 1, e_step):
            for p_ht in range(0, n_p_ht + 1, ht_step):
                if e_cores == 0 and p_ht == 0:
                    continue
                erv = layout.make(P2=p_ht // 2, P1=p_ht % 2, E=e_cores)
                mp = measure_full_run(
                    lambda app=app: resolve_model(app), plat, erv
                )
                rows.append(
                    {
                        "e_cores": e_cores,
                        "p_hyperthreads": p_ht,
                        "time_s": mp.exec_time_s,
                        "energy_j": mp.energy_j,
                        "p_cores": math.ceil(p_ht / 2),
                    }
                )
        objectives = np.array(
            [
                [r["time_s"], r["energy_j"], r["p_cores"], r["e_cores"]]
                for r in rows
            ]
        )
        front = set(pareto_front_indices(objectives))
        for i, row in enumerate(rows):
            row["pareto"] = i in front
        results[app] = rows
    return results


# -- Fig. 5: regression models ----------------------------------------------------------


FIG5_APPS: list[str] = [
    "bt.C", "cg.C", "ep.C", "ft.C", "is.C", "lu.C", "mg.C", "sp.C", "ua.C",
    "binpack", "fractal", "parallel-preorder", "pi", "primes", "seismic",
]

FIG5_MODELS = ("poly1", "poly2", "poly3", "nn", "svm")


def fig5_regression(
    apps: list[str] | None = None,
    models: tuple[str, ...] = FIG5_MODELS,
    train_sizes: tuple[int, ...] = (5, 10, 15, 20, 30, 40, 60),
    n_seeds: int = 10,
    grid_points: int = 120,
    probe_s: float = 0.5,
) -> list[dict]:
    """Model-accuracy comparison over pre-measured application data.

    Returns rows keyed by (model, train_size) with mean MAPE for IPS and
    power, mean IGD, and the mean common-Pareto-point ratio, averaged over
    applications and random training subsets (10 seeds in the paper).
    """
    apps = list(apps) if apps is not None else list(FIG5_APPS)
    plat = make_platform("intel")
    layout = ErvLayout(plat)
    grid = enumerate_erv_grid(layout, max_points=grid_points)

    datasets = {}
    for app in apps:
        result = explore_application(
            lambda app=app: resolve_model(app), plat, grid=grid, probe_s=probe_s
        )
        x = np.array([mp.erv.as_array() for mp in result.points])
        y_u = np.array([mp.utility for mp in result.points])
        y_p = np.array([mp.power_w for mp in result.points])
        ref_objectives = np.column_stack([-y_u, y_p, x.sum(axis=1, keepdims=True)])
        ref_front = pareto_front_indices(ref_objectives)
        datasets[app] = (x, y_u, y_p, ref_objectives, ref_front)

    rows = []
    for model_name in models:
        for size in train_sizes:
            metrics = {"mape_ips": [], "mape_power": [], "igd": [], "common": []}
            for app in apps:
                x, y_u, y_p, ref_obj, ref_front = datasets[app]
                if size >= len(x):
                    continue
                for seed in range(n_seeds):
                    rng = np.random.default_rng(_stable_seed(app, model_name, size, seed))
                    idx = rng.choice(len(x), size=size, replace=False)
                    try:
                        mu = make_model(model_name, seed=seed).fit(x[idx], y_u[idx])
                        mp_ = make_model(model_name, seed=seed).fit(x[idx], y_p[idx])
                    except np.linalg.LinAlgError:
                        continue
                    pred_u = mu.predict(x)
                    pred_p = mp_.predict(x)
                    metrics["mape_ips"].append(mape(y_u, pred_u))
                    metrics["mape_power"].append(mape(y_p, pred_p))
                    pred_obj = np.column_stack(
                        [-pred_u, pred_p, x.sum(axis=1, keepdims=True)]
                    )
                    pred_front = pareto_front_indices(pred_obj)
                    metrics["igd"].append(
                        igd(ref_obj[ref_front], pred_obj[pred_front])
                    )
                    metrics["common"].append(
                        common_point_ratio(ref_front, pred_front)
                    )
            if not metrics["mape_ips"]:
                continue
            rows.append(
                {
                    "model": model_name,
                    "train_size": size,
                    "mape_ips": float(np.mean(metrics["mape_ips"])),
                    "mape_power": float(np.mean(metrics["mape_power"])),
                    "igd": float(np.mean(metrics["igd"])),
                    "common_ratio": float(np.mean(metrics["common"])),
                }
            )
    return rows


# -- Fig. 6 / Fig. 7: improvement factors -------------------------------------------------


@dataclass
class PolicyComparison:
    """Improvement factors of several policies over a baseline."""

    baseline: str
    rows: list[dict] = field(default_factory=list)

    def geomeans(self, kind: str | None = None) -> dict[tuple[str, str], dict]:
        """Geometric means per (policy, kind): time and energy factors."""
        out: dict[tuple[str, str], dict] = {}
        groups: dict[tuple[str, str], list[dict]] = {}
        for row in self.rows:
            if kind is not None and row["kind"] != kind:
                continue
            groups.setdefault((row["policy"], row["kind"]), []).append(row)
        for key, rows in groups.items():
            out[key] = {
                "time_factor": geomean([r["time_factor"] for r in rows]),
                "energy_factor": geomean([r["energy_factor"] for r in rows]),
                "n": len(rows),
            }
        return out


def _compare_policies(
    scenarios: list[list[str]],
    kind: str,
    platform: str,
    baseline: str,
    policies: tuple[str, ...],
    rounds: int,
    seed: int,
    offline_apps: set[str],
    manager_config_factory=None,
    governor: str | None = None,
    dse_points: int = 120,
    dse_probe_s: float = 0.6,
) -> list[dict]:
    rows = []
    offline_tables = None
    if any(p in ("harp-offline",) for p in policies) and offline_apps:
        offline_tables = offline_points_for(
            sorted(offline_apps), platform=platform,
            probe_s=dse_probe_s, max_points=dse_points,
        )
    for apps in scenarios:
        base = run_scenario(
            apps, platform=platform, policy=baseline, rounds=rounds,
            seed=seed, governor=governor,
        )
        for policy in policies:
            config = manager_config_factory() if manager_config_factory else None
            result = run_scenario(
                apps,
                platform=platform,
                policy=policy,
                rounds=rounds,
                seed=seed,
                governor=governor,
                offline_tables=offline_tables,
                manager_config=config,
            )
            rows.append(
                {
                    "scenario": "+".join(apps),
                    "kind": kind,
                    "policy": policy,
                    "baseline_makespan_s": base.makespan_s,
                    "baseline_energy_j": base.energy_j,
                    "makespan_s": result.makespan_s,
                    "energy_j": result.energy_j,
                    "time_factor": base.makespan_s / result.makespan_s,
                    "energy_factor": base.energy_j / result.energy_j,
                    "warmup_rounds": result.warmup_rounds,
                }
            )
    return rows


def fig6_raptor_lake(
    single_apps: list[str] | None = None,
    multi_scenarios: list[list[str]] | None = None,
    policies: tuple[str, ...] = ("itd", "harp", "harp-offline", "harp-noscaling"),
    rounds: int = 2,
    seed: int = 0,
    dse_points: int = 120,
    dse_probe_s: float = 0.6,
) -> PolicyComparison:
    """Fig. 6: improvement factors over CFS on the Intel Raptor Lake."""
    singles = single_apps if single_apps is not None else INTEL_SINGLE_APPS
    multis = multi_scenarios if multi_scenarios is not None else INTEL_MULTI_SCENARIOS
    offline_apps = set(singles) | {a for sc in multis for a in sc}
    comparison = PolicyComparison(baseline="cfs")
    comparison.rows += _compare_policies(
        [[a] for a in singles], "single", "intel", "cfs", policies,
        rounds, seed, offline_apps,
        dse_points=dse_points, dse_probe_s=dse_probe_s,
    )
    comparison.rows += _compare_policies(
        multis, "multi", "intel", "cfs", policies, rounds, seed, offline_apps,
        dse_points=dse_points, dse_probe_s=dse_probe_s,
    )
    return comparison


def fig7_odroid(
    single_apps: list[str] | None = None,
    multi_scenarios: list[list[str]] | None = None,
    rounds: int = 2,
    seed: int = 0,
    dse_points: int = 120,
    dse_probe_s: float = 0.6,
) -> PolicyComparison:
    """Fig. 7: HARP (Offline) vs the Energy-Aware Scheduler on the Odroid.

    As in the paper, only the offline variant runs on this platform (its
    PMU cannot monitor both clusters simultaneously).
    """
    singles = single_apps if single_apps is not None else ODROID_SINGLE_APPS
    multis = multi_scenarios if multi_scenarios is not None else ODROID_MULTI_SCENARIOS
    offline_apps = set(singles) | {a for sc in multis for a in sc}
    comparison = PolicyComparison(baseline="eas")
    comparison.rows += _compare_policies(
        [[a] for a in singles], "single", "odroid", "eas", ("harp-offline",),
        rounds, seed, offline_apps,
        dse_points=dse_points, dse_probe_s=dse_probe_s,
    )
    comparison.rows += _compare_policies(
        multis, "multi", "odroid", "eas", ("harp-offline",), rounds, seed,
        offline_apps,
        dse_points=dse_points, dse_probe_s=dse_probe_s,
    )
    return comparison


# -- Fig. 8: learning behaviour --------------------------------------------------------


def fig8_learning(
    scenarios: list[list[str]] | None = None,
    snapshot_interval_s: float = 5.0,
    max_learning_s: float = 120.0,
    rounds: int = 1,
    seed: int = 0,
) -> dict:
    """Learning-phase analysis: snapshot tables every 5 s, evaluate each.

    For every snapshot the scenario is re-run with HARP driven purely by
    the snapshot's operating points (no further exploration) and compared
    against CFS, yielding the improvement-factor trajectory of Fig. 8;
    time-to-stable statistics reproduce the §6.5 numbers.
    """
    if scenarios is None:
        scenarios = [["ep.C"], ["mg.C"], ["is.C"], ["ep.C", "mg.C"],
                     ["ep.C", "mg.C", "ft.C", "cg.C"]]
    results = {"scenarios": [], "stable_times": {"single": [], "multi": []}}
    for apps in scenarios:
        kind = "single" if len(apps) == 1 else "multi"
        plat = make_platform("intel")
        world = World(
            plat,
            PinnedScheduler(),
            governor=make_governor("powersave", plat),
            seed=seed,
        )
        manager = HarpManager(world, ManagerConfig())
        snapshots: list[dict] = []
        snap_ticks = world.ticks_in(snapshot_interval_s)
        next_snap = [snap_ticks]

        def snapshotter(w, manager=manager, snapshots=snapshots, next_snap=next_snap):
            if w.tick_index >= next_snap[0]:
                next_snap[0] += snap_ticks
                w.request_wakeup(next_snap[0])
                tables = {
                    name: [p.to_wire() for p in table.measured_points()]
                    for name, table in manager.table_store.items()
                }
                snapshots.append(
                    {
                        "t_s": w.time_s,
                        "tables": tables,
                        "all_stable": bool(manager.table_store)
                        and all(
                            t.stage.value == "stable"
                            for t in manager.table_store.values()
                        ),
                    }
                )

        world.on_event.insert(0, snapshotter)  # before the manager acts
        world.request_wakeup(next_snap[0])
        max_ticks = world.ticks_in(max_learning_s)
        while world.tick_index < max_ticks:
            models = [resolve_model(a) for a in apps]
            _run_one_round(world, models, managed=True)
            if all(
                name in manager.table_store
                and manager.table_store[name].stage.value == "stable"
                for name in apps
            ) and world.tick_index >= next_snap[0] - snap_ticks:
                break

        base = run_scenario(apps, policy="cfs", rounds=rounds, seed=seed)
        trajectory = []
        for snap in snapshots:
            usable = {
                name: pts for name, pts in snap["tables"].items() if len(pts) >= 2
            }
            if set(apps) - set(usable):
                continue
            result = run_scenario(
                apps,
                policy="harp-offline",
                rounds=rounds,
                seed=seed,
                offline_tables=usable,
            )
            trajectory.append(
                {
                    "t_s": snap["t_s"],
                    "stable": snap["all_stable"],
                    "time_factor": base.makespan_s / result.makespan_s,
                    "energy_factor": base.energy_j / result.energy_j,
                }
            )
        stable_times = dict(manager.stable_at_s)
        if stable_times and len(stable_times) == len(set(apps)):
            results["stable_times"][kind].append(max(stable_times.values()))
        results["scenarios"].append(
            {
                "scenario": "+".join(apps),
                "kind": kind,
                "trajectory": trajectory,
                "stable_at_s": stable_times,
            }
        )
    summary = {}
    for kind, values in results["stable_times"].items():
        if values:
            mean, std = mean_and_std(values)
            summary[kind] = {"mean_s": mean, "std_s": std, "n": len(values)}
    results["summary"] = summary
    return results


# -- §6.3.3: governor influence ---------------------------------------------------------


def governor_comparison(
    scenarios: list[list[str]] | None = None,
    policies: tuple[str, ...] = ("harp", "harp-offline"),
    rounds: int = 2,
    seed: int = 0,
) -> dict[str, PolicyComparison]:
    """HARP improvement factors under powersave vs performance governors."""
    if scenarios is None:
        scenarios = [["ep.C"], ["mg.C"], ["ft.C"], ["ep.C", "mg.C"],
                     ["bt.C", "cg.C"]]
    offline_apps = {a for sc in scenarios for a in sc}
    out = {}
    for governor in ("powersave", "performance"):
        comparison = PolicyComparison(baseline="cfs")
        comparison.rows = _compare_policies(
            scenarios, "all", "intel", "cfs", policies, rounds, seed,
            offline_apps, governor=governor,
        )
        out[governor] = comparison
    return out


# -- §6.6: overhead -----------------------------------------------------------------------


def overhead_experiment(
    scenarios: list[list[str]] | None = None,
    rounds: int = 3,
    seed: int = 0,
) -> list[dict]:
    """HARP's management overhead with activation messages ignored.

    Runs every scenario twice: plain CFS without a manager, and with the
    full HARP stack (monitoring, exploration, communication, utility
    polls) whose activations libharp drops — applications stay unadapted
    and CFS-scheduled, so any makespan delta is pure overhead.
    """
    if scenarios is None:
        scenarios = [["ep.C"], ["mg.C"], ["ft.C"],
                     ["ep.C", "mg.C"], ["ft.C", "cg.C", "is.C"],
                     ["bt.C", "is.C", "lu.C", "sp.C", "ua.C"]]
    rows = []
    for apps in scenarios:
        base = run_scenario(apps, policy="cfs", rounds=rounds, seed=seed)

        def config() -> ManagerConfig:
            return ManagerConfig(adaptation=AdaptationMode.IGNORE)

        managed = run_scenario(
            apps,
            policy="harp",
            rounds=rounds,
            seed=seed,
            warmup_max_rounds=0,
            manager_config=config(),
        )
        rows.append(
            {
                "scenario": "+".join(apps),
                "kind": "single" if len(apps) == 1 else "multi",
                "cfs_makespan_s": base.makespan_s,
                "harp_makespan_s": managed.makespan_s,
                "overhead_pct": 100.0 * (managed.makespan_s / base.makespan_s - 1.0),
            }
        )
    return rows


# -- §5.1: energy-attribution validation ------------------------------------------------


def energy_attribution(
    scenarios: list[list[str]] | None = None,
    seed: int = 0,
    interval_s: float = 0.1,
) -> dict:
    """Validate EnergAt-style attribution against ground-truth energy.

    Runs multi-application scenarios under CFS while the attributor splits
    the (noisy) package energy between applications per Eq. 3; the engine's
    exact dynamic-energy bookkeeping provides the reference.  Reports the
    overall MAPE (paper: 8.76 %).
    """
    if scenarios is None:
        scenarios = [["ep.C", "mg.C"], ["ft.C", "cg.C"], ["is.C", "lu.C"],
                     ["ep.C", "ft.C", "sp.C"]]
    errors = []
    rows = []
    for apps in scenarios:
        plat = make_platform("intel")
        world = World(
            plat, CfsScheduler(),
            governor=make_governor("powersave", plat), seed=seed,
        )
        attributor = EnergyAttributor(plat)
        processes = [world.spawn(resolve_model(a)) for a in apps]
        attributed = {p.pid: 0.0 for p in processes}
        last_energy = world.total_energy_j()
        last_busy = dict(world.busy_time_by_type_s)
        last_cpu = {p.pid: dict(p.cpu_time_by_type) for p in processes}
        interval_ticks = world.ticks_in(interval_s)
        next_tick = interval_ticks
        while world.running_processes():
            world.step()
            if world.tick_index < next_tick:
                continue
            next_tick += interval_ticks
            energy = world.total_energy_j()
            busy = dict(world.busy_time_by_type_s)
            cpu_delta = {}
            for p in processes:
                cur = dict(p.cpu_time_by_type)
                cpu_delta[p.pid] = {
                    k: cur.get(k, 0.0) - last_cpu[p.pid].get(k, 0.0)
                    for k in set(cur) | set(last_cpu[p.pid])
                }
                last_cpu[p.pid] = cur
            samples = attributor.attribute(
                energy - last_energy,
                interval_s,
                {k: busy[k] - last_busy.get(k, 0.0) for k in busy},
                cpu_delta,
            )
            for pid, sample in samples.items():
                attributed[pid] += sample.energy_j
            last_energy = energy
            last_busy = busy
        for p in processes:
            true = p.energy_true_j
            est = attributed[p.pid]
            if true > 0:
                err = abs(est - true) / true * 100.0
                errors.append(err)
                rows.append(
                    {
                        "scenario": "+".join(apps),
                        "app": p.model.name,
                        "true_j": true,
                        "attributed_j": est,
                        "ape_pct": err,
                    }
                )
    return {"rows": rows, "mape_pct": float(np.mean(errors)) if errors else None}
