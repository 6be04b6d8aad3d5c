"""Control-plane scaling benchmark: warm-started solving and IPC push fan-out.

Sweeps the application count across n_apps ∈ {8, 32, 128, 512} on
synthetically scaled platforms (capacity grows with the fleet, matching
the ROADMAP's hundreds-of-sessions target) and measures the two epoch
regimes of the solver under single-app churn:

* **cold** — every epoch is a from-scratch subgradient solve with no
  cross-epoch state at all (``reset_warm_state()`` and ``clear_caches()``
  before each epoch — the seed behavior, where nothing survived between
  ``allocate()`` calls);
* **warm** — multipliers persist across epochs, the warm schedule runs
  fewer iterations with a stability early-exit.

Plus IPC push throughput of the socket server's event loop at 128
connected clients with live background request traffic: one ``push()``
per message vs one ``push_batch()`` per client per epoch.

Writes ``BENCH_scale.json`` at the repo root (the scaling trajectory
artifact) and prints a summary.  ``--smoke`` (or ``HARP_BENCH_SMOKE=1``)
runs a down-scaled profile (n_apps ≤ 32, 16 clients) and writes the JSON
under ``benchmarks/results/`` instead, so CI never overwrites the
committed numbers; the smoke profile still enforces the CI regression
gates that a warm epoch is never slower than 2× a cold one and that
batched pushes are never slower than per-message ones.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py [--smoke]
"""

from __future__ import annotations

import json
import os
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # allow running as a plain script
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.core.allocator import AllocationRequest, LagrangianAllocator
from repro.core.operating_point import OperatingPoint
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.ipc.messages import Ack, UtilityRequest
from repro.ipc.protocol import recv_message, send_message
from repro.ipc.server import HarpSocketServer
from repro.platform.topology import Platform, raptor_lake_i9_13900k

RESULT_PATH = _REPO_ROOT / "BENCH_scale.json"
SMOKE_RESULT_PATH = _REPO_ROOT / "benchmarks" / "results" / "BENCH_scale_smoke.json"

FULL_N_APPS = [8, 32, 128, 512]
SMOKE_N_APPS = [8, 32]


def _scaled_platform(n_apps: int) -> Platform:
    """A Raptor-Lake-shaped machine with capacity scaled to the fleet.

    Keeps the P/E core models of the reference platform but grows the
    counts so feasible allocations exist for every fleet size — the
    regime the epoch model targets (many small sessions, not 512 ways
    of time-sharing 24 cores).
    """
    reference = raptor_lake_i9_13900k()
    p_core, e_core = reference.core_types
    return Platform.build(
        f"scale-{n_apps}",
        [(p_core, max(8, n_apps)), (e_core, max(16, 2 * n_apps))],
        uncore_power_w=reference.uncore_power_w,
    )


def _fleet(
    layout: ErvLayout, rng: np.random.Generator, n_apps: int, n_points: int
) -> list[AllocationRequest]:
    """Modest-demand sessions: every app offers a tiny fallback point."""
    requests = []
    for pid in range(n_apps):
        points = []
        for _ in range(n_points - 1):
            p1 = int(rng.integers(0, 3))
            p2 = int(rng.integers(0, 3))
            e = int(rng.integers(0, 5))
            if p1 + p2 + e == 0:
                e = 1
            points.append(
                OperatingPoint(
                    erv=ExtendedResourceVector(layout, (p1, p2, e)),
                    utility=float(rng.uniform(0.5, 20.0)),
                    power=float(rng.uniform(1.0, 150.0)),
                    measured=True,
                    samples=1,
                )
            )
        points.append(
            OperatingPoint(
                erv=ExtendedResourceVector(layout, (0, 0, 1)),
                utility=float(rng.uniform(0.5, 5.0)),
                power=float(rng.uniform(1.0, 10.0)),
                measured=True,
                samples=1,
            )
        )
        requests.append(
            AllocationRequest(pid=pid, points=points, max_utility=20.0)
        )
    return requests


def _churn_sequence(
    layout: ErvLayout,
    rng: np.random.Generator,
    base: list[AllocationRequest],
    epochs: int,
    n_points: int,
) -> list[list[AllocationRequest]]:
    """Epoch inputs under single-app churn: each epoch one app's point
    set changes (the dominant production event — an EMA update or a
    table refit), everything else stays identical by value."""
    sequence = []
    requests = list(base)
    for _ in range(epochs):
        i = int(rng.integers(0, len(requests)))
        fresh = _fleet(layout, rng, 1, n_points)[0]
        requests[i] = AllocationRequest(
            pid=requests[i].pid,
            points=fresh.points,
            max_utility=20.0,
        )
        sequence.append(list(requests))
    return sequence


def bench_solver(n_apps: int, n_points: int = 10, epochs: int = 12) -> dict:
    platform = _scaled_platform(n_apps)
    layout = ErvLayout(platform)
    rng = np.random.default_rng(1000 + n_apps)
    base = _fleet(layout, rng, n_apps, n_points)
    sequence = _churn_sequence(layout, rng, base, epochs, n_points)

    timings: dict[str, float] = {}
    iters: dict[str, float] = {}
    stats: dict[str, dict] = {}
    for name in ("cold", "warm"):
        alloc = LagrangianAllocator(platform, layout, cache_size=0)
        alloc.allocate([AllocationRequest(**{  # numpy dispatch warm-up
            "pid": 0, "points": base[0].points, "max_utility": 20.0,
        })])
        alloc.reset_warm_state()
        alloc.clear_caches()
        alloc.stats.reset()
        alloc.allocate(base)  # epoch 0 establishes warm state
        elapsed = 0.0
        for requests in sequence:
            if name == "cold":
                # True cold: nothing survives between epochs, matching an
                # allocator that solves every epoch from scratch.  The
                # reset runs outside the timed region — construction cost
                # is not what the epoch regimes are about.
                alloc.reset_warm_state()
                alloc.clear_caches()
            start = time.perf_counter()
            alloc.allocate(requests)
            elapsed += time.perf_counter() - start
        timings[name] = elapsed / epochs
        iters[name] = alloc.stats.subgradient_iters / (epochs + 1)
        stats[name] = {
            "warm_starts": alloc.stats.warm_starts,
            "subgradient_iters_per_epoch": iters[name],
        }
    return {
        "n_apps": n_apps,
        "n_points": n_points,
        "epochs": epochs,
        "cold_epoch_ms": timings["cold"] * 1e3,
        "warm_epoch_ms": timings["warm"] * 1e3,
        "warm_speedup": timings["cold"] / timings["warm"],
        "configs": stats,
    }


# -- IPC push throughput --------------------------------------------------------------


def _start_clients(server, rm_path, tmpdir, n_clients, n_requesters, stop):
    """Connect request sockets, raw draining push receivers, and
    background request traffic (the RM answers utility polls and
    registrations while it pushes activations)."""
    request_socks = []
    for i in range(n_clients):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(rm_path)
        sock.settimeout(5.0)
        request_socks.append(sock)
        push_path = os.path.join(tmpdir, f"push{i}.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(push_path)
        listener.listen(1)
        server.open_push_channel(i, push_path)
        conn, _ = listener.accept()
        conn.settimeout(0.2)
        listener.close()

        def drain(c=conn):
            while not stop.is_set():
                try:
                    if not c.recv(1 << 16):
                        return
                except socket.timeout:
                    continue
                except OSError:
                    return

        threading.Thread(target=drain, daemon=True).start()

    def requester(sock):
        while not stop.is_set():
            try:
                send_message(sock, UtilityRequest(pid=1))
                recv_message(sock)
            except OSError:
                return

    for sock in request_socks[:n_requesters]:
        threading.Thread(target=requester, args=(sock,), daemon=True).start()
    time.sleep(0.3)  # let the event loop settle
    return request_socks


def _bench_push(
    batched: bool,
    n_clients: int,
    epochs: int,
    msgs_per_epoch: int,
    n_requesters: int,
) -> float:
    tmpdir = tempfile.mkdtemp(prefix="harp-bench-ipc-")
    rm_path = os.path.join(tmpdir, "rm.sock")
    server = HarpSocketServer(rm_path, lambda m: Ack(ok=True))
    server.start()
    stop = threading.Event()
    request_socks = _start_clients(
        server, rm_path, tmpdir, n_clients, n_requesters, stop
    )
    messages = [UtilityRequest(pid=1) for _ in range(msgs_per_epoch)]
    try:
        for pid in range(n_clients):  # warm-up flush per client
            if batched:
                server.push_batch(pid, messages)
            else:
                for message in messages:
                    server.push(pid, message)
        start = time.perf_counter()
        for _ in range(epochs):
            for pid in range(n_clients):
                if batched:
                    server.push_batch(pid, messages)
                else:
                    for message in messages:
                        server.push(pid, message)
        elapsed = time.perf_counter() - start
    finally:
        stop.set()
        time.sleep(0.3)
        for sock in request_socks:
            sock.close()
        server.stop()
    return epochs * n_clients * msgs_per_epoch / elapsed


def bench_ipc(
    n_clients: int = 128,
    epochs: int = 150,
    msgs_per_epoch: int = 4,
    n_requesters: int = 16,
) -> dict:
    per_message = _bench_push(
        False, n_clients, epochs, msgs_per_epoch, n_requesters
    )
    batched = _bench_push(True, n_clients, epochs, msgs_per_epoch, n_requesters)
    return {
        "n_clients": n_clients,
        "epochs": epochs,
        "msgs_per_epoch": msgs_per_epoch,
        "n_requesters": n_requesters,
        "per_message_pushes_per_s": per_message,
        "batched_pushes_per_s": batched,
        "batch_speedup": batched / per_message,
    }


def bench_fleet_admission(n_nodes: int) -> dict:
    """Coordinator admission throughput at one fleet size.

    Builds an ``n_nodes`` fleet, submits two apps per node, and times the
    single coordinator epoch that places all of them (lease check +
    greedy admission solve + batched directive pushes + node-side
    spawns) — the fleet-level analogue of the warm intra-node epoch.
    """
    from repro.fleet import FleetSim, generate_fleet_apps

    apps = generate_fleet_apps(
        seed=n_nodes, n_apps=2 * n_nodes, horizon_s=0.0, work_scale=0.05
    )
    fleet = FleetSim(n_nodes=n_nodes, apps=apps, seed=7)
    for spec in apps:
        fleet.coordinator.submit(spec)
    t0 = time.perf_counter()
    fleet.coordinator.run_epoch()
    elapsed_s = time.perf_counter() - t0
    placed = sum(
        1 for rec in fleet.coordinator.apps.values() if rec.state == "placed"
    )
    assert placed == len(apps), f"only {placed}/{len(apps)} apps placed"
    return {
        "n_nodes": n_nodes,
        "n_apps": len(apps),
        "admission_epoch_ms": elapsed_s * 1e3,
        "admissions_per_s": placed / elapsed_s,
        "us_per_admission": elapsed_s * 1e6 / placed,
    }


def bench_fleet_recovery(n_nodes: int = 8) -> dict:
    """Node-kill recovery: crash one node mid-run, verify the fleet
    re-admits its apps and fleet-total energy stays monotone (no
    discontinuity from the frozen node or the re-placed apps)."""
    from repro.fleet import CoordinatorConfig, FleetSim, generate_fleet_apps

    apps = generate_fleet_apps(
        seed=3, n_apps=2 * n_nodes, horizon_s=0.25, work_scale=0.05
    )
    fleet = FleetSim(
        n_nodes=n_nodes,
        apps=apps,
        seed=5,
        coordinator_config=CoordinatorConfig(node_lease_epochs=1),
    )
    fleet.run(3)
    fleet.nodes[0].crash()
    crash_epoch = fleet.epoch
    last = fleet.fleet_energy_j()
    recovered_epoch = None
    for _ in range(200):
        fleet.run_epoch()
        total = fleet.fleet_energy_j()
        assert total >= last - 1e-9, (
            f"fleet energy discontinuity at epoch {fleet.epoch}: "
            f"{total} < {last}"
        )
        last = total
        if recovered_epoch is None and fleet.coordinator.nodes_reaped:
            recovered_epoch = fleet.epoch
        if fleet.coordinator.all_finished():
            break
    assert fleet.coordinator.all_finished(), "fleet did not finish"
    assert recovered_epoch is not None, "crashed node was never reaped"
    return {
        "n_nodes": n_nodes,
        "n_apps": len(apps),
        "crash_epoch": crash_epoch,
        "reap_epoch": recovered_epoch,
        "readmissions": fleet.coordinator.readmissions,
        "finish_epoch": fleet.epoch,
        "fleet_energy_j": last,
    }


def bench_fleet(n_nodes_list: list[int]) -> dict:
    return {
        "admission": [bench_fleet_admission(n) for n in n_nodes_list],
        "recovery": bench_fleet_recovery(),
    }


FULL_FLEET_NODES = [4, 8, 16, 32, 64]
SMOKE_FLEET_NODES = [4, 8]


def run(smoke: bool = False) -> dict:
    if smoke:
        solver = [
            bench_solver(n, n_points=8, epochs=6) for n in SMOKE_N_APPS
        ]
        ipc = bench_ipc(n_clients=16, epochs=30, n_requesters=4)
        fleet = bench_fleet(SMOKE_FLEET_NODES)
    else:
        solver = [bench_solver(n) for n in FULL_N_APPS]
        ipc = bench_ipc()
        fleet = bench_fleet(FULL_FLEET_NODES)
    report = {
        "bench": "scale",
        "smoke": smoke,
        "solver": solver,
        "ipc": ipc,
        "fleet": fleet,
    }
    path = SMOKE_RESULT_PATH if smoke else RESULT_PATH
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nresults written to {path}")

    # CI regression gates (both profiles): a warm-started epoch must never
    # be slower than 2x a cold solve at equal n_apps, and one flush per
    # client per epoch must never be slower than one flush per message.
    for entry in solver:
        assert entry["warm_epoch_ms"] <= 2.0 * entry["cold_epoch_ms"], (
            f"warm epoch regressed past 2x cold at n_apps={entry['n_apps']}: "
            f"{entry['warm_epoch_ms']:.2f}ms vs {entry['cold_epoch_ms']:.2f}ms"
        )
    assert ipc["batched_pushes_per_s"] >= ipc["per_message_pushes_per_s"], (
        f"batched pushes ({ipc['batched_pushes_per_s']:.0f}/s) slower than "
        f"per-message pushes ({ipc['per_message_pushes_per_s']:.0f}/s)"
    )
    if not smoke:
        # Scaling-regime targets (n_apps >= 128, where the control plane
        # is actually under pressure; smaller fleets are floor-dominated
        # and reported for information only).
        for entry in solver:
            if entry["n_apps"] >= 128:
                assert entry["warm_speedup"] >= 3.0, (
                    f"warm speedup {entry['warm_speedup']:.1f}x below the 3x "
                    f"target at n_apps={entry['n_apps']}"
                )
        # Near-linear fleet admission: per-admission cost may grow with
        # the candidate-node scan, but nowhere near quadratically — a
        # 16x node sweep must stay within 16x per-admission cost.
        first, final = fleet["admission"][0], fleet["admission"][-1]
        node_growth = final["n_nodes"] / first["n_nodes"]
        cost_growth = final["us_per_admission"] / first["us_per_admission"]
        assert cost_growth <= node_growth, (
            f"fleet admission cost grew {cost_growth:.1f}x over a "
            f"{node_growth:.0f}x node sweep — super-linear scaling"
        )
    return report


def test_scale_smoke():
    """Pytest entry point: scaled-down run, regression gate only."""
    run(smoke=True)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv or os.environ.get("HARP_BENCH_SMOKE") == "1"
    run(smoke=smoke)
