"""Tests for the harpobs telemetry layer (registry, exporters, wiring).

Covers the tentpole contracts: span nesting and exception safety, counter
concurrency across IPC client and server threads, byte-stable
Perfetto export (golden file), the ObservabilityQuery IPC message, and —
most importantly — that telemetry never perturbs the simulation (obs-on
and obs-off runs with identical seeds produce identical allocations).
"""

import json
import threading
from pathlib import Path

import pytest

from repro.apps import npb_model
from repro.core.manager import HarpManager, ManagerConfig
from repro.ipc.client import HarpSocketClient
from repro.ipc.messages import (
    Ack,
    DeregisterRequest,
    ObservabilityQuery,
    ObservabilityReply,
    decode_message,
    encode_message,
)
from repro.ipc.server import HarpSocketServer
from repro.obs import (
    OBS,
    Registry,
    render_summary,
    to_chrome_trace,
    to_jsonl,
    to_prometheus_text,
)
from repro.platform.dvfs import make_governor
from repro.sim.engine import World
from repro.sim.schedulers.pinned import PinnedScheduler

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "obs" / "perfetto_golden.json"


@pytest.fixture
def obs():
    """The global registry, clean and enabled; restored to disabled after."""
    OBS.reset()
    OBS.enable()
    yield OBS
    OBS.disable()
    OBS.reset()


class _FakeWall:
    """Deterministic wall clock: every call advances by a fixed step."""

    def __init__(self, step_s: float = 0.001):
        self.t = 0.0
        self.step_s = step_s

    def __call__(self) -> float:
        self.t += self.step_s
        return self.t


def _golden_registry() -> Registry:
    """A small, fully deterministic registry used for export golden files."""
    sim = {"t": 0.0}
    registry = Registry(
        enabled=True, clock=lambda: sim["t"], walltime=_FakeWall(0.001)
    )
    registry.counter("allocator.solves").inc(3)
    registry.counter("ipc.frames", dir="send", type="register").inc(2)
    # Control-plane scaling counters (docs/performance.md).
    registry.counter("alloc.warm_start_hits").inc(2)
    registry.counter("rm.epoch_coalesced_events").inc(5)
    registry.counter("ipc.push_batches").inc(4)
    registry.gauge("monitor.package_power_w").set(42.5)
    hist = registry.histogram("sim.tick_seconds")
    for value in (0.0005, 0.002, 0.2):
        hist.observe(value)
    registry.event(
        "stage_transition", track="app:ep.C", app="ep.C",
        to_stage="refinement",
    )
    sim["t"] = 0.5
    with registry.span("rm.reallocate", track="rm", epoch=1):
        with registry.span("allocator.solve", track="rm", apps=2):
            pass
    sim["t"] = 1.0
    registry.event("process.exit", track="app:ep.C", pid=2)
    return registry


class TestRegistry:
    def test_counter_get_or_create_and_inc(self):
        registry = Registry(enabled=True)
        counter = registry.counter("x", kind="a")
        counter.inc()
        counter.inc(2.5)
        assert registry.counter("x", kind="a") is counter
        assert counter.value == pytest.approx(3.5)
        # Different labels → different instrument.
        assert registry.counter("x", kind="b") is not counter

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Registry(enabled=True).counter("x").inc(-1.0)

    def test_gauge_remembers_last_set(self):
        registry = Registry(enabled=True)
        gauge = registry.gauge("power", pid=3)
        gauge.set(10.0)
        gauge.set(7.5)
        assert registry.gauge("power", pid=3).value == pytest.approx(7.5)

    def test_histogram_buckets_and_stats(self):
        registry = Registry(enabled=True)
        hist = registry.histogram("lat", bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.bucket_counts == [1, 1, 1, 1]
        assert hist.min == pytest.approx(0.005)
        assert hist.max == pytest.approx(5.0)
        assert hist.mean() == pytest.approx((0.005 + 0.05 + 0.5 + 5.0) / 4)

    def test_event_ring_cap_counts_drops(self):
        registry = Registry(enabled=True, max_events=3)
        for i in range(5):
            registry.event("e", i=i)
        assert len(registry.events) == 3
        assert registry.dropped_events == 2

    def test_disabled_records_no_events(self):
        registry = Registry(enabled=False)
        registry.event("ignored")
        with registry.span("also-ignored"):
            pass
        assert registry.events == []

    def test_reset_clears_everything(self):
        registry = Registry(enabled=True, clock=lambda: 5.0)
        registry.counter("x").inc()
        registry.event("e")
        registry.reset()
        assert registry.counters() == []
        assert registry.events == []
        assert registry.now_s() == 0.0  # clock cleared too

    def test_snapshot_is_json_compatible(self):
        snap = _golden_registry().snapshot()
        json.dumps(snap)  # must not raise
        names = {c["name"] for c in snap["counters"]}
        assert {"allocator.solves", "ipc.frames"} <= names
        assert snap["n_events"] == 4
        hist = snap["histograms"][0]
        assert hist["count"] == 3
        assert sum(hist["bucket_counts"]) == 3


class TestSpans:
    def test_nesting_depth_recorded(self):
        registry = Registry(enabled=True, walltime=_FakeWall())
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        inner, outer = registry.events  # inner exits (and records) first
        assert (inner.name, inner.depth) == ("inner", 1)
        assert (outer.name, outer.depth) == ("outer", 0)
        assert outer.wall_s > inner.wall_s

    def test_exception_safety(self):
        registry = Registry(enabled=True, walltime=_FakeWall())
        with pytest.raises(RuntimeError):
            with registry.span("solve"):
                raise RuntimeError("boom")
        (event,) = registry.events
        assert event.args.get("failed") is True
        # Depth bookkeeping fully unwound: a new span starts at depth 0.
        with registry.span("again"):
            pass
        assert registry.events[-1].depth == 0

    def test_span_positions_use_sim_clock(self):
        sim = {"t": 2.0}
        registry = Registry(
            enabled=True, clock=lambda: sim["t"], walltime=_FakeWall()
        )
        with registry.span("work"):
            sim["t"] = 3.5
        (event,) = registry.events
        assert event.ts_s == pytest.approx(2.0)  # stamped at entry
        assert event.args["sim_dur_s"] == pytest.approx(1.5)


class TestConcurrency:
    def test_counter_increments_are_atomic(self):
        registry = Registry(enabled=True)
        counter = registry.counter("hits")
        n_threads, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread

    def test_socket_server_threads_share_counters(self, obs, tmp_path):
        # Client threads and the server's event-loop thread all count frames
        # into the shared global registry.
        rm_path = str(tmp_path / "rm.sock")
        server = HarpSocketServer(rm_path, lambda m: Ack(ok=True))
        n_clients, per_client = 4, 25
        with server:
            def run_client(i):
                client = HarpSocketClient(rm_path, str(tmp_path / f"c{i}.sock"))
                try:
                    for _ in range(per_client):
                        client.request(DeregisterRequest(pid=i))
                finally:
                    client.close()

            threads = [
                threading.Thread(target=run_client, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        total = n_clients * per_client
        handled = obs.counter("ipc.handled", type="deregister")
        assert handled.value == total
        recv = obs.counter("ipc.frames", dir="recv", type="deregister")
        assert recv.value == total


class TestExporters:
    def test_perfetto_golden_file(self):
        trace = to_chrome_trace(_golden_registry())
        rendered = json.dumps(trace, indent=1, sort_keys=True) + "\n"
        assert rendered == GOLDEN_PATH.read_text(), (
            "Perfetto export drifted from the golden file; if intentional, "
            "regenerate with tests/fixtures/obs/regen_golden.py"
        )

    def test_chrome_trace_structure(self):
        trace = to_chrome_trace(_golden_registry())
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        spans = [e for e in events if e["ph"] == "X"]
        assert {s["name"] for s in spans} == {"rm.reallocate", "allocator.solve"}
        # 1 sim second == 1e6 ts units; both spans start at sim t=0.5.
        assert all(s["ts"] == pytest.approx(0.5e6) for s in spans)
        # Every referenced tid has a thread_name metadata record.
        named = {e["tid"] for e in events if e["ph"] == "M"}
        assert {e["tid"] for e in events} <= named

    def test_prometheus_text_format(self):
        text = to_prometheus_text(_golden_registry())
        assert "# TYPE harp_allocator_solves counter" in text
        assert "harp_allocator_solves 3" in text
        assert 'harp_ipc_frames{dir="send",type="register"} 2' in text
        assert "# TYPE harp_alloc_warm_start_hits counter" in text
        assert "harp_alloc_warm_start_hits 2" in text
        assert "harp_rm_epoch_coalesced_events 5" in text
        assert "harp_ipc_push_batches 4" in text
        assert "# TYPE harp_monitor_package_power_w gauge" in text
        assert 'harp_sim_tick_seconds_bucket{le="+Inf"} 3' in text
        assert "harp_sim_tick_seconds_count 3" in text

    def test_jsonl_one_object_per_event(self):
        lines = to_jsonl(_golden_registry()).splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["seq"] for r in records] == [0, 1, 2, 3]
        kinds = {r["kind"] for r in records}
        assert kinds == {"instant", "span"}

    def test_render_summary_mentions_everything(self):
        text = render_summary(_golden_registry())
        assert "allocator.solves" in text
        assert "monitor.package_power_w" in text
        assert "sim.tick_seconds" in text
        assert "rm/rm.reallocate" in text
        assert "0 dropped" in text


class TestObservabilityQuery:
    def test_codec_round_trip(self):
        msg = ObservabilityQuery(pid=3, include_registry=False)
        assert decode_message(encode_message(msg)) == msg
        reply = ObservabilityReply(
            ok=True, allocator={"solves": 4}, registry={"n_events": 0}
        )
        assert decode_message(encode_message(reply)) == reply

    def test_manager_answers_query(self, intel, obs):
        world = World(intel, PinnedScheduler(),
                      governor=make_governor("powersave", intel), seed=0)
        manager = HarpManager(world, ManagerConfig())
        world.spawn(npb_model("is.C"), managed=True)
        world.run_for(2.0)
        reply = manager.handle_request(ObservabilityQuery())
        assert isinstance(reply, ObservabilityReply) and reply.ok
        assert reply.allocator["solves"] >= 1
        assert reply.allocator["solves"] == manager.allocator_stats().solves
        assert reply.registry["n_events"] > 0
        lean = manager.handle_request(ObservabilityQuery(include_registry=False))
        assert lean.registry == {}

    def test_query_over_real_socket(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")
        server = HarpSocketServer(
            rm_path,
            lambda m: ObservabilityReply(ok=True, allocator={"solves": 7}),
        )
        with server:
            client = HarpSocketClient(rm_path, str(tmp_path / "c.sock"))
            try:
                reply = client.request(ObservabilityQuery())
                assert isinstance(reply, ObservabilityReply)
                assert reply.allocator == {"solves": 7}
            finally:
                client.close()


class TestIntegration:
    def test_managed_run_produces_expected_telemetry(self, intel, obs):
        world = World(intel, PinnedScheduler(),
                      governor=make_governor("powersave", intel), seed=11)
        manager = HarpManager(world, ManagerConfig())
        # One round of is.C stays in the initial stage; run rounds until
        # the table matures so a stage-transition event gets recorded.
        from repro.core.operating_point import MaturityStage

        for _ in range(6):
            world.spawn(npb_model("is.C"), managed=True)
            world.run_until_all_finished()
            if manager.table_store["is.C"].stage is not MaturityStage.INITIAL:
                break

        names = {e.name for e in obs.events}
        assert "rm.reallocate" in names
        assert "allocator.solve" in names
        assert "stage_transition" in names
        assert "process.start" in names and "process.exit" in names
        counters = {
            (c.name, tuple(sorted(c.labels.items()))): c.value
            for c in obs.counters()
        }
        assert counters[("sim.ticks", ())] > 0
        assert counters[("allocator.solves", ())] >= 1
        # Per-TYPE IPC counters from the in-process transport.
        assert any(
            name == "ipc.messages" and dict(labels).get("type") == "register"
            for name, labels in counters
        )
        # The whole thing still exports cleanly.
        json.dumps(to_chrome_trace(obs))

    def test_telemetry_does_not_perturb_allocations(self, intel):
        # Obs-on and obs-off runs with the same seed must be bit-identical:
        # recording never draws entropy or feeds back into decisions.
        def run(enabled: bool):
            OBS.reset()
            OBS.enabled = enabled
            try:
                world = World(intel, PinnedScheduler(),
                              governor=make_governor("powersave", intel),
                              seed=11)
                manager = HarpManager(world, ManagerConfig())
                world.spawn(npb_model("is.C"), managed=True)
                makespan = world.run_until_all_finished()
                table = manager.table_store["is.C"]
                return (
                    makespan,
                    world.total_energy_j(),
                    manager.allocation_epochs,
                    table.measured_count(),
                    tuple(sorted(
                        (p.erv.counts, p.utility, p.power)
                        for p in table.measured_points()
                    )),
                )
            finally:
                OBS.disable()
                OBS.reset()

        assert run(False) == run(True)
