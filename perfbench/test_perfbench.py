"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from perfbench import run
from perfbench.stats import OpLedger, lifetime_summary, percentile
from perfbench.tracing import RUN_SPAN, Tracer, entry_points, is_clean
from perfbench.workloads import WORKLOADS, Fleet, HarpNode, OpenLoop, run_through

#: Tiny-horizon versions of the four workloads.
TINY = {
    "steady-64": lambda: OpenLoop("steady-64", duration_s=4.0, parts=2),
    "bursty-1k": lambda: OpenLoop("bursty-1k", duration_s=20.0),
    "harp-node": lambda: HarpNode(
        measured_rounds=1, settle_rounds=0, work_scale=0.05, warmup_max_rounds=0
    ),
    "fleet-64": lambda: Fleet(n_nodes=4, n_apps=8, horizon_s=0.5, work_scale=0.01, epochs=12),
}


# -- statistics --------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    xs = list(range(1, 11))
    assert percentile(xs, 0.5) == 5
    assert percentile(xs, 0.9) == 9
    assert percentile(xs, 1.0) == 10
    assert percentile(reversed(xs), 0.1) == 1
    assert percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile(xs, 0.0)


def test_lifetime_summary_states_sample_counts():
    summary = lifetime_summary(float(x) for x in range(1, 101))
    assert summary == {"p50_s": 50.0, "p90_s": 90.0, "samples": 100, "tail_samples": 10}
    assert lifetime_summary([]) == {
        "p50_s": None, "p90_s": None, "samples": 0, "tail_samples": 0,
    }


def test_ledger_counts_failures_apart_from_refusals():
    ledger = OpLedger()
    ledger.offered = 20
    ledger.refused = 5
    assert (ledger.failed, ledger.fail_frac, ledger.refused_frac) == (0, 0.0, 0.25)
    ledger.reaped, ledger.lost, ledger.double_placed, ledger.unfinished = 1, 1, 1, 1
    assert ledger.failed == 4
    assert ledger.fail_frac == pytest.approx(0.2)
    assert OpLedger().fail_frac == 0.0


def test_open_loop_refusals_are_accounted_per_arrival():
    workload = OpenLoop("steady-64", duration_s=6.0)
    workload.spec = replace(workload.spec, max_live=2)
    state = workload.setup(0)
    run_through(workload, state)
    out = workload.outcome([state])
    assert out.problems == []
    assert out.ledger.refused == state.driver.rejected > 0
    assert out.ledger.offered == out.extra["arrivals"]
    assert out.ledger.offered == state.driver.spawned + state.driver.rejected
    assert out.modelled["sim_refused_frac"] == pytest.approx(
        state.driver.rejected / out.extra["arrivals"]
    )
    assert out.ledger.failed == 0


def test_a_lost_session_fails_the_check():
    workload = OpenLoop("steady-64", duration_s=2.0)
    state = workload.setup(0)
    run_through(workload, state)
    state.driver.spawned += 1  # one session neither finished nor live
    out = workload.outcome([state])
    assert out.ledger.lost == 1 and out.ledger.fail_frac > 0
    assert any("completed" in p for p in out.problems)


# -- determinism -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_of_each_workload_is_deterministic(name):
    runs = []
    for _ in range(2):
        workload = TINY[name]()
        states = []
        for seed in (3, 4)[: workload.parts]:
            state = workload.setup(seed)
            run_through(workload, state)
            states.append(state)
        runs.append(workload.outcome(states))
    assert runs[0].fingerprint() == runs[1].fingerprint()
    if name == "harp-node":
        # No warm-up allowed, so the STABLE check must fire.
        assert len(runs[0].problems) == 1 and "STABLE" in runs[0].problems[0]
    else:
        assert runs[0].problems == []


def test_engine_parity_slice_passes():
    run.check_engine_parity(0)


def test_setup_time_is_a_median_of_scaled_setups():
    setup_s, samples = run.measure_setup(TINY["steady-64"](), [0, 1])
    assert len(samples) == run.SETUP_REPEATS
    ratios = sorted(s["raw_s"] / s["reference_s"] for s in samples)
    assert setup_s == pytest.approx(
        ratios[len(ratios) // 2] * run.REFERENCE_NOMINAL_S
    )


# -- the traced run ----------------------------------------------------------------


def _originals():
    return {(id(owner), attr): vars(owner)[attr] for _, owner, attr in entry_points()}


def test_every_wrapper_is_removed_after_a_traced_run():
    before = _originals()
    tracer = Tracer()
    workload = TINY["fleet-64"]()
    run._iteration(workload, [0], tracer)
    spans = len(tracer)
    assert spans > 0
    assert _originals() == before and is_clean()
    run._iteration(workload, [0])  # a timed run after the traced run
    assert len(tracer) == spans


def test_wrappers_are_removed_when_the_run_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert not is_clean()
            raise RuntimeError
    assert is_clean()


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("b"):
            pass
    totals = tracer.totals()["a"]
    assert totals["b"]["calls"] == 2
    assert totals["a"]["self_s"] == pytest.approx(
        totals["a"]["s"] - totals["b"]["s"]
    )


@pytest.mark.parametrize("name", ["steady-64", "harp-node", "fleet-64"])
def test_traced_run_reports_every_layer_metric(name):
    workload = TINY[name]()
    seeds = [0] if workload.parts == 1 else [0, 1]
    untraced = run._iteration(workload, seeds)
    tracer = Tracer()
    traced = run._iteration(workload, seeds, tracer)
    metrics, report = run.layer_metrics(tracer, traced, untraced)
    assert set(metrics) == {m for m, _, _ in run._per_layer_spec()}
    assert report["hotspot_layer"] in {"sim", "apps", "platform", "scenario",
                                       "core", "libharp", "fleet", "ipc"}
    core = [v for k, v in metrics.items() if k.startswith("core.")]
    fleet = [v for k, v in metrics.items() if k.startswith(("fleet.", "ipc."))]
    if name == "steady-64":
        assert not any(core)
        assert metrics["scenario.driver.calls"] > 0
    else:
        assert metrics["core.hook.calls"] > 0 and metrics["core.allocate.calls"] > 0
    if name == "fleet-64":
        assert metrics["fleet.epoch.calls"] > 0 and metrics["ipc.codec.bytes"] > 0
    else:
        assert not any(fleet)
    if name == "harp-node":
        assert metrics["sim.leap_frac"] == 0.0
    shares = sum(v for k, v in metrics.items() if k.endswith(".share"))
    assert shares + metrics["trace.unattributed_frac"] == pytest.approx(1.0)
    assert tracer.totals()[RUN_SPAN][RUN_SPAN]["calls"] == len(seeds)


# -- the contract ------------------------------------------------------------------


def test_benchmark_json_names_what_the_code_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["run_seconds"] == run.RUN_SECONDS
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.RESULT_END_TO_END)
    units = {name: unit for name, unit, _ in run.END_TO_END}
    assert all(m["unit"] == units[m["name"]] for m in doc["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(spec) for spec in run._per_layer_spec()
    ]


def test_missing_program_source_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "steady-64"]) == 2
    assert capsys.readouterr().out == ""
