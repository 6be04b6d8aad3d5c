"""Fig. 8 — HARP's behaviour during the learning phase.

Snapshots the operating-point tables every 5 s of a learning run, then
re-evaluates each snapshot (HARP driven purely by the snapshot, no further
exploration) against CFS, producing the improvement-factor trajectory of
Fig. 8 plus the time-to-stable statistics of §6.5.

Expected shape: fluctuating factors during learning, stabilizing once all
applications reach the stable stage; single-application scenarios
stabilize around 30 s (paper: 29.8 ± 5.9 s) and multi-application ones
slightly later (36.6 ± 8.0 s).
"""

from conftest import full_scale, save_results

from repro.analysis.experiments import fig8_learning


def _run():
    if full_scale():
        scenarios = [["ep.C"], ["mg.C"], ["is.C"], ["lu.C"],
                     ["ep.C", "mg.C"], ["is.C", "lu.C"],
                     ["ep.C", "mg.C", "ft.C", "cg.C"]]
        return fig8_learning(scenarios=scenarios, max_learning_s=150.0)
    return fig8_learning(
        scenarios=[["mg.C"], ["ep.C", "mg.C"]], max_learning_s=80.0
    )


def test_fig8_learning(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = ["# Fig. 8 — learning-phase snapshots", ""]
    for scenario in result["scenarios"]:
        lines.append(f"## {scenario['scenario']} ({scenario['kind']})")
        lines.append("| t [s] | stable | F(time) | F(energy) |")
        lines.append("|---|---|---|---|")
        for p in scenario["trajectory"]:
            lines.append(
                f"| {p['t_s']:.0f} | {'yes' if p['stable'] else 'no'} | "
                f"{p['time_factor']:.2f} | {p['energy_factor']:.2f} |"
            )
        lines.append(
            f"\nstable at: { {k: round(v, 1) for k, v in scenario['stable_at_s'].items()} }\n"
        )
    lines.append("## Time-to-stable summary")
    for kind, stats in result["summary"].items():
        lines.append(
            f"* {kind}: {stats['mean_s']:.1f} ± {stats['std_s']:.1f} s "
            f"(n={stats['n']})"
        )
    save_results("fig8_learning", lines)

    # Every scenario eventually reaches the stable stage and the late
    # snapshots beat the early ones on energy.
    for scenario in result["scenarios"]:
        assert scenario["stable_at_s"]
        trajectory = scenario["trajectory"]
        if len(trajectory) >= 3:
            early = trajectory[0]["energy_factor"]
            late = trajectory[-1]["energy_factor"]
            assert late > early * 0.7
    # Both profiles run single and multi scenarios; multi-application
    # scenarios share resources and stabilize later (§6.5).
    summary = result["summary"]
    assert 5.0 < summary["single"]["mean_s"] < 90.0
    assert summary["multi"]["mean_s"] > summary["single"]["mean_s"]
