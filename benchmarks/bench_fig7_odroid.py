"""Fig. 7 — HARP (Offline) vs the Energy-Aware Scheduler on the Odroid.

As in the paper, only the offline variant runs on this platform — the
Exynos PMU cannot monitor both clusters simultaneously, so there is no
online-exploration path (§6.4).

Expected shape: singles ≈ 1.07× time / 1.27× energy; multis ≈ 1.20× /
1.38×; KPN applications improve through their custom adaptivity knobs
while their static variants track the baseline more closely.
"""

from conftest import full_scale, save_results

from repro.analysis.experiments import fig7_odroid

QUICK_SINGLES = ["ep.A", "mg.A", "lu.A", "ua.A",
                 "mandelbrot", "mandelbrot-static", "lms", "lms-static"]
QUICK_MULTIS = [["ep.A", "ft.A"], ["mg.A", "lu.A"], ["mandelbrot", "lms"]]


def _run():
    if full_scale():
        return fig7_odroid(rounds=2)
    return fig7_odroid(
        single_apps=QUICK_SINGLES, multi_scenarios=QUICK_MULTIS, rounds=1
    )


def test_fig7_odroid(benchmark):
    cmp = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [
        "# Fig. 7 — improvement factors over EAS (Odroid XU3-E), HARP (Offline)",
        "",
        "| scenario | kind | F(time) | F(energy) |",
        "|---|---|---|---|",
    ]
    for r in cmp.rows:
        lines.append(
            f"| {r['scenario']} | {r['kind']} | {r['time_factor']:.2f} | "
            f"{r['energy_factor']:.2f} |"
        )
    means = cmp.geomeans()
    lines += ["", "## Geometric means", ""]
    for (policy, kind), v in sorted(means.items()):
        lines.append(
            f"* {policy} / {kind}: F(time)={v['time_factor']:.2f}, "
            f"F(energy)={v['energy_factor']:.2f}"
        )
    save_results("fig7_odroid", lines)

    # Energy improves on average in both groups.
    assert means[("harp-offline", "single")]["energy_factor"] > 1.0
    assert means[("harp-offline", "multi")]["energy_factor"] > 1.0
    # The adaptive KPN application does not lose time vs its static twin
    # (both profiles run the pair; a renamed scenario fails here).
    by_name = {r["scenario"]: r for r in cmp.rows}
    assert (
        by_name["mandelbrot"]["energy_factor"]
        >= by_name["mandelbrot-static"]["energy_factor"] * 0.85
    )
