"""Fig. 5 — regression-model comparison for operating-point approximation.

Regenerates the four panels: MAPE(IPS), MAPE(power), IGD, and the ratio of
common Pareto points, per model family and training-set size, averaged
over applications × random seeds.

Expected shape (paper §5.2): polynomial models beat NN/SVM on Pareto-front
alignment; degree 2 converges by ~20 training points (HARP's choice);
degree 3 needs more data; degree 1 plateaus with worse alignment.
"""

from conftest import full_scale, save_results

from repro.analysis.experiments import FIG5_APPS, fig5_regression


def _run():
    if full_scale():
        return fig5_regression(
            apps=FIG5_APPS,
            train_sizes=(5, 10, 15, 20, 30, 40, 60),
            n_seeds=10,
            grid_points=120,
        )
    return fig5_regression(
        apps=["ep.C", "mg.C", "is.C", "lu.C", "binpack"],
        train_sizes=(10, 20, 40),
        n_seeds=3,
        grid_points=70,
        probe_s=0.4,
    )


def test_fig5_regression_models(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [
        "# Fig. 5 — regression models (lower MAPE/IGD better, higher ratio better)",
        "",
        "| model | train size | MAPE IPS [%] | MAPE power [%] | IGD | common ratio |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['model']} | {r['train_size']} | {r['mape_ips']:.1f} | "
            f"{r['mape_power']:.1f} | {r['igd']:.3f} | {r['common_ratio']:.2f} |"
        )
    save_results("fig5_regression", lines)

    def row(model, size):
        return next(r for r in rows if r["model"] == model and r["train_size"] == size)

    sizes = sorted({r["train_size"] for r in rows})
    mid = 20 if 20 in sizes else sizes[len(sizes) // 2]
    big = sizes[-1]
    # Degree-2 polynomial converges by ~20 points (the paper's pick).
    assert row("poly2", mid)["mape_ips"] < 15.0
    assert row("poly2", mid)["common_ratio"] > 0.6
    # poly2's MAPE(IPS) falls from the smallest to the largest training set.
    small = sizes[0]
    assert (
        row("poly2", small)["mape_ips"]
        > row("poly2", mid)["mape_ips"]
        > row("poly2", big)["mape_ips"]
    )
    # At ~20 points poly2 shares the most Pareto points of all five models.
    assert row("poly2", mid)["common_ratio"] > max(
        row(m, mid)["common_ratio"] for m in ("poly1", "poly3", "nn", "svm")
    )
    # Degree 3 needs more data than degree 2 at small training sizes.
    assert row("poly3", small)["mape_ips"] > row("poly2", big)["mape_ips"]
    # Degree 1 never aligns with the front as well as degree 2 at scale.
    assert row("poly2", big)["igd"] <= row("poly1", big)["igd"] * 1.2
