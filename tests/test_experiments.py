"""Smoke tests for the per-figure experiment harness (small scales)."""

import re
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    energy_attribution,
    fig1_config_space,
    fig5_regression,
    fig6_raptor_lake,
    fig8_learning,
    offline_points_for,
    overhead_experiment,
)


class TestFig1:
    def test_rows_and_pareto_flags(self):
        result = fig1_config_space(apps=("is.C",), e_step=8, ht_step=8)
        rows = result["is.C"]
        assert rows
        assert any(r["pareto"] for r in rows)
        for row in rows:
            assert row["time_s"] > 0 and row["energy_j"] > 0

    def test_mg_pareto_front_avoids_big_configs(self):
        result = fig1_config_space(apps=("mg.C",), e_step=4, ht_step=4)
        front = [r for r in result["mg.C"] if r["pareto"]]
        # The memory-bound kernel's front never includes the full machine.
        assert all(
            not (r["e_cores"] == 16 and r["p_hyperthreads"] == 16)
            for r in front
        )


class TestFig5:
    def test_poly2_converges_with_20_points(self):
        rows = fig5_regression(
            apps=["is.C", "mg.C"], models=("poly1", "poly2"),
            train_sizes=(20,), n_seeds=2, grid_points=50, probe_s=0.3,
        )
        poly2 = next(r for r in rows if r["model"] == "poly2")
        assert poly2["mape_ips"] < 25.0
        assert poly2["common_ratio"] > 0.5

    def test_row_schema(self):
        rows = fig5_regression(
            apps=["is.C"], models=("poly1",), train_sizes=(10,),
            n_seeds=1, grid_points=40, probe_s=0.3,
        )
        assert set(rows[0]) == {
            "model", "train_size", "mape_ips", "mape_power", "igd",
            "common_ratio",
        }


class TestFig6:
    def test_quick_subset(self):
        cmp = fig6_raptor_lake(
            single_apps=["mg.C"], multi_scenarios=[],
            policies=("itd", "harp"), rounds=1, seed=0,
        )
        policies = {r["policy"] for r in cmp.rows}
        assert policies == {"itd", "harp"}
        harp = next(r for r in cmp.rows if r["policy"] == "harp")
        assert harp["energy_factor"] > 1.0

    def test_geomeans_grouping(self):
        cmp = fig6_raptor_lake(
            single_apps=["is.C"], multi_scenarios=[],
            policies=("itd",), rounds=1, seed=0,
        )
        means = cmp.geomeans()
        assert ("itd", "single") in means


def _table_rows(text: str) -> list[list[str]]:
    """The cells of every body row of the markdown tables in ``text``."""
    return [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in text.splitlines()
        if line.startswith("| ") and not line.startswith("|---")
    ]


class TestFig6Quotes:
    """EXPERIMENTS.md's Fig. 6 "Measured" column quotes the committed
    quick-profile table: a configuration row its policy's geometric-mean
    row, a scenario row that scenario's online-HARP row."""

    ROOT = Path(__file__).resolve().parent.parent
    GEOMEAN_ROWS = {
        "ITD, single": ("itd", "single"),
        "ITD, multi": ("itd", "multi"),
        "HARP, single": ("harp", "single"),
        "HARP, multi": ("harp", "multi"),
        "HARP (Offline), single": ("harp-offline", "single"),
        "HARP (Offline), multi": ("harp-offline", "multi"),
        "HARP (No Scaling), single": ("harp-noscaling", "single"),
        "HARP (No Scaling), multi": ("harp-noscaling", "multi"),
    }
    SCENARIO_ROWS = {
        "binpack outlier": "binpack",
        "lu loses under HARP (IPS ≠ true utility)": "lu.C",
        "primes hurt by startup overhead": "primes",
    }

    def _committed(self) -> tuple[dict, dict]:
        text = (
            self.ROOT / "benchmarks/results/fig6_raptor_lake.md"
        ).read_text()
        per_scenario, geomeans = text.split("## Geometric means")
        scenarios = {
            (row[0], row[2]): row[3:5]
            for row in _table_rows(per_scenario)[1:]
        }
        means = {
            (row[0], row[1]): row[2:4] for row in _table_rows(geomeans)[1:]
        }
        return scenarios, means

    def _quoted(self) -> dict[str, list[str]]:
        text = (self.ROOT / "EXPERIMENTS.md").read_text()
        section = text.split("## Fig. 6")[1].split("\n## ")[0]
        return {
            row[0]: re.findall(r"(\d+\.\d+)×", row[2])
            for row in _table_rows(section)[1:]
        }

    def test_every_row_is_checked(self):
        assert set(self._quoted()) == (
            set(self.GEOMEAN_ROWS) | set(self.SCENARIO_ROWS)
        )

    def test_configuration_rows_quote_the_geomeans(self):
        _, means = self._committed()
        quoted = self._quoted()
        for label, key in self.GEOMEAN_ROWS.items():
            assert quoted[label] == means[key], label

    def test_scenario_rows_quote_online_harp(self):
        scenarios, _ = self._committed()
        quoted = self._quoted()
        for label, scenario in self.SCENARIO_ROWS.items():
            numbers = quoted[label]
            assert numbers, label
            assert numbers == scenarios[(scenario, "harp")][:len(numbers)]


class TestOverheadAndAttribution:
    def test_overhead_small(self):
        rows = overhead_experiment(scenarios=[["mg.C"]], rounds=1)
        assert abs(rows[0]["overhead_pct"]) < 5.0

    def test_attribution_mape_in_paper_ballpark(self):
        result = energy_attribution(scenarios=[["ep.C", "mg.C"]])
        assert result["mape_pct"] is not None
        assert 0.5 < result["mape_pct"] < 25.0


class TestOfflineCache:
    def test_offline_points_cached(self):
        a = offline_points_for(["is.C"], probe_s=0.2, max_points=10)
        b = offline_points_for(["is.C"], probe_s=0.2, max_points=10)
        assert a["is.C"] is b["is.C"]


@pytest.mark.slow
class TestFig8:
    def test_learning_trajectory(self):
        result = fig8_learning(
            scenarios=[["mg.C"]], snapshot_interval_s=5.0,
            max_learning_s=60.0, rounds=1,
        )
        scenario = result["scenarios"][0]
        assert scenario["trajectory"]
        assert scenario["stable_at_s"]


class TestStableSeeding:
    """Fig. 5 seeds must not depend on the process hash salt."""

    def test_stable_seed_is_crc_of_canonical_key(self):
        import zlib

        from repro.analysis.experiments import _stable_seed

        expected = zlib.crc32(b"ep.C|poly2|10|3")
        assert _stable_seed("ep.C", "poly2", 10, 3) == expected

    def test_identical_across_hash_salts(self):
        """Two subprocesses with different PYTHONHASHSEED draw the same
        training subsets (the regression for the salted hash() seed)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import numpy as np\n"
            "from repro.analysis.experiments import _stable_seed\n"
            "seed = _stable_seed('ep.C', 'poly2', 10, 3)\n"
            "rng = np.random.default_rng(seed)\n"
            "idx = rng.choice(120, size=10, replace=False)\n"
            "print(seed, ','.join(map(str, idx)))\n"
        )
        outputs = []
        for salt in ("0", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = salt
            env["PYTHONPATH"] = src_dir
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout.strip())
        assert outputs[0] == outputs[1]
