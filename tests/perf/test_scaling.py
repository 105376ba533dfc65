"""Scaling probe: sweep structure, determinism, trajectory round-trip."""

from __future__ import annotations

import json

import pytest

from repro.perf.harness import load_bench
from repro.perf.regress import DEFAULT_TOLERANCE, check_bench
from repro.perf.scaling import (
    compare_to_trajectory,
    depth_probe,
    main,
    probe_point,
    scaling_probe,
)

# Tiny sweep: keeps the whole module in CI-smoke territory.
TINY_P = (8, 16)
TINY_BUDGET = 512


class TestProbePoint:
    @pytest.fixture(scope="class")
    def point(self) -> dict:
        return probe_point(8, budget=TINY_BUDGET, seed=0, zones=True)

    def test_throughput_fields(self, point):
        assert point["p"] == 8
        assert point["workload"] == "ring"
        assert point["messages"] > 0
        assert point["msgs_per_sec"] > 0
        assert point["events_processed"] >= point["messages"]
        assert point["max_queue_depth"] >= 1

    def test_zone_breakdown_attached(self, point):
        zones = point["zones"]
        assert zones["total_ns"] > 0
        assert any(
            path.endswith("engine.run") for path in zones["zones"]
        )

    def test_rank_count_must_fit_nodes(self):
        with pytest.raises(ValueError):
            probe_point(6, budget=TINY_BUDGET)

    def test_fig3_workload_runs(self):
        point = probe_point(
            8, workload="fig3", budget=TINY_BUDGET, seed=0, zones=False
        )
        assert point["workload"] == "fig3"
        assert point["label"].startswith("hca")
        assert point["messages"] > 0

    def test_profiled_run_is_bit_identical(self):
        """zones=True reruns the workload; same seed -> same counts."""
        a = probe_point(8, budget=TINY_BUDGET, seed=0, zones=False)
        b = probe_point(8, budget=TINY_BUDGET, seed=0, zones=True)
        assert a["messages"] == b["messages"]
        assert a["events_processed"] == b["events_processed"]


class TestSweep:
    def test_sweep_shape(self):
        section = scaling_probe(
            p_values=TINY_P, budget=TINY_BUDGET, zones=False
        )
        assert section["workload"] == "ring"
        assert section["budget"] == TINY_BUDGET
        assert [pt["p"] for pt in section["points"]] == list(TINY_P)

    def test_budget_splits_rounds(self):
        section = scaling_probe(
            p_values=TINY_P, budget=TINY_BUDGET, zones=False
        )
        for pt in section["points"]:
            assert pt["nrounds"] == max(4, TINY_BUDGET // pt["p"])


class TestTrajectoryRoundTrip:
    def test_record_then_regress(self, tmp_path, capsys):
        """Two recorded sweeps gate per-p through the extended regress."""
        bench = str(tmp_path / "bench.json")
        for _ in range(2):
            assert main([
                "--p", "8", "--budget", str(TINY_BUDGET), "--no-zones",
                "--record", "scaling", "--output", bench,
            ]) == 0
        capsys.readouterr()
        data = load_bench(bench)
        assert [e["label"] for e in data["entries"]] == [
            "scaling", "scaling"
        ]
        checks = check_bench(data, tolerance=DEFAULT_TOLERANCE)
        assert [c.name for c in checks] == [
            f"scaling[ring/{TINY_BUDGET},q=calendar,p=8].msgs_per_sec"
        ]

    def test_json_output(self, capsys):
        assert main([
            "--p", "8", "--budget", str(TINY_BUDGET), "--no-zones",
            "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["points"][0]["p"] == 8


class TestQueueSelection:
    def test_point_records_queue_kind(self):
        """Points keep the stamp the regress gate keys scaling points on."""
        pt = probe_point(8, budget=TINY_BUDGET, zones=False)
        assert pt["event_queue"] == "calendar"
        assert pt["gate_deferrals"] >= 0


class TestDepthProbe:
    def test_tree_vs_flat_depth_shape(self):
        """The probe separates O(log p) tree depth from Theta(p) flat."""
        hca, _ = depth_probe(16, label="hca/4/skampi_offset/2")
        jk, _ = depth_probe(16, label="jk/4/skampi_offset/2")
        assert hca["level_depth"] == 4   # ceil(log2 16)
        assert jk["level_depth"] == 15   # p - 1
        assert hca["depth_ratio"] <= 1.0
        assert jk["expected_depth"] == 15
        assert 0.0 < hca["duration_s"] < jk["duration_s"]
        assert 0.0 < hca["path_msg_fraction"] <= 1.0

    def test_sweep_attaches_sync_depth_and_analyses(self):
        analyses: list = []
        section = scaling_probe(
            p_values=(8,), workload="fig3", zones=False,
            label="hca/4/skampi_offset/2", depth=True,
            depth_analyses=analyses,
        )
        (point,) = section["points"]
        assert section["label"] == "hca/4/skampi_offset/2"
        assert point["sync_depth"]["level_depth"] == 3
        assert len(analyses) == 1
        assert analyses[0]["depth"]["level_depth"] == 3

    def test_depth_summary_is_deterministic(self):
        a, _ = depth_probe(8, label="hca/4/skampi_offset/2", seed=1)
        b, _ = depth_probe(8, label="hca/4/skampi_offset/2", seed=1)
        a.pop("wall_s"), b.pop("wall_s")
        assert a == b

    def test_cli_depth_flag_and_artifact(self, tmp_path, capsys):
        cp_dir = str(tmp_path / "cp")
        assert main([
            "--workload", "fig3", "--p", "8", "--no-zones", "--depth",
            "--label", "hca/4/skampi_offset/2",
            "--critical-path", cp_dir, "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["points"][0]["sync_depth"]["level_depth"] == 3
        artifact = json.loads(
            (tmp_path / "cp" / "critical_path.json").read_text()
        )
        assert artifact["critical_path_version"] == 1
        assert artifact["meta"]["label"] == "hca/4/skampi_offset/2"
        assert len(artifact["runs"]) == 1

    def test_cli_depth_requires_fig3(self, capsys):
        assert main(["--workload", "ring", "--p", "8", "--depth"]) == 2


class TestCompare:
    def test_compare_against_recorded_trajectory(self, tmp_path, capsys):
        bench = str(tmp_path / "bench.json")
        assert main([
            "--p", "8", "16", "--budget", str(TINY_BUDGET), "--no-zones",
            "--record", "prior", "--output", bench,
        ]) == 0
        capsys.readouterr()
        fresh = scaling_probe(
            p_values=(8, 16), budget=TINY_BUDGET, zones=False
        )
        rows = compare_to_trajectory(fresh, bench)
        assert [r["p"] for r in rows] == [8, 16]
        for row in rows:
            assert row["prior"]["event_queue"] == "calendar"
            assert row["prior"]["label"] == "prior"
            assert row["speedup"] == pytest.approx(
                row["msgs_per_sec"] / row["prior"]["msgs_per_sec"]
            )

    def test_compare_with_no_prior(self, tmp_path):
        bench = str(tmp_path / "empty.json")
        fresh = scaling_probe(
            p_values=(8,), budget=TINY_BUDGET, zones=False
        )
        (row,) = compare_to_trajectory(fresh, bench)
        assert row["prior"] is None and row["speedup"] is None

    def test_compare_cli_prints_speedup(self, tmp_path, capsys):
        bench = str(tmp_path / "bench.json")
        assert main([
            "--p", "8", "--budget", str(TINY_BUDGET), "--no-zones",
            "--record", "prior", "--output", bench,
        ]) == 0
        capsys.readouterr()
        assert main([
            "--p", "8", "--budget", str(TINY_BUDGET), "--no-zones",
            "--compare", "--output", bench,
        ]) == 0
        out = capsys.readouterr().out
        assert "compare: p=    8:" in out
        assert "x" in out.rsplit("->", 1)[-1]
