"""Perf-regression gate: exit codes and check math over the trajectory."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.perf.harness import BENCH_FILE, load_bench, upgrade_bench
from repro.perf.regress import (
    DEFAULT_TOLERANCE,
    check_bench,
    main,
)


def _bench_data() -> dict:
    with open(BENCH_FILE) as fh:
        return json.load(fh)


def _entry(label: str, **sections) -> dict:
    return {"label": label, "recorded_at": "2026-01-01T00:00:00",
            **sections}


def _write(tmp_path, data) -> str:
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestTrajectoryFormat:
    def test_committed_file_is_format_2(self):
        data = _bench_data()
        assert data["format"] == 2
        assert isinstance(data["entries"], list)
        assert len(data["entries"]) >= 2
        for entry in data["entries"]:
            assert entry["label"]
            assert entry["recorded_at"]

    def test_v1_upgrade_orders_baseline_first(self):
        v1 = {"benchmark": "engine_perf", "entries": {
            "current": {"recorded_at": "2026-01-02T00:00:00",
                        "engine": {"msgs_per_sec": 2.0}},
            "baseline": {"recorded_at": "2026-01-01T00:00:00",
                         "engine": {"msgs_per_sec": 1.0}},
        }}
        up = upgrade_bench(v1)
        assert up["format"] == 2
        assert [e["label"] for e in up["entries"]] == [
            "baseline", "current"
        ]

    def test_v1_file_loads_and_checks(self, tmp_path):
        v1 = {"entries": {
            "baseline": {"engine": {"msgs_per_sec": 100.0}},
            "current": {"engine": {"msgs_per_sec": 99.0}},
        }}
        path = _write(tmp_path, v1)
        checks = check_bench(load_bench(path), DEFAULT_TOLERANCE)
        assert [c.name for c in checks] == ["engine.msgs_per_sec"]
        assert checks[0].ok


class TestCheckBench:
    def test_committed_trajectory_passes(self):
        checks = check_bench(_bench_data(), tolerance=DEFAULT_TOLERANCE)
        names = {c.name for c in checks}
        assert {"engine.msgs_per_sec", "campaign.wall_s"} <= names
        assert all(c.ok for c in checks)

    def test_latest_vs_best_prior(self):
        data = {"format": 2, "entries": [
            _entry("a", engine={"msgs_per_sec": 100.0}),
            _entry("b", engine={"msgs_per_sec": 120.0}),
            _entry("c", engine={"msgs_per_sec": 110.0}),
        ]}
        (check,) = check_bench(data, tolerance=0.15)
        # Gate compares against the best prior (120), not the first.
        assert check.baseline == 120.0
        assert check.current == 110.0
        assert check.ok

    def test_throughput_drop_fails(self):
        data = {"format": 2, "entries": [
            _entry("a", engine={"msgs_per_sec": 100.0}),
            _entry("b", engine={"msgs_per_sec": 80.0}),
        ]}
        (check,) = check_bench(data, tolerance=DEFAULT_TOLERANCE)
        assert not check.ok
        assert check.regression == pytest.approx(0.20)
        assert "REGRESSION" in check.describe()

    def test_campaign_uses_fastest_configuration(self):
        data = {"format": 2, "entries": [
            _entry("a", campaign={"wall_s": 1.0}),
            _entry("b", campaign={"wall_s": 99.0},
                   campaign_parallel={"wall_s": 1.05}),
        ]}
        (check,) = check_bench(data, DEFAULT_TOLERANCE)
        assert check.name == "campaign.wall_s"
        assert check.current == 1.05
        assert check.ok

    def test_tolerates_entries_missing_sections(self):
        """A 1-CPU host's entry without campaign_parallel, or a
        scaling-only entry, must not break the other checks."""
        data = {"format": 2, "entries": [
            _entry("a", engine={"msgs_per_sec": 100.0},
                   campaign={"wall_s": 1.0},
                   campaign_parallel={"wall_s": 0.5}),
            _entry("b", engine={"msgs_per_sec": 101.0},
                   campaign={"wall_s": 0.49}),
            _entry("scaling", scaling={
                "workload": "ring", "budget": 1024,
                "points": [{"p": 8, "msgs_per_sec": 50.0}],
            }),
        ]}
        checks = {c.name: c for c in check_bench(data, DEFAULT_TOLERANCE)}
        # Engine and campaign still gate (latest entry carrying each),
        # scaling has no prior point yet so no scaling check appears.
        assert set(checks) == {"engine.msgs_per_sec", "campaign.wall_s"}
        assert checks["campaign.wall_s"].baseline == 0.5
        assert checks["campaign.wall_s"].current == 0.49

    def test_scaling_points_gate_per_p(self):
        section = {"workload": "ring", "budget": 1024}
        data = {"format": 2, "entries": [
            _entry("s1", scaling={**section, "points": [
                {"p": 8, "msgs_per_sec": 100.0},
                {"p": 32, "msgs_per_sec": 60.0},
            ]}),
            _entry("s2", scaling={**section, "points": [
                {"p": 8, "msgs_per_sec": 99.0},
                {"p": 32, "msgs_per_sec": 30.0},
            ]}),
        ]}
        checks = check_bench(data, DEFAULT_TOLERANCE)
        by_name = {c.name: c for c in checks}
        # Points without an event_queue field are legacy heap sweeps.
        assert by_name["scaling[ring/1024,q=heap,p=8].msgs_per_sec"].ok
        assert not by_name["scaling[ring/1024,q=heap,p=32].msgs_per_sec"].ok

    def test_engine_gates_per_queue_kind(self):
        """Engine entries partition by kernel: a calendar entry neither
        regresses against a heap prior nor hides a heap drop."""
        data = {"format": 2, "entries": [
            _entry("a", engine={"msgs_per_sec": 100.0}),  # legacy heap
            _entry("b", engine={"msgs_per_sec": 10.0,
                                "event_queue": "calendar"}),
            _entry("c", engine={"msgs_per_sec": 12.0,
                                "event_queue": "calendar"}),
        ]}
        checks = {c.name: c for c in check_bench(data, DEFAULT_TOLERANCE)}
        # Heap has one entry -> no heap check; calendar gates c vs b.
        assert set(checks) == {"engine[q=calendar].msgs_per_sec"}
        assert checks["engine[q=calendar].msgs_per_sec"].ok

    def test_different_queue_kinds_never_compare(self):
        """A calendar-queue sweep must not gate against a heap sweep."""
        section = {"workload": "ring", "budget": 1024}
        data = {"format": 2, "entries": [
            _entry("s1", scaling={**section, "points": [
                {"p": 8, "msgs_per_sec": 100.0, "event_queue": "heap"},
            ]}),
            _entry("s2", scaling={**section, "points": [
                {"p": 8, "msgs_per_sec": 10.0, "event_queue": "calendar"},
            ]}),
        ]}
        # Different kernels -> no comparable metric at all.
        assert check_bench(data, DEFAULT_TOLERANCE) == []

    def test_mismatched_scaling_configs_never_compare(self):
        data = {"format": 2, "entries": [
            _entry("s1", scaling={"workload": "ring", "budget": 1024,
                                  "points": [{"p": 8,
                                              "msgs_per_sec": 100.0}]}),
            _entry("s2", scaling={"workload": "ring", "budget": 64,
                                  "points": [{"p": 8,
                                              "msgs_per_sec": 10.0}]}),
        ]}
        # Different budgets -> no comparable metric at all.
        assert check_bench(data, DEFAULT_TOLERANCE) == []

    def test_single_entry_raises(self):
        with pytest.raises(KeyError):
            check_bench(
                {"format": 2, "entries": [_entry("only")]},
                DEFAULT_TOLERANCE,
            )

    def test_empty_raises(self):
        with pytest.raises(KeyError):
            check_bench({"entries": {}}, DEFAULT_TOLERANCE)


class TestCli:
    def test_committed_file_exits_zero(self, capsys):
        assert main(["--file", BENCH_FILE]) == 0
        assert "ok" in capsys.readouterr().out

    def test_doctored_drop_exits_one(self, tmp_path, capsys):
        data = copy.deepcopy(upgrade_bench(_bench_data()))
        # Doctor the newest entry of the trajectory's *heap* engine
        # series — the one kind guaranteed to have a prior to gate
        # against (the committed baseline/current entries).
        for entry in data["entries"]:
            engine = entry.get("engine", {})
            if engine and engine.get("event_queue", "heap") == "heap":
                last = entry
        last["engine"]["msgs_per_sec"] *= 0.5
        data["entries"].append(data["entries"].pop(
            data["entries"].index(last)
        ))
        assert main(["--file", _write(tmp_path, data)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_soft_fail_masks_regression(self, tmp_path):
        data = {"format": 2, "entries": [
            _entry("a", engine={"msgs_per_sec": 100.0}),
            _entry("b", engine={"msgs_per_sec": 10.0}),
        ]}
        assert main(["--file", _write(tmp_path, data), "--soft-fail"]) == 0

    def test_missing_entries_exit_two(self, tmp_path):
        assert main(["--file", _write(tmp_path, {"entries": {}})]) == 2
        assert main(
            ["--file", _write(tmp_path, {"entries": {}}), "--soft-fail"]
        ) == 0

    def test_tighter_tolerance_flags_small_drop(self, tmp_path):
        data = {"format": 2, "entries": [
            _entry("a", engine={"msgs_per_sec": 100.0}),
            _entry("b", engine={"msgs_per_sec": 95.0}),
        ]}
        path = _write(tmp_path, data)
        assert main(["--file", path]) == 0  # within default 15%
        assert main(["--file", path, "--tolerance", "0.02"]) == 1

    def test_module_run_has_no_runpy_warning(self):
        """``python -m`` must not find the module already imported."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.perf.regress", "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
