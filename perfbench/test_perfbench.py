"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They take a few minutes: the barrier_jupiter and service_slo units
cannot be made smaller than their paper targets' quick scale.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import steady  # noqa: E402
from repro.experiments.common import QUICK  # noqa: E402
from workloads import WORKLOADS, check_unit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Smaller units (run kwargs, simulated jobs) on the same code paths.
TINY = {
    "roundtime_titan": (
        {"scale": "quick", "nmpiruns": 1, "msizes": (4,)}, 1),
    "hier_campaign_titan": (
        {"scale": dataclasses.replace(
            QUICK, num_nodes=2, nfitpoints=4, nmpiruns=1)}, 4),
}


def tiny(name: str):
    kwargs, njobs = TINY[name]
    return dataclasses.replace(WORKLOADS[name], kwargs=kwargs, njobs=njobs)


def test_spec_matches_the_metrics_run_py_reports():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_spec_follows_the_contract():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", ["roundtime_titan", "hier_campaign_titan"])
def test_tiny_units_trace_passively(name):
    out = run._trace(tiny(name), seed=3)
    assert out["failed"] == 0, out["problems"]
    layers = out["layers"]
    assert set(layers) == set(run.PER_LAYER)
    plain, traced = out["units"]
    assert plain.check.digest == traced.check.digest
    assert layers["simmpi.messages"] == plain.counts.messages > 0
    assert layers["simmpi.fabric_priced_runs"] == layers["simmpi.run_calls"]
    assert layers["cluster.fabric_calls"] > 0
    assert layers["network.delay_calls"] >= layers["simmpi.messages"]


def test_barrier_jupiter_traces_on_the_quiet_path():
    out = run._trace(WORKLOADS["barrier_jupiter"], seed=0)
    assert out["failed"] == 0, out["problems"]
    layers = out["layers"]
    assert layers["simmpi.fabric_priced_runs"] == 0
    assert layers["cluster.fabric_calls"] == 0
    assert layers["simmpi.quiet_runs"] == layers["simmpi.run_calls"] == 3


def test_digest_mismatch_fails_the_job():
    wl = tiny("roundtime_titan")
    result, _ = wl.run(seed=1, jobs=1)
    first = check_unit(wl, result)
    assert first.failed == [False]
    series = result.series["osu"][4]
    series[0] = series[0] * (1 + 1e-12)
    second = check_unit(wl, result, reference=first)
    assert second.failed == [True]
    assert any("digest" in p for p in second.problems)


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def test_cli_prints_every_end_to_end_metric_last():
    done = _cli("--workload", "service_slo", "--seed", "2",
                "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] == WORKLOADS["service_slo"].njobs
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        run.END_TO_END
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli("--workload", "service_slo", "--seed", "0",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _fake_set(values: dict[str, list[float]], cpu: str = "x") -> dict:
    runs = [
        {"seed": i, "correct": True,
         "metrics": {k: {"value": v[i]} for k, v in values.items()}}
        for i in range(len(next(iter(values.values()))))
    ]
    host = {"cpu": cpu, "nproc": 2, "python": "3", "numpy": "2"}
    return {"host": host, "runs": {"w": runs}}


def test_steady_check_applies_the_bounds():
    flat = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99]
    wide = [1.0, 2.0, 0.5, 1.5, 0.7, 1.2, 1.9, 0.6, 1.0, 1.4]
    good = {m["name"]: flat for m in SPEC["end_to_end"]}
    assert steady.check([_fake_set(good)], SPEC) == []
    noisy = dict(good, wall_s=wide)
    assert any("wall_s" in f for f in steady.check([_fake_set(noisy)], SPEC))
    # setup_s is judged only by its drift between sets, not its spread.
    assert steady.check([_fake_set(dict(good, setup_s=wide))], SPEC) == []
    slower = dict(good, wall_s=[v * 1.5 for v in flat])
    fails = steady.check([_fake_set(good), _fake_set(slower)], SPEC)
    assert any("worse by" in f for f in fails)
    faster = dict(good, wall_s=[v * 0.5 for v in flat])
    assert steady.check([_fake_set(good), _fake_set(faster)], SPEC) == []


def test_steady_check_refuses_other_hosts():
    good = {m["name"]: [1.0, 1.0, 1.0] for m in SPEC["end_to_end"]}
    fails = steady.check([_fake_set(good), _fake_set(good, cpu="y")], SPEC)
    assert fails and "not comparable" in fails[0]


def test_steady_self_check_runs(tmp_path):
    sets = []
    for i in range(2):
        out = tmp_path / f"set{i}.json"
        assert steady.main(["run", "--workload", "service_slo",
                            "--seeds", "0-1", "--seconds", "1",
                            "--out", str(out)]) == 0
        sets.append(out)
    loaded = [json.loads(p.read_text()) for p in sets]
    assert loaded[0]["host"] == loaded[1]["host"]
    digests = [[r["digest"] for r in s["runs"]["service_slo"]]
               for s in loaded]
    assert digests[0] == digests[1]
    # The verdict depends on the host's noise; the check must reach one.
    assert steady.main(["check", *map(str, sets)]) in (0, 1)
