"""Env-based check activation, report files, and the Simulation wiring."""

from __future__ import annotations

import json
import os

import pytest

from repro.check import (
    CheckReport,
    SanitizerSink,
    active_check_mode,
    append_report,
    check_report_dir,
    checking,
    load_reports,
    set_check_mode,
    write_aggregate,
)
from repro.check.config import DIR_ENV, MODE_ENV
from repro.obs.events import RecordingSink, TeeSink
from tests.conftest import run_spmd


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(MODE_ENV, raising=False)
    monkeypatch.delenv(DIR_ENV, raising=False)


class TestActivation:
    def test_off_by_default(self):
        assert active_check_mode() is None
        assert check_report_dir() is None

    def test_env_variable_activates(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "strict")
        assert active_check_mode() == "strict"

    def test_typo_is_off_not_strict(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "strictt")
        assert active_check_mode() is None

    def test_case_and_whitespace_tolerant(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, " Report ")
        assert active_check_mode() == "report"

    def test_set_check_mode_round_trip(self, tmp_path):
        set_check_mode("report", report_dir=str(tmp_path / "r"))
        assert active_check_mode() == "report"
        assert check_report_dir() == str(tmp_path / "r")
        assert os.path.isdir(str(tmp_path / "r"))
        set_check_mode(None)
        assert active_check_mode() is None
        assert check_report_dir() is None

    def test_set_check_mode_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_check_mode("loose")

    def test_checking_restores_previous(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "report")
        with checking("strict"):
            assert active_check_mode() == "strict"
        assert active_check_mode() == "report"


class TestReportFiles:
    def test_append_and_aggregate(self, tmp_path):
        d = str(tmp_path)
        r1 = CheckReport(label="a", runs=1, events_checked=10)
        r2 = CheckReport(label="b", runs=1, events_checked=5)
        append_report(r1, d)
        append_report(r2, d)
        merged = load_reports(d)
        assert merged.runs == 2
        assert merged.events_checked == 15
        path, merged2 = write_aggregate(d)
        assert merged2.to_dict()["runs"] == 2
        data = json.loads(open(path).read())
        assert data["ok"] is True and data["runs"] == 2

    def test_load_missing_dir_is_empty(self, tmp_path):
        merged = load_reports(str(tmp_path / "nope"))
        assert merged.runs == 0 and merged.ok


class TestSimulationWiring:
    @staticmethod
    def body(ctx, comm):
        total = yield from comm.allreduce(1)
        return total

    def test_env_attaches_checker(self):
        with checking("strict"):
            sim, res = run_spmd(self.body)
        assert isinstance(sim.checker, SanitizerSink)
        assert res.check_report is not None
        assert res.check_report.ok and res.check_report.runs == 1

    def test_explicit_param_overrides_env(self):
        sim, res = run_spmd(self.body)  # env off, no explicit param
        assert sim.checker is None
        assert res.check_report is None

    def test_checker_tees_with_user_sink(self):
        """A user sink still records everything when checking is on."""
        from repro.cluster.netmodels import ideal_network
        from repro.cluster.topology import Machine
        from repro.simmpi.simulation import Simulation

        sink = RecordingSink()
        machine = Machine(num_nodes=2, sockets_per_node=1,
                          cores_per_socket=1, ranks_per_node=1,
                          name="teebox")
        sim = Simulation(machine=machine, network=ideal_network(), seed=0,
                         sink=sink, check="strict")
        assert isinstance(sim.engine.sink, TeeSink)
        res = sim.run(self.body)
        assert len(sink.events) == res.check_report.events_checked > 0

    def test_report_mode_appends_to_dir(self, tmp_path):
        d = str(tmp_path)
        with checking("report", report_dir=d):
            run_spmd(self.body)
            run_spmd(self.body, seed=1)
        merged = load_reports(d)
        assert merged.runs == 2 and merged.ok

    def test_results_identical_with_checking(self):
        """Checking is passive: values and stats are bit-identical."""
        _, plain = run_spmd(self.body, seed=7)
        with checking("strict"):
            _, checked = run_spmd(self.body, seed=7)
        assert plain.values == checked.values
        assert plain.engine_stats == checked.engine_stats
