"""The declared bench gates: their bounds, the checker, the committed
artifacts, and ``repro-nay bench``'s exit status."""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

import pytest

from repro import perf
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every gate as ``(suite, key, op, full bound, quick bound)``.  Changing a
#: bound is a deliberate act: it has to be made here as well.
DECLARED_GATES = {
    ("chaos", "requests", ">=", 20, 20),
    ("chaos", "all_well_formed", "==", True, True),
    ("chaos", "all_scenarios_ok", "==", True, True),
    ("chaos", "fault_kind_count", ">=", 4, 4),
    ("serve", "gate_warm_vs_cold_throughput", ">=", 5.0, 3.0),
    ("serve", "all_schema_valid", "==", True, True),
    ("serve", "all_definitive", "==", True, None),
    ("serve", "warm_hit_ratio", ">=", 1.0, 1.0),
    ("logic", "incremental.queries_per_second", ">=", None, 0.5),
    ("domains", "gate_numpy_speedup_e1000", ">=", 5.0, 3.0),
    ("domains", "gate_python_small_e_slowdown", "<=", 1.1, 1.3),
    ("grammar", "gate_oe_evaluation_reduction", ">=", 2.0, 2.0),
    ("grammar", "gate_enumerator_speedup", ">=", 1.0, None),
    ("grammar", "gate_prune_wall_ratio", "<=", None, 1.25),
}

COMMITTED = ("serve", "domains", "grammar")


def committed_report(name: str) -> dict:
    return json.loads((REPO_ROOT / perf.SUITES[name].artifact).read_text())


def failures(results):
    return [result for result in results if not result.passed]


def test_declared_bounds():
    declared = {
        (suite.name, gate.key, gate.op, gate.full, gate.quick)
        for suite in perf.SUITES.values()
        for gate in suite.gates
    }
    assert declared == DECLARED_GATES
    relative = [
        (suite.name, gate.key)
        for suite in perf.SUITES.values()
        for gate in suite.gates
        if gate.relative
    ]
    assert relative == [("logic", "incremental.queries_per_second")]
    assert set(perf.SUITES) == {"fixpoint", "logic", "domains", "grammar", "chaos", "serve"}
    for name, suite in perf.SUITES.items():
        assert suite.artifact == f"BENCH_{name}.json"


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_artifact_meets_full_bounds(name):
    suite = perf.SUITES[name]
    report = committed_report(name)
    assert report["quick"] is False and report["schema_version"] == suite.schema_version
    results = perf.check_gates(suite, report)
    expected = [gate for gate in suite.gates if gate.full is not None]
    assert [result.key for result in results] == [gate.key for gate in expected]
    assert not failures(results), [result.describe() for result in results]
    assert "FAIL" not in perf.render(suite, report, results)


def _past(gate: perf.Gate, bound):
    if gate.op == "==":
        return not bound
    return bound * 0.5 if gate.op == ">=" else bound * 2


@pytest.mark.parametrize(
    "name,key",
    [
        (name, gate.key)
        for name in COMMITTED
        for gate in perf.SUITES[name].gates
        if gate.full is not None
    ],
)
def test_value_past_its_bound_fails(name, key):
    suite = perf.SUITES[name]
    gate = next(gate for gate in suite.gates if gate.key == key)
    report = copy.deepcopy(committed_report(name))
    report["summary"][key] = _past(gate, gate.full)
    failed = failures(perf.check_gates(suite, report))
    assert [result.key for result in failed] == [key]
    assert failed[0].describe().endswith("FAIL")


@pytest.mark.parametrize("value", ["drop", None])
def test_missing_gate_value_fails_by_name(value):
    suite = perf.SUITES["domains"]
    report = copy.deepcopy(committed_report("domains"))
    if value == "drop":
        del report["summary"]["gate_numpy_speedup_e1000"]
    else:
        report["summary"]["gate_numpy_speedup_e1000"] = None
    failed = failures(perf.check_gates(suite, report))
    assert len(failed) == 1
    message = failed[0].describe()
    assert message.startswith("domains: gate_numpy_speedup_e1000 >= 5.00")
    assert "missing" in message and message.endswith("FAIL")


def test_report_without_summary_fails_every_gate():
    suite = perf.SUITES["serve"]
    results = perf.check_gates(suite, {"quick": True, "legs": []})
    assert len(results) == 3 and not any(result.passed for result in results)


def test_quick_runs_use_quick_bounds():
    suite = perf.SUITES["grammar"]
    report = copy.deepcopy(committed_report("grammar"))
    report["quick"] = True
    report["summary"]["gate_enumerator_speedup"] = 0.1  # ungated on quick runs
    report["summary"]["gate_prune_wall_ratio"] = 1.3  # past the quick 1.25
    results = perf.check_gates(suite, report)
    assert [result.key for result in results] == [
        "gate_oe_evaluation_reduction",
        "gate_prune_wall_ratio",
    ]
    assert [result.key for result in failures(results)] == ["gate_prune_wall_ratio"]


def _logic_row(name, rate):
    return {"name": name, "incremental": {"queries_per_second": rate}}


class TestRelativeLogicGate:
    suite = perf.SUITES["logic"]
    committed = {
        "workloads": [_logic_row("fig2", 1000.0), _logic_row("random", 300.0)]
    }

    def check(self, rows, quick=True, committed=committed):
        report = {"quick": quick, "summary": {}, "workloads": rows}
        return perf.check_gates(self.suite, report, committed)

    def test_compares_rows_present_in_both(self):
        results = self.check(
            [_logic_row("fig2", 600.0), _logic_row("random", 100.0),
             _logic_row("quick_only", 1.0)]
        )
        assert [result.passed for result in results] == [True, False]
        assert results[1].key == "incremental.queries_per_second[random]"
        assert results[1].bound == 150.0

    def test_full_runs_are_not_gated(self):
        assert self.check([_logic_row("random", 1.0)], quick=False) == []

    def test_unreadable_committed_artifact_fails(self):
        (result,) = self.check([_logic_row("random", 1.0)], committed=None)
        assert not result.passed
        assert "BENCH_logic.json" in result.describe()

    def test_committed_artifact_has_the_gated_field(self):
        report = committed_report("logic")
        results = perf.check_gates(self.suite, {**report, "quick": True}, report)
        assert len(results) == len(report["workloads"])
        assert not failures(results)


class TestBenchExitStatus:
    def fake_suite(self, monkeypatch, summary):
        suite = dataclasses.replace(
            perf.SUITES["serve"],
            run=lambda repetitions, quick: {
                "legs": [{"name": "cold", "requests": 1}],
                "summary": summary,
            },
        )
        monkeypatch.setitem(perf.SUITES, "serve", suite)

    def test_failed_gate_exits_nonzero_and_still_writes(
        self, monkeypatch, tmp_path, capsys
    ):
        self.fake_suite(monkeypatch, {"all_schema_valid": True, "warm_hit_ratio": 1.0})
        out = tmp_path / "serve.json"
        status = cli_main(["bench", "--suite", "serve", "--quick", "--out", str(out)])
        assert status == 1
        assert json.loads(out.read_text())["quick"] is True
        assert "serve: gate_warm_vs_cold_throughput >= 3.00" in capsys.readouterr().out

    def test_passing_gates_exit_zero(self, monkeypatch, capsys):
        self.fake_suite(
            monkeypatch,
            {
                "gate_warm_vs_cold_throughput": 4.0,
                "all_schema_valid": True,
                "warm_hit_ratio": 1.0,
            },
        )
        assert cli_main(["bench", "--suite", "serve", "--quick", "--out", "-"]) == 0
        assert "FAIL" not in capsys.readouterr().out
