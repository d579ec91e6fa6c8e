"""The one wall-clock deadline (:mod:`repro.utils.deadline`) and the budgets
it carries from a request down to the solver loops.

``if_hard_18`` is the stress case: an unbudgeted naySL ``solve`` of it runs
for tens of seconds inside a single branch-and-bound search, so it only
stops on time when the deadline reaches the innermost loops.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

import pytest

from repro.api import Solver
from repro.api.facade import run_engine
from repro.api.wire import SolveRequest
from repro.baselines.nay_sl import NaySL
from repro.engine.supervisor import Supervisor, get_breakers
from repro.logic import ilp
from repro.suites import all_benchmarks, get_benchmark
from repro.synth import enumerator
from repro.synth.enumerator import EnumerativeSynthesizer
from repro.unreal.cegis import NayConfig, NaySolver
from repro.unreal.certificates import build_clia_certificate
from repro.unreal.result import (
    DEADLINE,
    EXAMPLE_BUDGET,
    ITERATION_BUDGET,
    SOLVER_LIMIT,
    Verdict,
)
from repro.utils.deadline import (
    DeadlineExceeded,
    check,
    deadline,
    expired,
    lifted,
    remaining,
)
from repro.utils.errors import SolverLimitError

STRESS = "if_hard_18"

#: Reasons a budgeted run may give for an ``unknown`` verdict.
BUDGET_REASONS = (ITERATION_BUDGET, EXAMPLE_BUDGET, SOLVER_LIMIT)


def within_budget(elapsed: float, budget: float) -> bool:
    return elapsed <= budget + max(0.5, 0.1 * budget)


def assert_reason_matches(response) -> None:
    reason = response.details.get("reason")
    if response.verdict == "timeout":
        assert reason == DEADLINE, response.details
    else:
        assert response.verdict == "unknown", response.verdict
        assert reason in BUDGET_REASONS, response.details


class TestScope:
    def test_no_deadline_by_default(self):
        assert remaining() is None
        assert not expired()
        check()  # never raises without a deadline

    def test_nesting_takes_the_minimum(self):
        with deadline(100):
            assert 99 < remaining() <= 100
            with deadline(5):
                assert remaining() <= 5
                with deadline(1000):  # an inner scope cannot extend a budget
                    assert remaining() <= 5
                with deadline(None):  # nor lift it
                    assert remaining() <= 5
            assert remaining() > 99
        assert remaining() is None

    def test_expiry_raises_deadline_exceeded(self):
        with deadline(0):
            assert expired()
            assert remaining() == 0.0
            with pytest.raises(DeadlineExceeded):
                check()

    def test_lifted_runs_without_a_deadline(self):
        with deadline(0):
            with lifted():
                assert remaining() is None
                check()
            assert expired()

    def test_not_a_solver_limit(self):
        # The logic core swallows SolverLimitError in places (unsat-core
        # probes, subsumption tests); a deadline must get through them.
        assert not issubclass(DeadlineExceeded, SolverLimitError)

    def test_threads_do_not_share_a_deadline(self):
        seen = {}
        inside = threading.Event()
        leave = threading.Event()

        def budgeted():
            with deadline(0):
                seen["own"] = expired()
                inside.set()
                leave.wait(5)

        def unbudgeted():
            inside.wait(5)
            seen["other"] = remaining()

        first = threading.Thread(target=budgeted)
        second = threading.Thread(target=unbudgeted)
        first.start()
        second.start()
        second.join(5)
        leave.set()
        first.join(5)
        assert seen == {"own": True, "other": None}
        assert remaining() is None


class TestReasons:
    def test_iteration_budget_is_unknown(self, running_example_problem):
        result = NaySolver(NayConfig(seed=0, max_iterations=0)).solve(
            running_example_problem
        )
        assert result.verdict == Verdict.UNKNOWN
        assert result.details["reason"] == ITERATION_BUDGET

    def test_solver_limit_is_unknown(self, running_example_problem):
        def checker(problem, examples):
            raise SolverLimitError("node budget")

        result = NaySolver(NayConfig(seed=0, checker=checker)).solve(
            running_example_problem
        )
        assert result.verdict == Verdict.UNKNOWN
        assert result.details["reason"] == SOLVER_LIMIT

    def test_expired_deadline_is_timeout(self, running_example_problem):
        with deadline(0):
            result = NaySolver(NayConfig(seed=0)).solve(running_example_problem)
        assert result.verdict == Verdict.TIMEOUT
        assert result.details["reason"] == DEADLINE

    def test_solver_limit_in_a_check_is_unknown(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise SolverLimitError("branch-and-bound exceeded the node budget")

        monkeypatch.setattr(NaySL, "check", exhausted)
        benchmark = get_benchmark("max2", "LimitedIf")
        response = run_engine(
            "naySL", "check", benchmark.problem, benchmark.witness_examples
        )
        assert response.verdict == "unknown"
        assert response.details["reason"] == SOLVER_LIMIT


def test_certificate_builders_run_with_the_deadline_lifted():
    benchmark = get_benchmark("max2", "LimitedIf")
    with deadline(0):
        certificate = build_clia_certificate(
            benchmark.problem, benchmark.witness_examples
        )
    assert certificate is not None


def test_enumerator_rebuilds_a_row_cut_by_the_deadline(monkeypatch):
    """A row cut mid-way is undone, so the next pass over the same bank
    enumerates exactly what an uninterrupted run does."""
    benchmark = get_benchmark("max2", "LimitedIf")
    examples = benchmark.witness_examples
    reads = []
    monkeypatch.setattr(enumerator, "expired", lambda: reads.append(None) or False)
    fresh = EnumerativeSynthesizer(max_size=8).synthesize(benchmark.problem, examples)
    monkeypatch.undo()
    assert fresh.exhausted
    for cut_at in range(len(reads)):  # every deadline read of the enumeration
        synthesizer = EnumerativeSynthesizer(max_size=8)
        reads = itertools.count()
        monkeypatch.setattr(enumerator, "expired", lambda: next(reads) == cut_at)
        cut = synthesizer.synthesize(benchmark.problem, examples)
        monkeypatch.undo()
        assert cut.details["reason"] == "timeout", cut_at
        resumed = synthesizer.synthesize(benchmark.problem, examples)
        assert resumed.exhausted, cut_at
        assert resumed.explored_terms == fresh.explored_terms, cut_at


@pytest.mark.parametrize(
    "engine", ["naySL", "nope", "nayHorn", "nayInt", "nayFin", "staged"]
)
def test_budget_bounds_wall_time_in_process(engine):
    budget = 1.0
    began = time.monotonic()
    response = Solver(engine=engine, timeout_seconds=budget).solve(STRESS)
    elapsed = time.monotonic() - began
    assert within_budget(elapsed, budget), f"{engine} took {elapsed:.2f}s"
    assert_reason_matches(response)
    if engine in ("naySL", "nope"):
        assert response.verdict == "timeout"


def test_fabric_job_stops_inside_the_worker():
    get_breakers().reset()
    supervisor = Supervisor(1, name="deadline-test")
    try:
        request = SolveRequest(
            kind="solve", engine="naySL", benchmark=STRESS, timeout_seconds=1.0
        )
        job = supervisor.submit(request)
        response = supervisor.harvest(job, timeout=1.5)
        assert response.verdict == "timeout"
        assert response.details["reason"] == DEADLINE
        assert supervisor.stats.snapshot().get("workers_replaced", 0) == 0
    finally:
        supervisor.shutdown()
        get_breakers().reset()


def _check_slice(benchmarks):
    outcomes = {}
    for benchmark in benchmarks:
        response = run_engine(
            "naySL", "check", benchmark.problem, benchmark.witness_examples
        )
        outcomes[str(benchmark)] = (
            response.verdict,
            json.dumps(response.certificate, sort_keys=True),
        )
    return outcomes


def test_abort_mid_search_leaves_caches_sound(monkeypatch):
    benchmarks = [
        benchmark
        for benchmark in all_benchmarks()
        if benchmark.suite == "LimitedIf" and benchmark.witness_examples
    ][:8]
    before = _check_slice(benchmarks)
    assert any(verdict == "unrealizable" for verdict, _ in before.values())

    aborted = []
    search = ilp._branch_and_bound

    def watched(*args, **kwargs):
        try:
            return search(*args, **kwargs)
        except DeadlineExceeded:
            aborted.append(True)
            raise

    monkeypatch.setattr(ilp, "_branch_and_bound", watched)
    stress = get_benchmark(STRESS)
    response = run_engine("naySL", "solve", stress.problem, timeout=0.5)
    assert response.verdict == "timeout"
    assert aborted, "the deadline did not fire inside a branch-and-bound search"
    monkeypatch.undo()

    assert _check_slice(benchmarks) == before
