"""The resilient solve fabric (:mod:`repro.engine.supervisor`).

Every test here drives real worker processes, so the suite keeps pools
small (``warm=False``) and timeouts tight.  The global breaker board is
reset around each test — breakers are process-wide state and a tripped one
would leak into unrelated tests.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro import perf
from repro.api.wire import SolveRequest, SolveResponse
from repro.engine.results import stable_view
from repro.engine.supervisor import (
    BreakerBoard,
    CircuitBreaker,
    FabricTimeoutError,
    RetryPolicy,
    Supervisor,
    get_breakers,
    get_fabric,
    install_fabric,
    shutdown_fabric,
)
from repro.testing.faults import reset_fault_state


@pytest.fixture(autouse=True)
def _isolate_global_state(monkeypatch):
    monkeypatch.delenv("REPRO_NAY_FAULTS", raising=False)
    get_breakers().reset()
    reset_fault_state()
    yield
    get_breakers().reset()
    reset_fault_state()


def request(faults=None, timeout=15.0, engine="naySL"):
    return SolveRequest(
        benchmark="plane1",
        engine=engine,
        kind="check",
        timeout_seconds=timeout,
        tags={"faults": faults} if faults else {},
    )


def assert_dead(pids):
    """Every pid must be gone (kill -0 fails) — no zombies, no leaks."""
    deadline = time.monotonic() + 10.0
    remaining = set(pids)
    while remaining and time.monotonic() < deadline:
        for pid in list(remaining):
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                remaining.discard(pid)
        if remaining:
            time.sleep(0.05)
    assert not remaining, f"worker pids still alive after shutdown: {remaining}"


def well_formed(response):
    SolveResponse.from_json(response.to_json())
    return response


def _ignore_sigterm_and_sleep(ready):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready.set()
    time.sleep(120.0)


class TestWorkerTeardown:
    def test_kill_escalates_to_sigkill_for_sigterm_ignoring_process(self):
        """A worker that ignores SIGTERM must still be reaped (no zombies,
        no orphans) once the grace period runs out."""
        from repro.engine.supervisor import _pick_context, _Worker

        ctx = _pick_context()
        ready = ctx.Event()
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(target=_ignore_sigterm_and_sleep, args=(ready,))
        process.start()
        child_conn.close()
        assert ready.wait(10.0)
        worker = _Worker(process, parent_conn)
        start = time.monotonic()
        worker.kill(grace_seconds=0.2)
        assert time.monotonic() - start < 10.0
        assert process.exitcode == -signal.SIGKILL
        assert_dead([process.pid])


class TestExperimentsOnFabric:
    def test_crashing_engine_leaves_other_cells_intact(self, monkeypatch):
        """Crash isolation: on the 2-worker fabric, a cell whose worker dies
        on every attempt reports ``error`` while every other cell matches a
        fault-free serial run, in the same row order."""
        import repro.experiments as experiments_module
        from repro.experiments import table1

        monkeypatch.setattr(experiments_module, "QUICK_TABLE1", ["plane1", "plane2"])
        serial = [row.as_dict() for row in table1(quick=True, workers=1, timeout=60.0)]
        monkeypatch.setenv("REPRO_NAY_FAULTS", "crash@nope")
        faulty = [row.as_dict() for row in table1(quick=True, workers=2, timeout=60.0)]
        assert [(row["benchmark"], row["tool"]) for row in faulty] == [
            (row["benchmark"], row["tool"]) for row in serial
        ]
        for clean, row in zip(serial, faulty):
            if row["tool"] == "nope":
                assert row["verdict"] == "error"
                assert row["examples"] == clean["examples"] > 0
            else:
                assert stable_view(row) == stable_view(clean)

    def test_consecutive_timeouts_do_not_trip_a_breaker(self, monkeypatch):
        """nayHorn and nope answer ``unknown`` on these four benchmarks, so a
        budget every solve overruns turns each of their cells into a soft
        ``timeout``: four consecutive timeouts for each engine.  The batch fabric
        must still solve every cell, exactly as the in-process run does."""
        import repro.experiments as experiments_module
        from repro.experiments import table1

        monkeypatch.setattr(
            experiments_module, "QUICK_TABLE1", ["guard1", "guard3", "max2", "guard2"]
        )
        serial = [row.as_dict() for row in table1(quick=True, workers=1, timeout=1e-6)]
        assert [row["verdict"] for row in serial if row["tool"] == "nope"] == [
            "timeout"
        ] * 4
        for _ in range(2):  # a second sweep must not inherit breaker state
            parallel = [
                row.as_dict() for row in table1(quick=True, workers=2, timeout=1e-6)
            ]
            assert [stable_view(row) for row in parallel] == [
                stable_view(row) for row in serial
            ]

    def test_stuck_cell_reports_timeout_through_the_hard_guard(self, monkeypatch):
        """A cell whose worker hangs is written off as ``timeout`` by the
        supervisor's hard guard (shrunk here to the soft budget)."""
        import repro.experiments as experiments_module
        from repro.engine import supervisor as supervisor_module
        from repro.experiments import table1

        monkeypatch.setattr(experiments_module, "QUICK_TABLE1", ["plane1"])
        monkeypatch.setattr(supervisor_module, "HARD_TIMEOUT_FACTOR", 1.0)
        monkeypatch.setattr(supervisor_module, "HARD_TIMEOUT_MARGIN", 0.0)
        monkeypatch.setenv("REPRO_NAY_FAULTS", "hang@nope")
        rows = [row.as_dict() for row in table1(quick=True, workers=2, timeout=2.0)]
        verdicts = {row["tool"]: row["verdict"] for row in rows}
        assert verdicts == {
            "naySL": "unrealizable",
            "nayHorn": "unrealizable",
            "nope": "timeout",
        }
        assert len({row["examples"] for row in rows}) == 1


class TestSolveBatchSizing:
    def test_ephemeral_fabric_has_no_more_workers_than_requests(self, monkeypatch):
        from repro.api import Solver
        from repro.engine import supervisor as supervisor_module

        sizes = []

        class RecordingSupervisor(Supervisor):
            def __init__(self, workers=None, **kwargs):
                sizes.append(workers)
                super().__init__(workers, **kwargs)

        monkeypatch.setattr(supervisor_module, "Supervisor", RecordingSupervisor)
        responses = Solver().solve_batch(["plane1", "plane2"], workers=8)
        assert sizes == [2]
        assert [response.verdict for response in responses] == ["unrealizable"] * 2


class TestRetryPolicy:
    def test_delays_are_bounded_and_grow(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay_seconds=0.1, max_delay_seconds=0.3
        )
        import random

        rng = random.Random(0)
        delays = [policy.delay(attempt, rng) for attempt in (1, 2, 3)]
        assert all(0.0 < delay <= 0.45 for delay in delays)  # cap + 50% jitter

    def test_defaults_retry_a_few_times(self):
        assert RetryPolicy().max_attempts >= 2


class TestCircuitBreaker:
    def test_no_threshold_counts_failures_but_never_trips(self):
        breaker = CircuitBreaker("x", threshold=None)
        for _ in range(10):
            breaker.record_failure()
        assert breaker.allow()
        assert breaker.snapshot() == {
            "state": "closed",
            "consecutive_failures": 10,
            "trips": 0,
        }

    def test_trips_after_threshold_and_recovers_half_open(self):
        breaker = CircuitBreaker("x", threshold=2, cooldown_seconds=0.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == "open"
        assert snap["trips"] == 1
        assert not breaker.allow()  # cooling down
        time.sleep(0.15)
        assert breaker.allow()  # the half-open probe
        assert breaker.snapshot()["state"] == "half_open"
        assert not breaker.allow()  # a single probe at a time
        breaker.record_success()
        assert breaker.snapshot()["state"] == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker("x", threshold=1, cooldown_seconds=0.05)
        breaker.record_failure()
        time.sleep(0.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.snapshot()["state"] == "open"

    def test_release_probe_reopens_without_waiting(self):
        breaker = CircuitBreaker("x", threshold=1, cooldown_seconds=60.0)
        breaker.record_failure()
        breaker._opened_at -= 60.0  # age past the cooldown
        assert breaker.allow()
        breaker.release_probe()  # probe cancelled, not failed
        assert breaker.allow()  # immediately probeable again


class TestSupervisorLifecycle:
    def test_solve_and_shutdown_leaves_no_processes(self):
        with Supervisor(2, warm=False, name="t-life") as fabric:
            pids = fabric.worker_pids()
            assert len(pids) == 2
            response = well_formed(fabric.solve(request()))
            assert response.verdict == "unrealizable"
        assert_dead(pids)

    def test_map_preserves_order(self):
        with Supervisor(2, warm=False, name="t-map") as fabric:
            responses = fabric.map([request(), request(engine="nayHorn")])
        assert [r.engine for r in responses] == ["naySL", "nayHorn"]
        assert all(r.verdict == "unrealizable" for r in responses)

    def test_cancelled_job_leaves_no_zombies(self):
        fabric = Supervisor(1, warm=False, name="t-zombie")
        job = fabric.submit(request("hang@*", timeout=5.0))
        doomed = job.worker.pid
        fabric.cancel(job)  # kills the hung worker, spawns a replacement
        replacement = fabric.worker_pids()
        assert replacement and doomed not in replacement
        fabric.shutdown()
        assert_dead([doomed, *replacement])


class TestCrashRecovery:
    def test_crash_is_retried_then_reported_as_error(self):
        board = BreakerBoard(threshold=100)
        fabric = Supervisor(
            1,
            warm=False,
            breakers=board,
            retry=RetryPolicy(max_attempts=2, base_delay_seconds=0.01),
            name="t-crash",
        )
        try:
            response = well_formed(fabric.solve(request("crash@*")))
            assert response.verdict == "error"
            assert "worker" in (response.error or "").lower()
            assert response.solver_stats["retries"] == 1
            assert response.solver_stats["workers_replaced"] >= 2
            # The pool healed: a clean request succeeds on the replacement.
            assert fabric.solve(request()).verdict == "unrealizable"
        finally:
            fabric.shutdown()

    def test_corrupt_reply_is_a_transient_failure(self):
        board = BreakerBoard(threshold=100)
        fabric = Supervisor(
            1,
            warm=False,
            breakers=board,
            retry=RetryPolicy(max_attempts=2, base_delay_seconds=0.01),
            name="t-corrupt",
        )
        try:
            response = well_formed(fabric.solve(request("corrupt@*")))
            assert response.verdict == "error"
            assert response.solver_stats["retries"] == 1
            assert fabric.stats.snapshot()["corrupt_replies"] >= 1
        finally:
            fabric.shutdown()

    def test_deterministic_error_fault_is_never_retried(self):
        fabric = Supervisor(1, warm=False, name="t-det")
        try:
            response = well_formed(fabric.solve(request("error@*")))
            assert response.verdict == "error"
            assert "injected error" in (response.error or "")
            assert "retries" not in response.solver_stats
        finally:
            fabric.shutdown()

    def test_kill9_mid_solve_retries_to_success(self):
        """Acceptance: kill -9 of a busy worker mid-request self-heals."""
        fabric = Supervisor(
            2,
            warm=False,
            breakers=BreakerBoard(threshold=100),
            retry=RetryPolicy(max_attempts=3, base_delay_seconds=0.01),
            name="t-kill9",
        )
        holder = {}
        try:
            thread = threading.Thread(
                target=lambda: holder.update(
                    response=fabric.solve(request("slow@*:1.0"))
                )
            )
            thread.start()
            killed = None
            deadline = time.monotonic() + 5.0
            while killed is None and time.monotonic() < deadline:
                busy = fabric.busy_pids()
                if busy:
                    killed = busy[0]
                    os.kill(killed, signal.SIGKILL)
                else:
                    time.sleep(0.02)
            assert killed is not None, "worker never became busy"
            thread.join(timeout=60.0)
            response = well_formed(holder["response"])
            assert response.verdict == "unrealizable"
            assert response.solver_stats["retries"] >= 1
            assert response.solver_stats["workers_replaced"] >= 1
        finally:
            fabric.shutdown()


class TestTimeouts:
    def test_hung_worker_hits_the_harvest_deadline(self):
        fabric = Supervisor(1, warm=False, name="t-hang")
        try:
            job = fabric.submit(request("hang@*", timeout=5.0))
            with pytest.raises(FabricTimeoutError):
                fabric.harvest(job, timeout=1.0)
            fabric.cancel(job)
            assert fabric.stats.snapshot()["jobs_cancelled"] == 1
            # The replacement worker serves clean requests.
            assert fabric.solve(request()).verdict == "unrealizable"
        finally:
            fabric.shutdown()


class TestBreakersOnTheFabric:
    def test_trip_refuse_and_half_open_recovery(self):
        board = BreakerBoard(threshold=2, cooldown_seconds=0.2)
        fabric = Supervisor(
            1,
            warm=False,
            breakers=board,
            retry=RetryPolicy(max_attempts=1),
            name="t-breaker",
        )
        try:
            for _ in range(2):
                assert fabric.solve(request("crash@*")).verdict == "error"
            assert board.for_engine("naySL").snapshot()["state"] == "open"
            refused = well_formed(fabric.solve(request()))
            assert refused.verdict == "error"
            assert "circuit breaker open" in (refused.error or "")
            assert refused.details["breaker"]["state"] == "open"
            time.sleep(0.25)
            probe = fabric.solve(request())  # the half-open probe
            assert probe.verdict == "unrealizable"
            assert board.for_engine("naySL").snapshot()["state"] == "closed"
            assert board.trips_total() == 1
        finally:
            fabric.shutdown()


class TestAmbientFabric:
    def test_install_get_shutdown(self):
        assert get_fabric() is None
        fabric = Supervisor(1, warm=False, name="t-ambient")
        pids = fabric.worker_pids()
        install_fabric(fabric)
        try:
            assert get_fabric() is fabric
        finally:
            shutdown_fabric()
        assert get_fabric() is None
        assert_dead(pids)


class TestChaosSweep:
    def test_chaos_suite_end_to_end(self):
        """Acceptance: >= 20 requests across >= 4 fault kinds (plus a real
        kill -9 mid-solve), every response well-formed, the pool self-heals
        and tripped breakers recover through half-open probes."""
        suite = perf.SUITES["chaos"]
        report = perf.run_suite(suite, repetitions=1, quick=True)
        results = perf.check_gates(suite, report)
        failed = [result.describe() for result in results if not result.passed]
        assert len(results) == len(suite.gates) and not failed, (
            failed,
            report["scenarios"],
        )
        summary = report["summary"]
        assert summary["retries"] >= 1
        assert summary["workers_replaced"] >= 1
        assert summary["breaker_trips"] >= 1
        names = {row["name"] for row in report["scenarios"]}
        assert {"crash", "hang", "corrupt", "kill9", "breaker", "self-heal"} <= names
        # The artifact renders and is JSON-serialisable as produced.
        perf.render(suite, report, results)
        import json

        json.dumps(report, sort_keys=True, default=str)
