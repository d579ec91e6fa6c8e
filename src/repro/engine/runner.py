"""The batched experiment runner: tasks in, deterministic rows out.

Every table and figure of §8 is a list of independent measurements.  The
runner makes that explicit: an experiment is a declarative list of
:class:`Task` values — *references* to an engine (by registry name), a
benchmark (by suite name or scaling size) and an example set (witness or
``x = 1..k``) — executed either serially or on a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Design points:

* **Tasks are plain data.**  Workers re-resolve the engine through
  :mod:`repro.engine.registry` and the benchmark through
  :mod:`repro.suites`, so nothing heavyweight crosses the process boundary
  and every worker warms its own :mod:`repro.engine.cache`.
* **One execution core.**  ``check``/``solve`` tasks delegate the actual
  solving to :func:`repro.api.facade.run_engine`, the same code path behind
  the CLI, ``repro-nay serve`` and the portfolio.  The pool plumbing
  (:func:`pool_map`) is the runner's own: the api's ``solve_batch`` runs on
  the supervised solve fabric (:mod:`repro.engine.supervisor`) instead.
* **Deterministic ordering.**  Rows come back in task order regardless of
  worker count or completion order; ``workers=1`` and ``workers=N`` produce
  identical stable fields (see :mod:`repro.engine.results`).
* **Two-sided timeout policy.**  A run that finishes past its deadline but
  with a definitive two-sided verdict (``UNREALIZABLE`` *or* ``REALIZABLE``)
  keeps that verdict — the old harness back-dated late ``REALIZABLE``
  answers to ``TIMEOUT``, losing information.  Only ``UNKNOWN`` and
  resource-limit outcomes are reported as ``TIMEOUT``.
* **Wall-clock guards.**  Engines receive the task timeout as their soft
  deadline; on top of that the pool waits at most
  ``timeout * HARD_TIMEOUT_FACTOR + HARD_TIMEOUT_MARGIN`` per task and
  records a ``TIMEOUT`` row if a worker is truly stuck.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.engine.results import ResultsStore
from repro.semantics.examples import ExampleSet
from repro.suites.base import Benchmark
from repro.unreal.result import Verdict

#: Hard wall-clock guard: how long past a task's soft timeout the parent
#: waits for a worker before writing the row off as TIMEOUT.
HARD_TIMEOUT_FACTOR = 3.0
HARD_TIMEOUT_MARGIN = 30.0

#: How long a terminated worker gets to honour SIGTERM before SIGKILL.
SHUTDOWN_GRACE_SECONDS = 1.0


def hard_guard(timeout: Optional[float]) -> Optional[float]:
    """The hard wall-clock budget for a soft timeout (None = unbounded).

    One policy for every pooled surface: the experiment runner, the api's
    ``solve_batch`` and the portfolio racer all wait this long before
    writing a worker off as stuck.
    """
    if timeout is None:
        return None
    return timeout * HARD_TIMEOUT_FACTOR + HARD_TIMEOUT_MARGIN


@dataclass
class Task:
    """One measurement: an engine (or raw GFA solve) on one benchmark.

    Benchmarks are referenced by name so tasks stay picklable and cheap:
    ``scaling_size`` selects :func:`repro.suites.scaling.scaling_benchmark`,
    otherwise ``benchmark``/``suite`` go through
    :func:`repro.suites.get_benchmark`.  ``example_count`` selects the
    ``x = 1..k`` scaling example set; ``None`` means the benchmark's recorded
    witness examples.
    """

    kind: str = "check"  # "check" | "solve" | "gfa"
    engine: Optional[str] = None
    knobs: Dict[str, object] = field(default_factory=dict)
    benchmark: Optional[str] = None
    suite: Optional[str] = None
    scaling_size: Optional[int] = None
    example_count: Optional[int] = None
    timeout: Optional[float] = None
    stratify: bool = True  # only for kind="gfa"
    tags: Dict[str, object] = field(default_factory=dict)


def resolve_benchmark(task: Task) -> Benchmark:
    if task.scaling_size is not None:
        from repro.suites.scaling import scaling_benchmark

        return scaling_benchmark(task.scaling_size)
    if task.benchmark is None:
        raise ValueError("task references no benchmark")
    from repro.suites import get_benchmark

    return get_benchmark(task.benchmark, task.suite)


def resolve_examples(task: Task, benchmark: Benchmark) -> ExampleSet:
    if task.example_count is not None:
        from repro.suites.scaling import example_set

        return example_set(task.example_count)
    return benchmark.witness_examples or ExampleSet()


def apply_timeout_policy(
    verdict: Verdict, elapsed: float, timeout: Optional[float]
) -> Verdict:
    """Late two-sided verdicts survive; only undetermined outcomes time out."""
    if timeout is not None and elapsed > timeout:
        if verdict not in (Verdict.UNREALIZABLE, Verdict.REALIZABLE):
            return Verdict.TIMEOUT
    return verdict


def execute_task(task: Task) -> Dict[str, object]:
    """Run one task to a result row (also the worker entry point).

    ``check``/``solve`` tasks delegate the actual solving to the api facade's
    :func:`repro.api.facade.run_engine` — the one place engines are
    instantiated, timed and subjected to the timeout policy — and only map
    the wire response back onto the experiment row shape.
    """
    benchmark = resolve_benchmark(task)
    examples = resolve_examples(task, benchmark)

    if task.kind == "gfa":
        return _execute_gfa(task, benchmark, examples)

    from repro.api.facade import run_engine

    response = run_engine(
        task.engine or "naySL",
        task.kind,
        benchmark.problem,
        examples,
        knobs=task.knobs,
        timeout=task.timeout,
    )
    return {
        "suite": benchmark.suite,
        "benchmark": benchmark.name,
        "tool": response.engine,
        "verdict": response.verdict,
        "seconds": response.elapsed_seconds,
        "examples": response.num_examples,
        "paper_seconds": benchmark.paper.get(response.engine),
        **task.tags,
    }


def _execute_gfa(
    task: Task, benchmark: Benchmark, examples: ExampleSet
) -> Dict[str, object]:
    """A raw semi-linear-set solve (the Fig. 2 / Fig. 4 measurement)."""
    from repro.unreal.lia import solve_lia_gfa

    start = time.monotonic()
    solution = solve_lia_gfa(
        benchmark.problem.grammar, examples, stratify=task.stratify
    )
    elapsed = time.monotonic() - start
    return {
        "benchmark": benchmark.name,
        "nonterminals": benchmark.problem.grammar.num_nonterminals,
        "examples": len(examples),
        "seconds": round(elapsed, 4),
        "semilinear_size": solution.start_value.size,
        "stratify": task.stratify,
        **task.tags,
    }


def _timeout_row(task: Task) -> Dict[str, object]:
    """The row recorded when a worker exceeds the hard wall-clock guard.

    Mirrors the shape the task's kind would have produced so downstream
    post-processing (and stable-field comparisons) see homogeneous rows.
    """
    benchmark = resolve_benchmark(task)
    examples = resolve_examples(task, benchmark)
    if task.kind == "gfa":
        return {
            "benchmark": benchmark.name,
            "nonterminals": benchmark.problem.grammar.num_nonterminals,
            "examples": len(examples),
            "seconds": float(task.timeout or 0.0),
            "semilinear_size": 0,
            "stratify": task.stratify,
            "verdict": Verdict.TIMEOUT.value,
            **task.tags,
        }
    return {
        "suite": benchmark.suite,
        "benchmark": benchmark.name,
        "tool": task.engine or "gfa",
        "verdict": Verdict.TIMEOUT.value,
        "seconds": float(task.timeout or 0.0),
        "examples": len(examples),
        "paper_seconds": benchmark.paper.get(task.engine or ""),
        **task.tags,
    }


class ExperimentRunner:
    """Execute a task list serially or on a process pool.

    ``workers=1`` (the default) runs in-process — fully deterministic and
    the best mode for measurement runs.  ``workers>1`` fans tasks out to a
    ``ProcessPoolExecutor`` while preserving task ordering of the returned
    rows.  ``out`` names a directory to persist rows to as JSONL (see
    :class:`~repro.engine.results.ResultsStore`).
    """

    def __init__(
        self,
        workers: int = 1,
        timeout: Optional[float] = None,
        out: Optional[str] = None,
    ):
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.store = ResultsStore(out) if out else None

    def run(
        self, tasks: Sequence[Task], experiment: str = "adhoc"
    ) -> List[Dict[str, object]]:
        # Copy tasks when filling in the default timeout so a task list can
        # be reused across runners with different timeouts.
        tasks = [
            replace(task, timeout=self.timeout) if task.timeout is None else task
            for task in tasks
        ]
        if self.workers == 1 or len(tasks) <= 1:
            rows = [execute_task(task) for task in tasks]
        else:
            rows = self._run_pool(tasks)
        if self.store is not None:
            self.store.append(experiment, rows, meta={"workers": self.workers})
        return rows

    def _run_pool(self, tasks: List[Task]) -> List[Dict[str, object]]:
        rows = pool_map(
            execute_task,
            tasks,
            workers=self.workers,
            guard_for=lambda task: hard_guard(task.timeout),
            fallback_for=_timeout_row,
        )
        return [row for row in rows if row is not None]


Item = TypeVar("Item")
Result = TypeVar("Result")


def shutdown_pool_now(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without joining stuck or no-longer-wanted workers.

    ``shutdown(wait=True)`` would join a worker that blew through its hard
    guard forever; instead cancel everything that has not started and
    terminate the worker processes outright.  SIGTERM alone is not enough —
    a worker wedged in native code (or one that installed a handler)
    ignores it and would linger as a zombie — so after
    :data:`SHUTDOWN_GRACE_SECONDS` any survivor is SIGKILLed, and every
    process is joined so the parent reaps it.
    """
    # Snapshot the worker processes first: shutdown() drops the pool's
    # reference to them even with wait=False.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()
    deadline = time.monotonic() + SHUTDOWN_GRACE_SECONDS
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))
    for process in processes:
        if process.is_alive():
            process.kill()
    for process in processes:
        process.join(5.0)


def pool_map(
    fn: Callable[[Item], Result],
    items: Sequence[Item],
    *,
    workers: int,
    guard_for: Optional[Callable[[Item], Optional[float]]] = None,
    fallback_for: Optional[Callable[[Item], Result]] = None,
) -> List[Optional[Result]]:
    """Ordered parallel map with the runner's hard wall-clock discipline.

    Results come back in item order.  ``guard_for`` gives each item's hard
    wall-clock budget; an item whose worker exceeds it is written off with
    ``fallback_for(item)`` (or ``None``) and the stuck worker is terminated
    during teardown.  A crashed worker no longer poisons the batch: the
    broken pool is torn down, a fresh one takes over the uncollected items,
    and the item that crashed gets one retry before it too is written off
    with its fallback.  Both ``fn`` and the items must be picklable; the
    callbacks run only in the parent.  Shared by the experiment runner (the
    api's ``solve_batch`` runs on the solve fabric instead).
    """
    from repro.testing.faults import mark_worker_process

    results: List[Optional[Result]] = [None] * len(items)
    max_workers = min(workers, len(items), (os.cpu_count() or 2))
    pool = ProcessPoolExecutor(
        max_workers=max_workers, initializer=mark_worker_process
    )
    stuck = False
    broke = False
    resubmit: List[int] = []
    try:
        futures: Dict[int, Future] = {
            index: pool.submit(fn, item) for index, item in enumerate(items)
        }
        for index, item in enumerate(items):
            guard = guard_for(item) if guard_for is not None else None
            try:
                # On a broken pool every unfinished future fails immediately
                # (no guard-long stall); already-finished ones still yield
                # their results, so a crash only forfeits the in-flight work.
                results[index] = futures[index].result(timeout=guard)
            except FutureTimeoutError:
                futures[index].cancel()
                stuck = True
                results[index] = (
                    fallback_for(item) if fallback_for is not None else None
                )
            except BrokenProcessPool:
                broke = True
                resubmit.append(index)
    finally:
        if stuck or broke:
            # Every finished item's result is already collected; only the
            # stuck (or crashed-with) workers are abandoned.
            shutdown_pool_now(pool)
        else:
            pool.shutdown(wait=True)
    # Recovery pass: a broken pool cannot say *which* item crashed it, so
    # each uncollected item reruns on its own single-worker pool — the
    # innocents complete, and a crasher breaks only its private pool and is
    # written off with its fallback.
    for index in resubmit:
        item = items[index]
        solo = ProcessPoolExecutor(max_workers=1, initializer=mark_worker_process)
        solo_stuck = False
        try:
            future = solo.submit(fn, item)
            guard = guard_for(item) if guard_for is not None else None
            try:
                results[index] = future.result(timeout=guard)
            except (FutureTimeoutError, BrokenProcessPool) as failure:
                solo_stuck = isinstance(failure, FutureTimeoutError)
                results[index] = (
                    fallback_for(item) if fallback_for is not None else None
                )
        finally:
            if solo_stuck:
                shutdown_pool_now(solo)
            else:
                solo.shutdown(wait=True)
    return results
