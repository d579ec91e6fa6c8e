"""The experiment harness: regenerates every table and figure of §8.

Every cell of Tables 1/2 and Figs. 3/5 is one independent solve — an
engine, a benchmark and an example set — so each experiment builds a list
of :class:`~repro.api.wire.SolveRequest` values and runs them with
:meth:`repro.api.facade.Solver.solve_batch`: in-process for ``workers=1``,
on an ephemeral supervised solve fabric
(:class:`~repro.engine.supervisor.Supervisor`) otherwise — the same path as
``repro-nay batch``.  Rows come back in request order whatever the worker
count; a cell whose worker crashes on every attempt reports the fabric's
``error`` row.  Figs. 2/4 time a raw semi-linear-set solve
(:func:`repro.unreal.lia.solve_lia_gfa`), not an engine, and always run
serially in-process.

The command line is ``python -m repro.experiments <experiment> [--full]
[--workers N] [--out results/]``; ``--out`` appends the rows as JSONL
(:class:`~repro.engine.results.ResultsStore`), and the pytest benchmarks in
``benchmarks/`` call the same functions.  Engines are resolved through
:mod:`repro.engine.registry`, so adding a tool to every table is a one-line
change to :data:`ENGINE_ORDER`.

Experiments (see DESIGN.md's per-experiment index):

* :func:`table1` — LimitedPlus + LimitedIf: per-benchmark verdicts and times
  for naySL, nayHorn and nope;
* :func:`table2` — LimitedConst: the same, for the appendix table;
* :func:`fig2`   — naySL semi-linear-set solving time vs |N| for |E| = 1..4;
* :func:`fig3`   — nayHorn time vs |E| for |N| = 1..3;
* :func:`fig5`   — nope time vs |E| for |N| = 1..3;
* :func:`fig4`   — stratification on/off scatter for naySL.

Absolute times differ from the paper (different hardware, CVC4/Spacer
replaced by the in-repo solvers); the comparisons of interest are the shapes:
which tool solves which family, exponential growth in |N| and 2^|E|, and the
stratification speedup.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.facade import Solver
from repro.api.wire import SolveRequest
from repro.engine.results import ResultsStore
from repro.suites import benchmarks_by_suite
from repro.suites.base import Benchmark
from repro.suites.scaling import example_set, scaling_benchmark
from repro.sygus import print_sygus

#: The tools of the §8 comparison, in table column order.  Every experiment
#: resolves these through the engine registry; registering a new engine and
#: adding its name here is all it takes to grow the tables.
ENGINE_ORDER = ("naySL", "nayHorn", "nope")

#: Benchmarks used when ``quick=True`` (the default for pytest benchmarks):
#: a representative subset that keeps the harness under a few minutes.
QUICK_TABLE1 = [
    "plane1",
    "plane2",
    "guard1",
    "guard3",
    "search_2",
    "max2",
    "guard2",
    "sum_2_5",
]
QUICK_TABLE2 = [
    "array_search_2",
    "array_search_4",
    "array_sum_2_5",
    "array_sum_3_15",
    "mpg_example1",
    "mpg_guard1",
    "mpg_ite1",
    "mpg_plane2",
]


@dataclass
class ExperimentRow:
    """One row of a results table."""

    suite: str
    benchmark: str
    tool: str
    verdict: str
    seconds: float
    examples: int
    paper_seconds: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "benchmark": self.benchmark,
            "tool": self.tool,
            "verdict": self.verdict,
            "seconds": round(self.seconds, 4),
            "examples": self.examples,
            "paper_seconds": self.paper_seconds,
            **self.extra,
        }

    @staticmethod
    def from_dict(row: Dict[str, object]) -> "ExperimentRow":
        known = {"suite", "benchmark", "tool", "verdict", "seconds", "examples", "paper_seconds"}
        return ExperimentRow(
            suite=str(row.get("suite", "")),
            benchmark=str(row.get("benchmark", "")),
            tool=str(row.get("tool", "")),
            verdict=str(row.get("verdict", "")),
            seconds=float(row.get("seconds", 0.0)),
            examples=int(row.get("examples", 0)),
            paper_seconds=row.get("paper_seconds"),  # type: ignore[arg-type]
            extra={key: value for key, value in row.items() if key not in known},
        )


def _select(benchmarks: Sequence[Benchmark], names: Optional[Sequence[str]]) -> List[Benchmark]:
    if names is None:
        return list(benchmarks)
    by_name = {benchmark.name: benchmark for benchmark in benchmarks}
    return [by_name[name] for name in names if name in by_name]


def _persist(
    experiment: str, rows: List[Dict[str, object]], workers: int, out: Optional[str]
) -> None:
    if out:
        ResultsStore(out).append(experiment, rows, meta={"workers": workers})


#: One solve cell: the benchmark it measures, its request, the size of the
#: example set it starts from, and the row annotations added in the parent
#: (never sent as request tags, which feed store fingerprints and the fault
#: channel).  The size stands in for the response's ``num_examples`` only
#: when that reads 0: an ``error`` or hard-guard ``timeout`` response never
#: resolved its examples.  (A benchmark without witness examples starts
#: from none; the facade solves it by CEGIS.)
Cell = Tuple[Benchmark, SolveRequest, int, Dict[str, object]]


def _run_cells(
    experiment: str, cells: Sequence[Cell], workers: int, out: Optional[str]
) -> List[Dict[str, object]]:
    """Solve every cell on ``Solver.solve_batch`` and build its row."""
    responses = Solver().solve_batch(
        [request for _, request, _, _ in cells], workers=workers
    )
    rows = [
        {
            "suite": benchmark.suite,
            "benchmark": benchmark.name,
            "tool": response.engine,
            "verdict": response.verdict,
            "seconds": response.elapsed_seconds,
            "examples": response.num_examples or examples,
            "paper_seconds": benchmark.paper.get(response.engine),
            **extra,
        }
        for (benchmark, _, examples, extra), response in zip(cells, responses)
    ]
    _persist(experiment, rows, workers, out)
    return rows


# ---------------------------------------------------------------------------
# Tables 1 and 2
# ---------------------------------------------------------------------------


def _table_cells(benchmarks: Sequence[Benchmark], timeout: float) -> List[Cell]:
    """The (benchmark x engine) grid, benchmark-major like the paper's tables.

    Keeping the per-benchmark cells adjacent also keeps the grammar cache hot:
    all three engines normalize the same grammar back to back.  ``suite`` is
    part of every request because some names (``guard1``, ``search_2``, ...)
    exist in more than one suite.
    """
    return [
        (
            benchmark,
            SolveRequest(
                kind="check",
                engine=engine,
                benchmark=benchmark.name,
                suite=benchmark.suite,
                seed=0,
                timeout_seconds=timeout,
            ),
            len(benchmark.witness_examples or ()),
            {},
        )
        for benchmark in benchmarks
        for engine in ENGINE_ORDER
    ]


def table1(
    quick: bool = True,
    timeout: float = 60.0,
    workers: int = 1,
    out: Optional[str] = None,
) -> List[ExperimentRow]:
    """Table 1: LimitedPlus and LimitedIf, all three tools."""
    suites = benchmarks_by_suite()
    benchmarks = suites["LimitedPlus"] + suites["LimitedIf"]
    if quick:
        benchmarks = _select(benchmarks, QUICK_TABLE1)
    else:
        benchmarks = [b for b in benchmarks if b.witness_examples is not None]
    rows = _run_cells("table1", _table_cells(benchmarks, timeout), workers, out)
    return [ExperimentRow.from_dict(row) for row in rows]


def table2(
    quick: bool = True,
    timeout: float = 60.0,
    workers: int = 1,
    out: Optional[str] = None,
) -> List[ExperimentRow]:
    """Table 2 (Appendix A): LimitedConst, all three tools."""
    benchmarks = benchmarks_by_suite()["LimitedConst"]
    if quick:
        benchmarks = _select(benchmarks, QUICK_TABLE2)
    rows = _run_cells("table2", _table_cells(benchmarks, timeout), workers, out)
    return [ExperimentRow.from_dict(row) for row in rows]


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def _gfa_point(size: int, count: int, stratify: bool = True) -> Dict[str, object]:
    """One raw semi-linear-set solve (a Fig. 2 / Fig. 4 measurement)."""
    from repro.unreal.lia import solve_lia_gfa

    benchmark = scaling_benchmark(size)
    examples = example_set(count)
    start = time.monotonic()
    solution = solve_lia_gfa(benchmark.problem.grammar, examples, stratify=stratify)
    elapsed = time.monotonic() - start
    return {
        "benchmark": benchmark.name,
        "nonterminals": benchmark.problem.grammar.num_nonterminals,
        "examples": len(examples),
        "seconds": round(elapsed, 4),
        "semilinear_size": solution.start_value.size,
        "stratify": stratify,
    }


def fig2(
    sizes: Optional[Sequence[int]] = None,
    example_counts: Sequence[int] = (1, 2, 3, 4),
    out: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Fig. 2: time to compute the semi-linear set vs |N|, one series per |E|.

    The sweep revisits each grammar size once per example count; the grammar
    cache (:mod:`repro.engine.cache`) guarantees each scaling grammar is
    normalized exactly once per size, not once per (size, count) point.
    """
    if sizes is None:
        sizes = [3, 5, 8, 11, 14]
    rows = [_gfa_point(size, count) for count in example_counts for size in sizes]
    _persist("fig2", rows, 1, out)
    return [
        {
            "examples": row["examples"],
            "nonterminals": row["nonterminals"],
            "seconds": row["seconds"],
            "semilinear_size": row["semilinear_size"],
        }
        for row in rows
    ]


def _series(
    experiment: str,
    engine: str,
    example_counts: Sequence[int],
    sizes: Sequence[int],
    workers: int,
    out: Optional[str],
) -> List[Dict[str, object]]:
    """One engine over the scaling grammars: a |E| series per |N|.

    Scaling sizes have no suite name :func:`repro.suites.get_benchmark` can
    resolve, so each request carries its problem inline as SyGuS-IF.
    """
    cells: List[Cell] = []
    for size in sizes:
        benchmark = scaling_benchmark(size)
        sl = print_sygus(benchmark.problem)
        for count in example_counts:
            examples = example_set(count)
            request = SolveRequest(
                kind="check",
                engine=engine,
                sl=sl,
                examples=list(examples.as_dicts()),
                seed=0,
            )
            cells.append((benchmark, request, len(examples), {"nonterminals": size}))
    rows = _run_cells(experiment, cells, workers, out)
    return [
        {
            "nonterminals": row["nonterminals"],
            "examples": row["examples"],
            "seconds": row["seconds"],
            "verdict": row["verdict"],
        }
        for row in rows
    ]


def fig3(
    example_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    sizes: Sequence[int] = (3, 4, 5),
    workers: int = 1,
    out: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Fig. 3: nayHorn running time vs |E|, one series per |N|."""
    return _series("fig3", "nayHorn", example_counts, sizes, workers, out)


def fig5(
    example_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    sizes: Sequence[int] = (3, 4, 5),
    workers: int = 1,
    out: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Fig. 5: nope running time vs |E|, one series per |N|."""
    return _series("fig5", "nope", example_counts, sizes, workers, out)


def fig4(
    sizes: Optional[Sequence[int]] = None,
    example_count: int = 2,
    out: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Fig. 4: naySL solve time with vs without grammar stratification."""
    if sizes is None:
        sizes = [5, 8, 11, 14, 17]
    rows = [
        _gfa_point(size, example_count, stratify)
        for size in sizes
        for stratify in (True, False)
    ]
    _persist("fig4", rows, 1, out)
    points: List[Dict[str, object]] = []
    for stratified, unstratified in zip(rows[0::2], rows[1::2]):
        with_stratification = float(stratified["seconds"])  # type: ignore[arg-type]
        without_stratification = float(unstratified["seconds"])  # type: ignore[arg-type]
        points.append(
            {
                "nonterminals": stratified["nonterminals"],
                "stratified_seconds": round(with_stratification, 4),
                "unstratified_seconds": round(without_stratification, 4),
                "speedup": round(
                    without_stratification / max(with_stratification, 1e-9), 2
                ),
            }
        )
    return points


# ---------------------------------------------------------------------------
# Rendering and CLI
# ---------------------------------------------------------------------------


def render_rows(rows: Sequence[Dict[str, object]] | Sequence[ExperimentRow]) -> str:
    """Render rows as an aligned text table."""
    dictionaries = [
        row.as_dict() if isinstance(row, ExperimentRow) else dict(row) for row in rows
    ]
    if not dictionaries:
        return "(no rows)"
    columns = list(dictionaries[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in dictionaries))
        for column in columns
    }
    lines = [
        "  ".join(str(column).ljust(widths[column]) for column in columns),
        "  ".join("-" * widths[column] for column in columns),
    ]
    for row in dictionaries:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


EXPERIMENTS = {
    "table1": lambda quick, **kw: table1(quick=quick, **kw),
    "table2": lambda quick, **kw: table2(quick=quick, **kw),
    # Figs. 2/4 always run in-process: ``workers`` does not apply to them.
    "fig2": lambda quick, workers=1, out=None: fig2(sizes=[3, 5, 8] if quick else None, out=out),
    "fig3": lambda quick, **kw: fig3(
        example_counts=(1, 2, 3) if quick else (1, 2, 3, 4, 5, 6), **kw
    ),
    "fig4": lambda quick, workers=1, out=None: fig4(sizes=[5, 8, 11] if quick else None, out=out),
    "fig5": lambda quick, **kw: fig5(
        example_counts=(1, 2, 3) if quick else (1, 2, 3, 4, 5, 6), **kw
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the paper's experiments")
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--full", action="store_true", help="run the full (slow) configuration"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="solve-fabric size (1 = in-process)"
    )
    parser.add_argument(
        "--out", default=None, help="directory to persist JSONL results under"
    )
    arguments = parser.parse_args(argv)
    names = sorted(EXPERIMENTS) if arguments.experiment == "all" else [arguments.experiment]
    for name in names:
        print(f"== {name} ==")
        rows = EXPERIMENTS[name](
            not arguments.full, workers=arguments.workers, out=arguments.out
        )
        print(render_rows(rows))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
