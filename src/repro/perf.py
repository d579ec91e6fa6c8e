"""The repeatable perf harnesses behind ``repro-nay bench``.

Six suites live here, selected with ``--suite``.  Each is a :class:`Suite`
declaration of one shape: the artifact it writes, its schema version, a
``run(repetitions, quick)`` that returns its rows and summary, the columns
the shared renderer prints, and its :class:`Gate` bounds.  One timer
(:func:`timed`), one report envelope (:func:`run_suite`), one renderer
(:func:`render`) and one gate checker (:func:`check_gates`) serve all six,
and ``repro-nay bench`` exits non-zero when a gate on the report it just
produced fails (``--quick`` runs are held to the quick bounds, full runs —
the ones that get committed — to the full bounds).

* ``fixpoint`` (default) — every workload measured for both fixpoint
  strategies (``worklist`` vs ``dense``, see :mod:`repro.gfa.fixpoint`) in
  the same run: Kleene chains, the fig2 exact-Newton and fig3 abstract
  sweeps, semi-linear domain micro-operations, end-to-end ``Solver.solve``
  and the ``nayInt``/``nayFin``/``staged`` engines on a fixed slate.
* ``logic`` — recorded query streams of real workloads (the fig2
  exact-Newton sweep, Table 1/2 benchmark checks, seeded random QF-LIA)
  replayed through the incremental DPLL(T) core and the preserved
  pre-rewrite baseline (:mod:`repro.logic.reference`) in the same run.
* ``domains`` — the columnar evaluation core over an example-count sweep,
  each workload through up to three legs: ``reference`` (the frozen
  pre-columnar twins), ``python`` and ``numpy`` (the columnar code on
  either :mod:`repro.utils.columns` backend; absent without numpy).
* ``grammar`` — observational-equivalence pruning on fig2/fig3-style solves
  and the memoized enumerator raced against the frozen reference one.
* ``chaos`` — the resilience sweep over the supervised solve fabric
  (:mod:`repro.engine.supervisor`): fault-injected requests (crash, hang,
  slow, corrupt, oom, error, plus a real ``kill -9`` of a busy worker)
  that must all come back as well-formed responses.
* ``serve`` — concurrent clients against the real HTTP server, fabric and
  a fresh persistent result store: cold, warm-repeat and mixed streams.

Every suite that compares two implementations asserts they agree before
timing, and the process-wide memo tables are cleared before every timed
repetition so no leg warms the caches for another.  Field-by-field schemas:
``docs/bench-artifacts.md``.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import clear_cache, runtime_cache_stats
from repro.engine.registry import create_engine
from repro.gfa.equations import EquationSystem, Monomial, Polynomial
from repro.gfa.fixpoint import DENSE, STRATEGIES, WORKLIST, FixpointStats
from repro.gfa.kleene import solve_kleene
from repro.gfa.semiring import BooleanSemiring
from repro.domains.reference import ReferenceIntervalDomain
from repro.domains.registry import create_domain
from repro.domains.semilinear import LinearSet, SemiLinearSet
from repro.grammar import alphabet as alph
from repro.grammar.terms import Term
from repro.logic.formulas import Formula
from repro.logic.reference import reference_check_sat
from repro.logic.solver import check_sat, record_queries, runtime_counters
from repro.semantics.evaluator import EvalMemo, evaluate
from repro.semantics.reference import reference_evaluate
from repro.unreal.approximate import check_examples_abstract, solve_abstract_gfa
from repro.unreal.lia import solve_lia_gfa
from repro.suites import get_benchmark
from repro.suites.scaling import (
    chain_grammar,
    example_set,
    large_example_set,
    scaling_benchmark,
)
from repro.utils.columns import NUMPY_OPS, use_backend
from repro.utils.errors import ReproError
from repro.utils.vectors import IntVector

Report = Dict[str, object]


# ---------------------------------------------------------------------------
# The harness: suites, gates, timer, envelope, renderer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """A bound on one report value.

    ``key`` names a ``summary`` entry and ``op`` is ``">="``, ``"<="`` or
    ``"=="``.  ``full`` bounds full runs (the committed artifacts) and
    ``quick`` bounds ``--quick`` runs; ``None`` leaves that kind of run
    ungated.  A ``relative`` gate instead reads the dotted row field
    ``key`` of every row that the committed artifact also has, and bounds
    it by ``bound x`` the committed row's value.
    """

    key: str
    op: str
    full: object
    quick: object
    relative: bool = False


@dataclass(frozen=True)
class GateResult:
    """The outcome of one gate (or, for a relative gate, one row of it)."""

    suite: str
    key: str
    op: str
    bound: object
    value: object
    passed: bool
    note: str = ""

    def describe(self) -> str:
        value = "missing" if self.value is None else _format_value(self.value)
        note = f" ({self.note})" if self.note else ""
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{self.suite}: {self.key} {self.op} {_format_value(self.bound)}"
            f"{note}: {value} {verdict}"
        )


@dataclass(frozen=True)
class Suite:
    """One ``repro-nay bench`` suite.

    ``run(repetitions, quick)`` returns the report body: the rows under
    ``rows_key``, a ``summary`` dict, and any suite-specific extras.
    ``columns`` are ``(header, dotted row path, format spec)`` triples.
    """

    name: str
    artifact: str
    schema_version: int
    run: Callable[[int, bool], Report]
    columns: Tuple[Tuple[str, str, str], ...]
    gates: Tuple[Gate, ...] = ()
    rows_key: str = "workloads"


def timed(run: Callable[[], object], repetitions: int) -> Tuple[List[float], object]:
    """Wall seconds of ``repetitions`` calls of ``run``, each from cold
    process-wide caches, plus the last call's return value."""
    seconds: List[float] = []
    result: object = None
    for _ in range(repetitions):
        clear_cache()
        started = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - started)
    return seconds, result


def timing_cell(
    seconds: Sequence[float], items: Optional[int] = None, rate: str = ""
) -> Dict[str, object]:
    """Median/min of a timed leg; ``rate`` names an ``items / median`` field."""
    median = statistics.median(seconds)
    cell: Dict[str, object] = {
        "median_seconds": median,
        "min_seconds": min(seconds),
        "repetitions": len(seconds),
    }
    if rate:
        cell[rate] = (items / median) if median > 0 else None
    return cell


def run_suite(suite: Suite, repetitions: int = 3, quick: bool = False) -> Report:
    """Run ``suite`` and wrap its rows and summary in the shared envelope."""
    body = suite.run(repetitions, quick)
    return {
        "schema_version": suite.schema_version,
        "suite": suite.name,
        "created_unix": int(time.time()),
        "repetitions": repetitions,
        "quick": quick,
        **body,
    }


def _lookup(row: object, path: str) -> object:
    for part in path.split("."):
        if not isinstance(row, dict):
            return None
        row = row.get(part)
    return row


def _holds(value: object, op: str, bound: object) -> bool:
    if op == "==":
        return value == bound
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False  # missing, None or non-numeric: the gate cannot hold
    return value >= bound if op == ">=" else value <= bound


def load_committed(suite: Suite) -> Optional[Report]:
    """The committed artifact a relative gate compares against, if any."""
    if not any(gate.relative for gate in suite.gates):
        return None
    try:
        return json.loads(Path(suite.artifact).read_text())
    except (OSError, ValueError):
        return None


def check_gates(
    suite: Suite, report: Report, committed: Optional[Report] = None
) -> List[GateResult]:
    """Every gate of ``suite`` on ``report``, at the bounds its run kind
    (``report["quick"]``) selects; a missing value fails by name."""
    results: List[GateResult] = []
    summary = report.get("summary") or {}
    for gate in suite.gates:
        bound = gate.quick if report.get("quick") else gate.full
        if bound is None:
            continue
        if not gate.relative:
            value = summary.get(gate.key)
            results.append(
                GateResult(
                    suite.name, gate.key, gate.op, bound, value,
                    _holds(value, gate.op, bound),
                )
            )
            continue
        if committed is None:
            results.append(
                GateResult(
                    suite.name, gate.key, gate.op, bound, None, False,
                    f"x the committed {suite.artifact}, which could not be read",
                )
            )
            continue
        baseline = {row["name"]: row for row in committed.get(suite.rows_key, [])}
        for row in report.get(suite.rows_key, []):
            base = baseline.get(row["name"])
            old = _lookup(base, gate.key)
            new = _lookup(row, gate.key)
            if base is None or not old or not new:
                continue  # a quick-only row, or nothing to compare
            limit = bound * old
            results.append(
                GateResult(
                    suite.name, f"{gate.key}[{row['name']}]", gate.op, limit,
                    new, _holds(new, gate.op, limit),
                    f"{bound} x committed {_format_value(old)}",
                )
            )
    return results


def _format_value(value: object, spec: str = "") -> str:
    if value is None or isinstance(value, (dict, list)):
        return "-"
    if isinstance(value, float) and not spec:
        spec = ".2f"
    return format(value, spec)


def render(suite: Suite, report: Report, results: Sequence[GateResult] = ()) -> str:
    """Rows as a table, then the summary, then every gate with PASS/FAIL."""
    table = [[header for header, _, _ in suite.columns]]
    for row in report[suite.rows_key]:
        table.append(
            [_format_value(_lookup(row, path), spec) for _, path, spec in suite.columns]
        )
    widths = [max(len(line[index]) for line in table) for index in range(len(table[0]))]
    lines = [
        " ".join(
            cell.ljust(width) if index == 0 else cell.rjust(width)
            for index, (cell, width) in enumerate(zip(line, widths))
        )
        for line in table
    ]
    for key, value in sorted(report["summary"].items()):
        lines.append(f"  {key}: {_format_value(value)}")
    for result in results:
        lines.append(f"  gate {result.describe()}")
    return "\n".join(lines)


def write_report(report: Report, path: str | Path) -> Path:
    target = Path(path)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return target


# ---------------------------------------------------------------------------
# fixpoint: worklist vs dense (BENCH_fixpoint.json)
# ---------------------------------------------------------------------------


def chain_boolean_system(length: int) -> EquationSystem:
    """``X_0 = X_1, ..., X_{n-1} = X_n, X_n = 1`` plus a self-loop on X_0.

    A dense solver needs ~n rounds of n evaluations to push ``true`` down the
    chain; a worklist solver needs ~2n evaluations total.
    """
    equations = {}
    for index in range(length):
        equations[f"X{index}"] = Polynomial((Monomial(True, (f"X{index + 1}",)),))
    equations[f"X{length}"] = Polynomial((Monomial(True, ()),))
    # Make X0 self-recursive so the system is not a simple DAG.
    equations["X0"] = Polynomial(
        (Monomial(True, ("X1",)), Monomial(True, ("X0", "X1")))
    )
    return EquationSystem(equations)


def _run_kleene(length: int, strategy: str) -> FixpointStats:
    system = chain_boolean_system(length)
    solution = solve_kleene(system, BooleanSemiring(), strategy=strategy)
    assert solution["X0"] is True  # sanity: the chain must saturate
    return solution.stats


#: Extra fig2 measurement leg: dense Jacobian but stratification kept on.
#: Stratification (§7) pre-dates the worklist work, so the report records it
#: as its own axis — ``dense`` is the historical full-system solve (single
#: stratum + dense Jacobian), ``dense_stratified`` isolates the pure
#: Jacobian-strategy effect, and the headline speedup is worklist vs dense.
DENSE_STRATIFIED = "dense_stratified"


def _run_fig2(nonterminals: int, examples: int, strategy: str) -> FixpointStats:
    entry = scaling_benchmark(nonterminals)
    solution = solve_lia_gfa(
        entry.problem.grammar,
        example_set(examples),
        stratify=strategy != DENSE,
        strategy=WORKLIST if strategy == WORKLIST else DENSE,
    )
    assert not solution.start_value.is_empty()
    return FixpointStats(strategy, solution.iterations, solution.evaluations)


def _run_fig3(nonterminals: int, examples: int, strategy: str) -> FixpointStats:
    grammar = chain_grammar(max(1, nonterminals - 2))
    solution = solve_abstract_gfa(grammar, example_set(examples), strategy=strategy)
    return FixpointStats(strategy, solution.iterations, solution.evaluations)


def _semilinear_inputs(count: int, dimension: int = 2) -> List[SemiLinearSet]:
    values = []
    for index in range(count):
        offset = IntVector([index % 5, (2 * index) % 7])
        generators = (
            IntVector([1 + index % 3, index % 4]),
            IntVector([index % 2, 1 + index % 5]),
        )
        values.append(SemiLinearSet([LinearSet(offset, generators)], dimension))
    return values


def _run_semilinear(count: int) -> FixpointStats:
    """Micro: fold combine/extend/star/simplify over generated sets."""
    values = _semilinear_inputs(count)
    accumulated = SemiLinearSet.empty(2)
    operations = 0
    for value in values:
        accumulated = accumulated.combine(value).simplify()
        operations += 2
    product = values[0]
    for value in values[1:]:
        product = product.extend(value).simplify()
        operations += 2
    star = accumulated.star()
    operations += 1
    assert star.linear_sets
    return FixpointStats(WORKLIST, 1, operations)


#: Warm passes of the membership micro-benchmark (one cold pass precedes them).
CONTAINS_WARM_ROUNDS = 100


def _run_contains_warm() -> FixpointStats:
    """Repeated ``LinearSet.contains`` on one container: after the first pass
    every query reuses the cached membership context and learned lemmas."""
    container = LinearSet(IntVector([1, 2]), (IntVector([2, 1]), IntVector([0, 3])))
    probes = [IntVector([1 + 2 * i, 2 + i]) for i in range(12)]
    passes = 1 + CONTAINS_WARM_ROUNDS
    for _ in range(passes):
        results = [container.contains(probe) for probe in probes]
    assert results[0] is True
    return FixpointStats(WORKLIST, passes, passes * len(probes))


def _run_interned_construction() -> FixpointStats:
    """Rebuild 200 linear sets with repeating shapes: every repeat must come
    back from the intern table."""
    sets = [
        LinearSet(
            IntVector([i % 5, i % 7]), (IntVector([1, i % 3]), IntVector([i % 2, 2]))
        )
        for i in range(200)
    ]
    assert SemiLinearSet(sets, 2).linear_sets
    return FixpointStats(WORKLIST, 1, len(sets))


@dataclass(frozen=True)
class Workload:
    """One named fixpoint measurement, run once per strategy it lists."""

    name: str
    group: str
    run: Callable[[str], FixpointStats]
    strategies: Tuple[str, ...] = STRATEGIES


def _single(name: str, group: str, run: Callable[[], FixpointStats]) -> Workload:
    """A workload without a strategy axis, recorded in the worklist column."""
    return Workload(name, group, lambda strategy: run(), strategies=(WORKLIST,))


def _solve_chain14() -> FixpointStats:
    from repro.api import Solver

    response = Solver(engine="naySL", timeout_seconds=120.0).solve("chain_14")
    assert response.error is None, response.error
    return FixpointStats(WORKLIST, 0, 0)


#: Benchmark slate the ``domains`` workloads check (cheap-domain-friendly
#: instances plus one that forces escalation).
DOMAIN_BENCH_SLATE = ("plane1", "guard1", "mpg_guard1", "max2")


def _check_domain_slate(engine_name: str) -> FixpointStats:
    """Check the slate; ``evaluations`` records how many instances the
    engine decided, so a precision regression shows beside its timing."""
    from repro.api import Solver

    solver = Solver(engine=engine_name, timeout_seconds=120.0)
    decided = 0
    for benchmark in DOMAIN_BENCH_SLATE:
        response = solver.check(benchmark)
        assert response.error is None, response.error
        assert response.verdict != "realizable", (
            f"{engine_name} claimed realizable on {benchmark}"
        )
        decided += response.verdict == "unrealizable"
    return FixpointStats(WORKLIST, 0, decided)


#: Benchmark slate the certification sweep checks: one representative per
#: family the engines disagree on (LIA planes, guarded families, CLIA).
CERT_BENCH_SLATE = ("plane1", "plane2", "guard1", "guard2", "mpg_guard1", "max2")


def _certification_rates(quick: bool = False) -> Dict[str, object]:
    """Per-engine certificate coverage over :data:`CERT_BENCH_SLATE`.

    For every registered engine, count how many ``unrealizable`` verdicts
    shipped a certificate the independent checker
    (:func:`repro.analysis.certcheck.check_certificate`) accepts, so an
    engine silently losing its proof emitter shows up in the bench diff.
    """
    from repro.analysis import check_certificate
    from repro.api import Solver
    from repro.engine.registry import engine_names

    slate = CERT_BENCH_SLATE[:2] if quick else CERT_BENCH_SLATE
    rates: Dict[str, object] = {}
    for engine_name in engine_names():
        solver = Solver(engine=engine_name, timeout_seconds=120.0)
        unrealizable = 0
        certified = 0
        for name in slate:
            benchmark = get_benchmark(name)
            response = solver.check(benchmark)
            assert response.error is None, response.error
            if response.verdict != "unrealizable":
                continue
            unrealizable += 1
            if response.certificate is not None and check_certificate(
                benchmark.problem, response.certificate
            ):
                certified += 1
        rates[engine_name] = {
            "unrealizable": unrealizable,
            "certified": certified,
            "rate": (certified / unrealizable) if unrealizable else None,
        }
    return rates


def default_workloads(quick: bool = False) -> List[Workload]:
    """The standard fixpoint suite; ``quick`` shrinks the sweep for CI."""
    kleene_sizes = [64] if quick else [64, 256, 1024]
    fig2_points = [(14, 1)] if quick else [(14, 1), (20, 1), (26, 1), (14, 2), (20, 2)]
    fig3_points = [(14, 2)] if quick else [(14, 2), (20, 2), (26, 2), (14, 3), (20, 3)]
    micro_sizes = [16] if quick else [16, 48]

    workloads: List[Workload] = [
        Workload(
            f"kleene_bool_chain_{size}",
            "kleene",
            lambda strategy, size=size: _run_kleene(size, strategy),
        )
        for size in kleene_sizes
    ]
    for nonterminals, examples in fig2_points:
        workloads.append(
            Workload(
                f"fig2_newton_n{nonterminals}_e{examples}",
                "fig2",
                lambda strategy, n=nonterminals, e=examples: _run_fig2(n, e, strategy),
                strategies=(WORKLIST, DENSE, DENSE_STRATIFIED),
            )
        )
    for nonterminals, examples in fig3_points:
        workloads.append(
            Workload(
                f"fig3_abstract_n{nonterminals}_e{examples}",
                "fig3",
                lambda strategy, n=nonterminals, e=examples: _run_fig3(n, e, strategy),
            )
        )
    for size in micro_sizes:
        workloads.append(
            _single(
                f"semilinear_micro_{size}", "semilinear",
                lambda size=size: _run_semilinear(size),
            )
        )
    workloads.append(
        _single("semilinear_contains_warm", "semilinear", _run_contains_warm)
    )
    workloads.append(
        _single(
            "semilinear_interned_construction", "semilinear", _run_interned_construction
        )
    )
    workloads.append(_single("solve_end_to_end_chain14", "solve", _solve_chain14))
    for engine_name in ("nayInt", "nayFin", "staged"):
        workloads.append(
            _single(
                f"domains_{engine_name}", "domains",
                lambda name=engine_name: _check_domain_slate(name),
            )
        )
    return workloads


def _run_fixpoint(repetitions: int, quick: bool) -> Report:
    rows: List[Dict[str, object]] = []
    for workload in default_workloads(quick):
        row: Dict[str, object] = {"name": workload.name, "group": workload.group}
        for strategy in workload.strategies:
            seconds, stats = timed(lambda: workload.run(strategy), repetitions)
            row[strategy] = {
                **timing_cell(seconds),
                "iterations": stats.iterations,
                "evaluations": stats.evaluations,
            }
        if WORKLIST in row and DENSE in row:
            worklist, dense = row[WORKLIST], row[DENSE]
            row["speedup"] = (
                dense["median_seconds"] / worklist["median_seconds"]
                if worklist["median_seconds"] > 0
                else None
            )
            row["evaluation_ratio"] = (
                dense["evaluations"] / worklist["evaluations"]
                if worklist["evaluations"]
                else None
            )
        rows.append(row)
    return {
        "workloads": rows,
        "summary": _summarise_fixpoint(rows),
        "certification": _certification_rates(quick),
        "caches": runtime_cache_stats(),
    }


def _values(rows: Sequence[Dict[str, object]], group: str, key: str) -> List[float]:
    return [
        row[key] for row in rows if row["group"] == group and row.get(key) is not None
    ]


def _summarise_fixpoint(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    summary: Dict[str, object] = {}
    for group in ("kleene", "fig2", "fig3"):
        speedups = _values(rows, group, "speedup")
        ratios = _values(rows, group, "evaluation_ratio")
        if speedups:
            summary[f"{group}_min_speedup"] = min(speedups)
            summary[f"{group}_median_speedup"] = statistics.median(speedups)
        if ratios:
            summary[f"{group}_max_evaluation_ratio"] = max(ratios)
    return summary


# ---------------------------------------------------------------------------
# logic: incremental DPLL(T) core vs the pre-rewrite baseline (BENCH_logic.json)
# ---------------------------------------------------------------------------
#
# Each workload is a *captured query stream*: the exact sequence of formulas
# a real pipeline run hands to the solver, recorded once (untimed) and then
# replayed through the incremental core and the pre-rewrite reference stack.
# Replaying identical formula sequences is what makes the recorded speedup an
# apples-to-apples measure of the solver rewrite alone.


def _capture_fig2_stream(points: Sequence[Tuple[int, int]]) -> List[Formula]:
    """The solver queries of the fig2 exact-Newton scaling sweep.

    Every cell runs the full stratified Newton solve (subsumption-based
    simplification included), with cold caches per cell; the recorded
    stream is the concatenation over the ``|N| x |E|`` sweep.
    """
    sink: List[Formula] = []
    with record_queries(sink):
        for nonterminals, examples in points:
            clear_cache()
            entry = scaling_benchmark(nonterminals)
            solve_lia_gfa(entry.problem.grammar, example_set(examples), stratify=True)
    clear_cache()
    return sink


def _capture_check_stream(
    benchmark_name: str, suite: Optional[str] = None
) -> List[Formula]:
    """The solver queries of one exact naySL benchmark check.

    The Table 2 ``array_search`` family is the §7/§8 exact-Newton workload
    whose CLIA verdict extraction dominates solver time; the Table 1
    LimitedIf family exercises the 2^|E| comparison-abstraction queries.
    ``suite`` disambiguates names that appear in several suites (``ite1``
    exists in both LimitedPlus and LimitedIf).
    """
    benchmark = get_benchmark(benchmark_name, suite)
    engine = create_engine("naySL")
    clear_cache()
    sink: List[Formula] = []
    with record_queries(sink):
        engine.check(benchmark.problem, benchmark.witness_examples)
    clear_cache()
    return sink


def _capture_random_stream(count: int, seed: int = 0) -> List[Formula]:
    """Seeded random QF-LIA formulas (small Boolean structure over 3 vars).

    Every formula is *box-bounded* (``-8 <= v <= 8`` conjoined per
    variable): the pre-rewrite baseline's branch-and-bound can take minutes
    on unbounded random strips, and a benchmark that mostly measures one
    pathological query would say nothing about throughput.
    """
    import random

    from repro.logic.formulas import (
        BoolLit,
        atom_eq,
        atom_ge,
        atom_le,
        atom_lt,
        atom_ne,
        conjunction,
        disjunction,
    )
    from repro.logic.terms import LinearExpression

    rng = random.Random(seed)
    names = ["x", "y", "z"]
    makers = (atom_le, atom_lt, atom_eq, atom_ne)
    box = [
        atom
        for name in names
        for atom in (
            atom_ge(LinearExpression.variable(name), -8),
            atom_le(LinearExpression.variable(name), 8),
        )
    ]

    def random_atom() -> Formula:
        expression = LinearExpression(
            {name: rng.randint(-4, 4) for name in names}, rng.randint(-8, 8)
        )
        return rng.choice(makers)(expression, 0)

    formulas: List[Formula] = []
    while len(formulas) < count:
        clauses = [
            disjunction([random_atom() for _ in range(rng.randint(1, 3))])
            for _ in range(rng.randint(1, 4))
        ]
        formula = conjunction(clauses + box)
        if not isinstance(formula, BoolLit):
            formulas.append(formula)
    return formulas


def default_logic_workloads(
    quick: bool = False,
) -> List[Tuple[str, str, Callable[[], List[Formula]]]]:
    """``(name, group, capture)`` per stream; ``quick`` shrinks it for CI.

    The quick ``fig2_newton_subsumption_sweep`` stream covers 6 of the 15
    sweep points (24 queries against the full run's 60) under the same name.
    """
    fig2_points = (
        [(8, 1), (14, 1), (8, 2), (14, 2), (8, 3), (14, 3)]
        if quick
        else [(n, e) for e in (1, 2, 3) for n in (8, 14, 20, 26, 32)]
    )
    workloads = [
        (
            "fig2_newton_subsumption_sweep",
            "fig2",
            lambda: _capture_fig2_stream(fig2_points),
        ),
        ("random_qflia_200", "random", lambda: _capture_random_stream(200)),
    ]
    for name in ["array_search_8"] if quick else ["array_search_10", "array_search_13"]:
        workloads.append(
            (
                f"table2_clia_{name}",
                "table2",
                lambda name=name: _capture_check_stream(name),
            )
        )
    if not quick:
        workloads.append(
            (
                "table1_limited_if_ite1",
                "table1",
                lambda: _capture_check_stream("ite1", suite="LimitedIf"),
            )
        )
    return workloads


#: Stat-counter keys reported per incremental replay.
_LOGIC_STAT_KEYS = (
    "theory_queries",
    "theory_cache_hits",
    "lemma_hits",
    "lemmas_learned",
    "simplex_pivots",
    "bb_nodes",
    "propagations",
    "core_probes",
)


def _replay_incremental(stream: Sequence[Formula]) -> List[bool]:
    return [check_sat(formula).is_sat for formula in stream]


def _replay_reference(stream: Sequence[Formula]) -> List[bool]:
    return [reference_check_sat(formula)[0] for formula in stream]


def _measure_logic_workload(
    name: str, group: str, capture: Callable[[], List[Formula]], repetitions: int
) -> Dict[str, object]:
    stream = capture()
    # Differential guard before timing: both stacks must agree on every
    # query, otherwise the bench result would be comparing wrong answers.
    # The guard's cold incremental replay also yields the work counters
    # (every timed repetition starts from the same cold caches).
    clear_cache()
    before = runtime_counters()
    verdicts = _replay_incremental(stream)
    after = runtime_counters()
    if verdicts != _replay_reference(stream):
        raise ReproError(f"solver verdict mismatch replaying workload {name!r}")

    incremental_seconds, _ = timed(lambda: _replay_incremental(stream), repetitions)
    reference_seconds, _ = timed(lambda: _replay_reference(stream), repetitions)
    incremental = timing_cell(incremental_seconds, len(stream), "queries_per_second")
    incremental["stats"] = {
        key: after[key] - before.get(key, 0) for key in _LOGIC_STAT_KEYS
    }
    reference = timing_cell(reference_seconds, len(stream), "queries_per_second")
    inc_median = incremental["median_seconds"]
    return {
        "name": name,
        "group": group,
        "queries": len(stream),
        "incremental": incremental,
        "reference": reference,
        "speedup": reference["median_seconds"] / inc_median if inc_median > 0 else None,
    }


def _run_logic(repetitions: int, quick: bool) -> Report:
    rows = [
        _measure_logic_workload(name, group, capture, repetitions)
        for name, group, capture in default_logic_workloads(quick)
    ]
    summary: Dict[str, object] = {}
    for group in sorted({row["group"] for row in rows}):
        speedups = _values(rows, group, "speedup")
        if speedups:
            summary[f"{group}_min_speedup"] = min(speedups)
            summary[f"{group}_median_speedup"] = statistics.median(speedups)
    all_speedups = [row["speedup"] for row in rows if row.get("speedup") is not None]
    if all_speedups:
        summary["overall_median_speedup"] = statistics.median(all_speedups)
    return {"workloads": rows, "summary": summary, "caches": runtime_cache_stats()}


# ---------------------------------------------------------------------------
# domains: the columnar evaluation core, |E| sweep (BENCH_domains.json)
# ---------------------------------------------------------------------------

#: The example-count sweep.  1000 is the gate point, 5000 shows whether the
#: speedup keeps growing; 10/16 cover the small-|E| regime where the
#: pure-Python fallback must not have regressed.
DOMAINS_EXAMPLE_COUNTS: Tuple[int, ...] = (10, 16, 100, 1000, 5000)
DOMAINS_QUICK_COUNTS: Tuple[int, ...] = (16, 1000)

#: |E| at or below this bound is the "small example set" regime: the python
#: leg there is gated against the reference leg.
DOMAINS_SMALL_EXAMPLES = 16


def domains_backend_legs() -> List[str]:
    """The measurable legs on this interpreter: numpy only when installed."""
    legs = ["reference", "python"]
    if NUMPY_OPS is not None:
        legs.append("numpy")
    return legs


def evaluate_slate(depth: int = 16) -> List[Term]:
    """A CLIA term slate whose members share subterms aggressively.

    Each step extends the running ``Plus`` chain ``acc`` and derives a
    ``Minus`` / ``LessThan`` / ``IfThenElse`` / ``Equal`` cluster from it, so
    consecutive slate entries overlap in all but their top few nodes — the
    shape the enumerator produces, and the one the per-call memo of
    :func:`repro.semantics.evaluator.evaluate` is built for.  The reference
    leg re-walks every shared subterm per term, like the pre-change
    evaluator did.
    """
    x = Term(alph.var("x"))
    one = Term(alph.num(1))
    terms: List[Term] = []
    acc = x
    for index in range(depth):
        acc = Term(alph.plus(2), (acc, one if index % 2 else x))
        shifted = Term(alph.minus(), (acc, x))
        guard = Term(alph.less_than(), (shifted, acc))
        bounded = Term(alph.if_then_else(), (guard, shifted, acc))
        terms.append(bounded)
        terms.append(Term(alph.equal(), (bounded, acc)))
    return terms


def _domains_row(
    name: str,
    group: str,
    examples_count: int,
    legs: Sequence[str],
    run: Callable[[str], object],
    repetitions: int,
    **extra: object,
) -> Dict[str, object]:
    """Time ``run(leg)`` per leg; attach median-over-median speedups."""
    row: Dict[str, object] = {
        "name": name, "group": group, "examples": examples_count, **extra
    }
    for leg in legs:
        seconds, _ = timed(lambda: run(leg), repetitions)
        # Throughput normalised by |E| alone: how many examples per second
        # this workload processes end-to-end at this |E|.
        row[leg] = timing_cell(seconds, examples_count, "examples_per_sec")

    def median_of(leg: str) -> Optional[float]:
        cell = row.get(leg)
        return cell["median_seconds"] if isinstance(cell, dict) else None

    reference, python, numpy = map(median_of, ("reference", "python", "numpy"))
    row["python_vs_reference"] = (reference / python) if reference and python else None
    row["numpy_vs_reference"] = (reference / numpy) if reference and numpy else None
    row["numpy_vs_python"] = (python / numpy) if python and numpy else None
    return row


def _measure_evaluate_row(
    examples_count: int, repetitions: int, legs: Sequence[str]
) -> Dict[str, object]:
    terms = evaluate_slate()
    examples = large_example_set(examples_count)

    def run(leg: str) -> List[object]:
        if leg == "reference":
            return [reference_evaluate(term, examples) for term in terms]
        with use_backend(leg):
            memo: EvalMemo = {}
            return [evaluate(term, examples, memo) for term in terms]

    # Differential guard before timing: every leg must produce the same
    # vector for every slate term (vectors are interned, so == is cheap).
    expected = run("reference")
    for leg in legs:
        if leg != "reference" and run(leg) != expected:
            raise ReproError(
                f"evaluate mismatch on the {leg} backend at |E|={examples_count}"
            )
    return _domains_row(
        f"evaluate_e{examples_count}", "evaluate", examples_count, legs, run,
        repetitions, terms=len(terms),
    )


def _measure_interval_row(
    examples_count: int, repetitions: int, legs: Sequence[str]
) -> Dict[str, object]:
    grammar = chain_grammar(12)
    examples = example_set(examples_count)

    def solve(leg: str):
        if leg == "reference":
            return solve_abstract_gfa(
                grammar, examples, domain=ReferenceIntervalDomain()
            )
        with use_backend(leg):
            return solve_abstract_gfa(grammar, examples, domain="interval")

    # Differential guard: the fixpoint's start value must agree across legs.
    clear_cache()
    baseline = solve("reference").start_value.intervals
    for leg in legs:
        if leg == "reference":
            continue
        clear_cache()
        if solve(leg).start_value.intervals != baseline:
            raise ReproError(
                f"interval fixpoint mismatch on the {leg} leg at |E|={examples_count}"
            )
    return _domains_row(
        f"interval_gfa_e{examples_count}", "interval", examples_count, legs, solve,
        repetitions,
    )


def _measure_powerset_row(
    examples_count: int, repetitions: int, legs: Sequence[str]
) -> Dict[str, object]:
    # No frozen twin here: the pre-change powerset transfers were the same
    # per-pair Python loops the python backend runs, so the python leg *is*
    # the baseline and the row carries backend legs only.
    benchmark = scaling_benchmark(8)
    examples = example_set(examples_count)
    backend_legs = [leg for leg in legs if leg != "reference"]

    def check(leg: str):
        with use_backend(leg):
            return check_examples_abstract(
                benchmark.problem,
                examples,
                domain=create_domain("powerset", cap=64, max_examples=examples_count),
            )

    clear_cache()
    baseline_verdict = check(backend_legs[0]).verdict
    for leg in backend_legs[1:]:
        clear_cache()
        if check(leg).verdict is not baseline_verdict:
            raise ReproError(
                f"powerset verdict mismatch on the {leg} leg at |E|={examples_count}"
            )
    return _domains_row(
        f"powerset_e{examples_count}", "powerset", examples_count, backend_legs,
        check, repetitions,
    )


def _run_domains(repetitions: int, quick: bool) -> Report:
    counts = DOMAINS_QUICK_COUNTS if quick else DOMAINS_EXAMPLE_COUNTS
    legs = domains_backend_legs()
    rows = [
        measure(count, repetitions, legs)
        for measure in (
            _measure_evaluate_row, _measure_interval_row, _measure_powerset_row
        )
        for count in counts
    ]
    return {
        "legs": legs,
        "numpy_available": NUMPY_OPS is not None,
        "workloads": rows,
        "summary": _summarise_domains(rows),
    }


def _summarise_domains(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Roll-ups including the two gated values.

    * ``gate_numpy_speedup_e1000`` — the *minimum* numpy-vs-reference
      speedup over the ``evaluate`` and ``interval`` groups at |E| = 1000.
      Absent when numpy is not installed.
    * ``gate_python_small_e_slowdown`` — the *maximum* python-vs-reference
      slowdown at |E| <= DOMAINS_SMALL_EXAMPLES over the same groups.
    """
    summary: Dict[str, object] = {}
    gated = [row for row in rows if row["group"] in ("evaluate", "interval")]
    speedups = [
        row["numpy_vs_reference"]
        for row in gated
        if row["examples"] == 1000 and row.get("numpy_vs_reference") is not None
    ]
    if speedups:
        summary["gate_numpy_speedup_e1000"] = min(speedups)
    slowdowns = [
        1.0 / row["python_vs_reference"]
        for row in gated
        if row["examples"] <= DOMAINS_SMALL_EXAMPLES and row.get("python_vs_reference")
    ]
    if slowdowns:
        summary["gate_python_small_e_slowdown"] = max(slowdowns)
    for group in sorted({row["group"] for row in rows}):
        for ratio in ("numpy_vs_python", "numpy_vs_reference"):
            values = _values(rows, group, ratio)
            if values:
                summary[f"{group}_{ratio}_median"] = statistics.median(values)
    return summary


# ---------------------------------------------------------------------------
# grammar: OE pruning + the memoized enumerator (BENCH_grammar.json)
# ---------------------------------------------------------------------------
#
# Two question families, both over generated grammar-scale slates
# (:mod:`repro.suites.scaling`'s redundant chains and expression grammars,
# hundreds of productions at the top end):
#
# * **Pruning** — how much smaller do the GFA equation systems get when the
#   grammar goes through observational-equivalence pruning first, and what
#   does that do to equation evaluations and wall time on the fig2 (exact
#   semi-linear) and fig3 (abstract-interval) solve legs?
# * **Enumeration** — how fast does each enumerator cover the *same*
#   de-duplicated candidate space (``candidates_per_sec`` shares its
#   numerator across legs: the number of distinct-behavior candidates up to
#   the size budget, a property of the grammar, divided by each leg's wall
#   time), and what does bank memoization buy on the repeat rounds the
#   CEGIS loop actually performs?

#: ``(length, fanout)`` of the redundant-chain slate for the pruning rows.
GRAMMAR_PRUNE_SLATE: Tuple[Tuple[int, int], ...] = ((6, 3), (10, 3), (14, 4), (20, 5))
GRAMMAR_PRUNE_QUICK_SLATE: Tuple[Tuple[int, int], ...] = ((6, 3), (20, 5))

#: Fanouts of the redundant-expression slate for the enumerator rows.
GRAMMAR_ENUM_SLATE: Tuple[int, ...] = (2, 3, 4)
GRAMMAR_ENUM_QUICK_SLATE: Tuple[int, ...] = (2, 4)

#: |E| for the pruning rows and the enumerator example sets.
GRAMMAR_EXAMPLES = 3

#: Rows at or above this many productions feed the wall-clock gate (tiny
#: rows are too noisy to gate on).
GRAMMAR_GATE_MIN_PRODUCTIONS = 80


def _measure_grammar_prune_row(
    length: int, fanout: int, leg: str, repetitions: int
) -> Dict[str, object]:
    from repro.grammar import prune_grammar
    from repro.suites.scaling import redundant_chain_grammar

    grammar = redundant_chain_grammar(
        length, fanout, name=f"redundant_chain_{length}x{fanout}"
    )
    examples = example_set(GRAMMAR_EXAMPLES)
    solver = solve_lia_gfa if leg == "fig2_lia" else solve_abstract_gfa
    _, report = prune_grammar(grammar, examples, mode="oe")
    row: Dict[str, object] = {
        "name": f"{leg}_chain_{length}x{fanout}",
        "group": "prune",
        "leg": leg,
        "length": length,
        "fanout": fanout,
        "examples": GRAMMAR_EXAMPLES,
        "states": {"before": report.states_before, "after": report.states_after},
        "productions": {
            "before": report.productions_before,
            "after": report.productions_after,
            "pruned": report.productions_pruned,
        },
    }
    for mode in ("off", "oe"):
        seconds, solution = timed(
            lambda: solver(grammar, examples, prune=mode), repetitions
        )
        row[mode] = {
            **timing_cell(seconds),
            "seconds": seconds,
            "evaluations": solution.evaluations,
        }
    row["evaluation_reduction"] = row["off"]["evaluations"] / max(
        1, row["oe"]["evaluations"]
    )
    row["wall_ratio_oe_vs_off"] = row["oe"]["median_seconds"] / max(
        1e-9, row["off"]["median_seconds"]
    )
    return row


def _measure_grammar_enum_row(fanout: int, repetitions: int) -> Dict[str, object]:
    from repro.suites.scaling import redundant_expression_benchmark
    from repro.synth import EnumerativeSynthesizer, ReferenceSynthesizer

    problem = redundant_expression_benchmark(fanout).problem
    examples = example_set(GRAMMAR_EXAMPLES)
    max_size, max_terms = 7, 50_000

    def cold_run(synthesizer: Callable[[int, int], object]) -> Callable[[], object]:
        return lambda: synthesizer(max_size, max_terms).synthesize(problem, examples)

    reference_seconds, _ = timed(cold_run(ReferenceSynthesizer), repetitions)
    cold_seconds, cold = timed(cold_run(EnumerativeSynthesizer), repetitions)
    # Warm leg: the synthesizer keeps its banks across calls, the shape of
    # repeat CEGIS rounds whose example set did not change.
    warm_synthesizer = EnumerativeSynthesizer(max_size, max_terms)
    warm_synthesizer.synthesize(problem, examples)
    warm_seconds, _ = timed(
        lambda: warm_synthesizer.synthesize(problem, examples), repetitions
    )
    # The shared numerator: distinct-behavior candidates up to the budget.
    candidates = cold.explored_terms

    def leg(seconds: List[float]) -> Dict[str, object]:
        return {
            **timing_cell(seconds, candidates, "candidates_per_sec"),
            "seconds": seconds,
        }

    row: Dict[str, object] = {
        "name": f"enumerate_expr_{fanout}",
        "group": "enumerate",
        "fanout": fanout,
        "productions": problem.grammar.num_productions,
        "max_size": max_size,
        "examples": GRAMMAR_EXAMPLES,
        "distinct_candidates": candidates,
        "reference": leg(reference_seconds),
        "memoized": leg(cold_seconds),
        "memoized_warm": leg(warm_seconds),
    }
    reference_median = row["reference"]["median_seconds"]
    for leg_name, speedup in (
        ("memoized", "speedup_cold"), ("memoized_warm", "speedup_warm")
    ):
        row[speedup] = reference_median / max(1e-9, row[leg_name]["median_seconds"])
    return row


def _run_grammar(repetitions: int, quick: bool) -> Report:
    prune_slate = GRAMMAR_PRUNE_QUICK_SLATE if quick else GRAMMAR_PRUNE_SLATE
    enum_slate = GRAMMAR_ENUM_QUICK_SLATE if quick else GRAMMAR_ENUM_SLATE
    rows = [
        _measure_grammar_prune_row(length, fanout, leg, repetitions)
        for length, fanout in prune_slate
        for leg in ("fig2_lia", "fig3_abstract")
    ]
    rows.extend(_measure_grammar_enum_row(fanout, repetitions) for fanout in enum_slate)
    return {"workloads": rows, "summary": _summarise_grammar(rows)}


def _summarise_grammar(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Roll-ups including the three gated values.

    * ``gate_oe_evaluation_reduction`` — the *best* equation-evaluation
      reduction over the fig2/fig3 prune rows.
    * ``gate_prune_wall_ratio`` — the *worst* oe-vs-off wall-clock ratio
      over prune rows with at least ``GRAMMAR_GATE_MIN_PRODUCTIONS``
      productions.
    * ``gate_enumerator_speedup`` — the *worst* cold-leg speedup of the
      memoized enumerator over the reference.
    """
    summary: Dict[str, object] = {}
    prune_rows = [row for row in rows if row["group"] == "prune"]
    enum_rows = [row for row in rows if row["group"] == "enumerate"]
    if prune_rows:
        reductions = [row["evaluation_reduction"] for row in prune_rows]
        summary["gate_oe_evaluation_reduction"] = max(reductions)
        summary["evaluation_reduction_median"] = statistics.median(reductions)
        gated = [
            row["wall_ratio_oe_vs_off"]
            for row in prune_rows
            if row["productions"]["before"] >= GRAMMAR_GATE_MIN_PRODUCTIONS
        ]
        if gated:
            summary["gate_prune_wall_ratio"] = max(gated)
        summary["productions_pruned_total"] = sum(
            row["productions"]["pruned"] for row in prune_rows
        )
    if enum_rows:
        summary["gate_enumerator_speedup"] = min(
            row["speedup_cold"] for row in enum_rows
        )
        summary["enumerator_warm_speedup_median"] = statistics.median(
            row["speedup_warm"] for row in enum_rows
        )
    return summary


# ---------------------------------------------------------------------------
# chaos: solve-fabric resilience (BENCH_chaos.json)
# ---------------------------------------------------------------------------
#
# Unlike the other suites this one measures *survival*, not speed: every
# scenario injects a different failure mode into the fabric's workers (via
# request tags, so nothing global is armed) and checks that the request
# still ends in a well-formed wire response, that crashed workers are
# replaced, and that the circuit breakers trip and recover as specified.

CHAOS_FAULT_KINDS = ("crash", "hang", "slow", "corrupt", "oom", "error", "kill9")


def _chaos_request(tags=None, timeout=10.0):
    from repro.api.wire import SolveRequest

    return SolveRequest(
        benchmark="plane1",
        engine="naySL",
        kind="check",
        timeout_seconds=timeout,
        tags=dict(tags or {}),
    )


def _chaos_well_formed(response) -> bool:
    """Round-trip the response through the strict wire parser."""
    from repro.api.wire import SolveResponse

    if response is None:
        return False
    try:
        SolveResponse.from_json(response.to_json())
    except Exception:  # noqa: BLE001 — malformed is exactly what we probe for
        return False
    return True


def _run_chaos(repetitions: int, quick: bool) -> Report:
    """Drive the fault slate through a supervised fabric.

    ``repetitions`` scales the clean/self-heal request counts (the faulted
    scenarios are fixed — each exists to prove one failure mode).  ``quick``
    changes nothing; the slate is already CI-sized.
    """
    import os
    import signal
    import threading

    from repro.api.facade import timeout_response
    from repro.engine.supervisor import (
        BreakerBoard,
        FabricTimeoutError,
        RetryPolicy,
        Supervisor,
    )
    from repro.testing.faults import reset_fault_state

    del quick
    reset_fault_state()
    clean_count = max(2, 2 * max(1, repetitions))
    board = BreakerBoard(threshold=2, cooldown_seconds=0.5)
    fabric = Supervisor(
        3,
        warm=False,
        breakers=board,
        retry=RetryPolicy(max_attempts=3, base_delay_seconds=0.02),
        name="chaos",
    )
    scenarios: List[Dict[str, object]] = []
    started = time.monotonic()

    def record(name, since, responses, expect, ok=True, **extra):
        """Append one scenario row, begun at ``since``, from its responses;
        ``extra`` adds fields or overrides the counted ones."""
        stats = [response.solver_stats if response else {} for response in responses]
        outcomes = [response.verdict if response else "lost" for response in responses]
        row = {
            "name": name,
            "requests": len(responses),
            "outcomes": outcomes,
            "expect": list(expect),
            "ok": bool(ok) and all(outcome in expect for outcome in outcomes),
            "well_formed": sum(_chaos_well_formed(response) for response in responses),
            "retries": sum(s.get("retries", 0) for s in stats),
            "workers_replaced": sum(s.get("workers_replaced", 0) for s in stats),
            "faults_injected": sum(s.get("faults_injected", 0) for s in stats),
            "seconds": round(time.monotonic() - since, 4),
            **extra,
        }
        scenarios.append(row)
        return row

    def run_scenario(name, tags, count, expect):
        since = time.monotonic()
        responses = [fabric.solve(_chaos_request(tags)) for _ in range(count)]
        return record(name, since, responses, expect)

    def rearm():
        board.for_engine("naySL").record_success()

    try:
        pids_before = fabric.worker_pids()

        # 1. Baseline: clean requests on the fresh pool.
        run_scenario("clean", None, clean_count, ("unrealizable",))

        # 2. crash — the worker dies (os._exit) on every attempt; bounded
        # retries run out and the request degrades to a transient error.
        run_scenario("crash", {"faults": "crash@*"}, 2, ("error",))
        rearm()  # the crashes tripped the breaker

        # 3. slow — the leg stalls briefly, then answers normally; the
        # injection is visible in solver_stats but harmless.
        run_scenario("slow", {"faults": "slow@*:0.1"}, 3, ("unrealizable",))

        # 4. corrupt — the reply payload fails wire validation at the pipe;
        # every retry lands on a (fresh) worker that corrupts again, so the
        # request errors out after max_attempts with retries recorded.
        corrupt = run_scenario("corrupt", {"faults": "corrupt@*"}, 2, ("error",))
        corrupt["ok"] = corrupt["ok"] and corrupt["retries"] > 0
        rearm()

        # 5. oom — an allocation burst ending in MemoryError: a
        # deterministic in-worker failure, reported as an error verdict
        # without any retry.
        oom = run_scenario("oom", {"faults": "oom@*:16"}, 2, ("error",))
        oom["ok"] = oom["ok"] and oom["retries"] == 0

        # 6. error — the deterministic injected failure; the retry policy
        # must NOT retry it.
        deterministic = run_scenario("error", {"faults": "error@*"}, 2, ("error",))
        deterministic["ok"] = deterministic["ok"] and deterministic["retries"] == 0

        # 7. kill -9 mid-solve — the one genuinely *transient* fault: the
        # parent SIGKILLs the busy worker while a slowed request is in
        # flight; the retry lands on a replacement and succeeds.
        since = time.monotonic()
        holder: Dict[str, object] = {}
        thread = threading.Thread(
            target=lambda: holder.update(
                response=fabric.solve(
                    _chaos_request({"faults": "slow@*:1.0"}, timeout=15.0)
                )
            )
        )
        thread.start()
        kill_deadline = time.monotonic() + 5.0
        killed_pid = None
        while time.monotonic() < kill_deadline and killed_pid is None:
            busy = fabric.busy_pids()
            if busy:
                killed_pid = busy[0]
                os.kill(killed_pid, signal.SIGKILL)
            else:
                time.sleep(0.02)
        thread.join(timeout=60.0)
        killed = record(
            "kill9", since, [holder.get("response")], ("unrealizable",),
            killed_pid=killed_pid,
        )
        killed["ok"] = (
            killed["ok"] and killed["well_formed"] == 1 and killed["retries"] >= 1
        )
        rearm()

        # 8. hang — the leg stops making progress entirely; the harvest
        # deadline fires, the stuck worker is killed and replaced, and the
        # caller records the same timeout response Supervisor.solve would
        # produce at the hard guard.
        since = time.monotonic()
        hang_request = _chaos_request({"faults": "hang@*"}, timeout=5.0)
        job = fabric.submit(hang_request, soft_timeout=5.0)
        try:
            response = fabric.harvest(job, timeout=1.5)  # should not return
        except FabricTimeoutError:
            fabric.cancel(job)
            response = timeout_response(hang_request)
        # The harvest timeout replaced the stuck worker.
        record("hang", since, [response], ("timeout",), workers_replaced=1)
        rearm()

        # 9. breaker — two consecutive crashes trip the breaker (threshold
        # 2); the next request is refused without running; after the
        # cooldown a clean half-open probe re-closes it.
        since = time.monotonic()
        breaker_board = BreakerBoard(threshold=2, cooldown_seconds=0.4)
        breaker_fabric = Supervisor(
            1,
            warm=False,
            breakers=breaker_board,
            retry=RetryPolicy(max_attempts=1, base_delay_seconds=0.02),
            name="chaos-breaker",
        )
        try:
            crashes = [
                breaker_fabric.solve(_chaos_request({"faults": "crash@*"}))
                for _ in range(2)
            ]
            tripped = breaker_board.for_engine("naySL").snapshot()
            refused = breaker_fabric.solve(_chaos_request())
            time.sleep(0.5)  # cooldown: the next request is the half-open probe
            probe = breaker_fabric.solve(_chaos_request())
            recovered = breaker_board.for_engine("naySL").snapshot()
        finally:
            breaker_fabric.shutdown()
        breaker = record(
            "breaker",
            since,
            crashes + [refused, probe],
            ("error", "unrealizable"),
            ok=(
                tripped["state"] == "open"
                and tripped["trips"] >= 1
                and refused.verdict == "error"
                and "circuit breaker open" in (refused.error or "")
                and probe.verdict == "unrealizable"
                and recovered["state"] == "closed"
            ),
            tripped=tripped,
            recovered=recovered,
            workers_replaced=2,  # the two crashed breaker-fabric workers
        )

        # 10. self-heal — after everything above, clean requests must still
        # succeed on the (heavily replaced) pool.
        heal = run_scenario("self-heal", None, clean_count, ("unrealizable",))
        replaced = sorted(set(fabric.worker_pids()) - set(pids_before))
        heal["pool_replaced_workers"] = replaced
        heal["ok"] = heal["ok"] and bool(replaced)

        fabric_stats = fabric.stats.snapshot()
    finally:
        fabric.shutdown()

    total = sum(row["requests"] for row in scenarios)
    well_formed = sum(row["well_formed"] for row in scenarios)
    return {
        "fault_kinds": list(CHAOS_FAULT_KINDS),
        "scenarios": scenarios,
        "fabric_stats": fabric_stats,
        "breakers": board.snapshot(),
        "summary": {
            "requests": total,
            "well_formed": well_formed,
            "all_well_formed": well_formed == total,
            "all_scenarios_ok": all(row["ok"] for row in scenarios),
            "fault_kind_count": len(CHAOS_FAULT_KINDS),
            "retries": sum(row["retries"] for row in scenarios),
            "workers_replaced": fabric_stats.get("workers_replaced", 0),
            "faults_injected": sum(row["faults_injected"] for row in scenarios),
            "breaker_trips": breaker["tripped"]["trips"],
            "total_seconds": round(time.monotonic() - started, 4),
        },
    }


# ---------------------------------------------------------------------------
# serve: concurrent clients over the HTTP server + result store (BENCH_serve.json)
# ---------------------------------------------------------------------------

#: Benchmark slate the serve load harness repeats: cheap, definitive
#: unrealizable checks across the families the engines exercise, so a
#: request stream over them is realistic but each individual solve stays
#: sub-second (the harness measures the *service*, not the engines).
SERVE_BENCH_SLATE = (
    "plane1",
    "plane2",
    "plane3",
    "guard1",
    "guard2",
    "guard3",
    "mpg_guard1",
    "ite1",
    "ite2",
    "max2",
)

#: The benchmark the harness solves once to warm the fabric workers and
#: the parent's import caches before any timed leg (kept out of the slate
#: so its store entry cannot turn a cold-leg request into a hit).
SERVE_WARMUP_BENCHMARK = "guard4"


def _serve_percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of a sample by rank (no interpolation)."""
    import math

    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def _serve_drive(
    server, payloads: List[Dict[str, object]], clients: int
) -> List[Dict[str, object]]:
    """POST every payload through ``clients`` concurrent threads.

    Each worker thread opens one connection per request (the stdlib server
    speaks HTTP/1.0, one request per connection) and records wall latency,
    status, wire validity, verdict, and whether the response was served
    from the persistent store.
    """
    import http.client
    import threading

    from repro.api.wire import SolveResponse

    host, port = server.server_address[0], server.server_address[1]
    results: List[Dict[str, object]] = []
    lock = threading.Lock()
    pending = iter(payloads)

    def worker() -> None:
        while True:
            with lock:
                payload = next(pending, None)
            if payload is None:
                return
            started = time.perf_counter()
            conn = http.client.HTTPConnection(host, port, timeout=300)
            try:
                conn.request(
                    "POST",
                    "/solve",
                    json.dumps(payload).encode("utf-8"),
                    {"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                status = reply.status
                raw = reply.read()
            finally:
                conn.close()
            row: Dict[str, object] = {
                "seconds": time.perf_counter() - started,
                "schema_valid": False,
                "definitive": False,
                "store_hit": False,
            }
            try:
                response = SolveResponse.from_json(json.loads(raw.decode("utf-8")))
                row["schema_valid"] = status == 200
                row["definitive"] = response.is_definitive
                row["store_hit"] = bool(response.solver_stats.get("store_hits"))
            except Exception:  # noqa: BLE001 — malformed replies count as invalid
                pass
            with lock:
                results.append(row)

    threads = [threading.Thread(target=worker) for _ in range(max(1, clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _run_serve(repetitions: int, quick: bool) -> Report:
    """Concurrent-client load over the real HTTP server + persistent store.

    Spins up the production stack in-process — :func:`make_server` backed by
    a supervised solve fabric and a fresh
    :class:`~repro.engine.store.ResultStore` in a temp directory — and
    drives concurrent client threads through three request streams:

    * **cold** — every slate benchmark exactly once: all misses, every
      request pays for a real solve (the store is empty);
    * **warm_repeat** — the same slate round-robined several times, every
      request a store hit;
    * **mixed** — repeats interleaved with fresh variants (distinct seeds,
      so distinct fingerprints but identical solve cost), the realistic
      hit-ratio regime.

    The gated value ``gate_warm_vs_cold_throughput`` is warm requests/sec
    over cold requests/sec: a ratio, because wall clocks vary across
    machines while the cold/warm split in one run does not.
    """
    import os
    import shutil
    import tempfile
    import threading

    from repro.api import Solver
    from repro.api.service import make_server
    from repro.engine.store import STORE_ENV, ResultStore, install_result_store
    from repro.engine.supervisor import (
        BreakerBoard,
        RetryPolicy,
        Supervisor,
        install_fabric,
    )

    slate = list(SERVE_BENCH_SLATE[:4] if quick else SERVE_BENCH_SLATE)
    clients = 4 if quick else 6
    warm_repeats = max(2, repetitions) if quick else max(4, 2 * repetitions)
    workers = 2 if quick else 3

    def request_payload(benchmark: str, seed: int = 0) -> Dict[str, object]:
        return {
            "benchmark": benchmark,
            "engine": "naySL",
            "kind": "check",
            "seed": seed,
            "timeout_seconds": 120.0,
        }

    tempdir = tempfile.mkdtemp(prefix="repro-serve-bench-")
    store_path = os.path.join(tempdir, "store.sqlite")
    previous_env = os.environ.get(STORE_ENV)
    os.environ[STORE_ENV] = store_path  # workers inherit through fork/spawn
    store = ResultStore(store_path)
    previous_store = install_result_store(store)
    fabric = Supervisor(
        workers,
        warm=False,
        breakers=BreakerBoard(threshold=100),
        retry=RetryPolicy(max_attempts=2, base_delay_seconds=0.05),
        name="serve-bench",
    )
    previous_fabric = install_fabric(fabric)
    server = make_server(port=0, solver=Solver(timeout_seconds=120.0), max_inflight=64)
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    started = time.monotonic()
    legs: List[Dict[str, object]] = []
    try:
        # Warm the workers (imports, caches) outside any timed leg; the
        # warmup benchmark is not in the slate, so the cold leg stays cold.
        _serve_drive(server, [request_payload(SERVE_WARMUP_BENCHMARK)], 1)

        def timed_leg(name: str, payloads, unique: int) -> Dict[str, object]:
            leg_started = time.perf_counter()
            rows = _serve_drive(server, payloads, clients)
            wall = time.perf_counter() - leg_started
            latencies = [row["seconds"] for row in rows]
            hits = sum(1 for row in rows if row["store_hit"])
            leg = {
                "name": name,
                "requests": len(rows),
                "unique": unique,
                "seconds": round(wall, 4),
                "requests_per_sec": round(len(rows) / wall, 3) if wall else 0.0,
                "p50_ms": round(_serve_percentile(latencies, 0.50) * 1000, 3),
                "p99_ms": round(_serve_percentile(latencies, 0.99) * 1000, 3),
                "mean_ms": round(sum(latencies) / len(rows) * 1000, 3) if rows else 0.0,
                "store_hits": hits,
                "hit_ratio": round(hits / len(rows), 4) if rows else 0.0,
                "schema_valid": sum(1 for row in rows if row["schema_valid"]),
                "definitive": sum(1 for row in rows if row["definitive"]),
            }
            legs.append(leg)
            return leg

        # 1. cold — every request is a miss into an empty store.
        cold = timed_leg(
            "cold", [request_payload(name) for name in slate], unique=len(slate)
        )

        # 2. warm_repeat — the repeat-heavy leg: all hits, no admission
        # slot, no engine run, certificate included in every reply.
        warm_stream = [
            request_payload(slate[index % len(slate)])
            for index in range(len(slate) * warm_repeats)
        ]
        warm = timed_leg("warm_repeat", warm_stream, unique=len(slate))

        # 3. mixed — ~70% repeats / ~30% fresh variants (new seeds solve
        # identically but fingerprint differently, so they are real misses).
        mixed_stream: List[Dict[str, object]] = []
        fresh = 0
        for index in range(len(slate) * 3):
            benchmark = slate[index % len(slate)]
            if index % 10 < 3:
                fresh += 1
                mixed_stream.append(request_payload(benchmark, seed=1000 + index))
            else:
                mixed_stream.append(request_payload(benchmark))
        mixed = timed_leg("mixed", mixed_stream, unique=len(slate) + fresh)

        store_snapshot = store.snapshot()
    finally:
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=10)
        install_fabric(previous_fabric)
        fabric.shutdown()
        install_result_store(previous_store)
        if previous_env is None:
            os.environ.pop(STORE_ENV, None)
        else:
            os.environ[STORE_ENV] = previous_env
        store.close()
        shutil.rmtree(tempdir, ignore_errors=True)

    total_requests = sum(leg["requests"] for leg in legs)
    schema_valid = sum(leg["schema_valid"] for leg in legs)
    definitive = sum(leg["definitive"] for leg in legs)
    cold_rps = cold["requests_per_sec"]
    warm_rps = warm["requests_per_sec"]
    return {
        "clients": clients,
        "workers": workers,
        "slate": slate,
        "legs": legs,
        "store": store_snapshot,
        "summary": {
            "requests": total_requests,
            "schema_valid": schema_valid,
            "all_schema_valid": schema_valid == total_requests,
            "all_definitive": definitive == total_requests,
            "cold_rps": cold_rps,
            "warm_rps": warm_rps,
            "gate_warm_vs_cold_throughput": (
                round(warm_rps / cold_rps, 3) if cold_rps else None
            ),
            "warm_hit_ratio": warm["hit_ratio"],
            "mixed_hit_ratio": mixed["hit_ratio"],
            "warm_p50_ms": warm["p50_ms"],
            "warm_p99_ms": warm["p99_ms"],
            "cold_p50_ms": cold["p50_ms"],
            "cold_p99_ms": cold["p99_ms"],
            "total_seconds": round(time.monotonic() - started, 4),
        },
    }


# ---------------------------------------------------------------------------
# The declarations
# ---------------------------------------------------------------------------

SUITES: Dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            "fixpoint",
            "BENCH_fixpoint.json",
            # 2: added the ``certification`` section.
            2,
            _run_fixpoint,
            (
                ("workload", "name", ""),
                ("worklist", "worklist.median_seconds", ".4f"),
                ("dense", "dense.median_seconds", ".4f"),
                ("speedup", "speedup", ".1f"),
                ("evals(w)", "worklist.evaluations", "d"),
                ("evals(d)", "dense.evaluations", "d"),
            ),
        ),
        Suite(
            "logic",
            "BENCH_logic.json",
            1,
            _run_logic,
            (
                ("workload", "name", ""),
                ("queries", "queries", "d"),
                ("inc q/s", "incremental.queries_per_second", ".0f"),
                ("ref q/s", "reference.queries_per_second", ".0f"),
                ("speedup", "speedup", ".1f"),
                ("lemma", "incremental.stats.lemma_hits", "d"),
                ("cache", "incremental.stats.theory_cache_hits", "d"),
                ("pivots", "incremental.stats.simplex_pivots", "d"),
            ),
            gates=(
                Gate("incremental.queries_per_second", ">=", None, 0.5, relative=True),
            ),
        ),
        Suite(
            "domains",
            "BENCH_domains.json",
            1,
            _run_domains,
            (
                ("workload", "name", ""),
                ("|E|", "examples", "d"),
                ("ref ex/s", "reference.examples_per_sec", ".0f"),
                ("py ex/s", "python.examples_per_sec", ".0f"),
                ("np ex/s", "numpy.examples_per_sec", ".0f"),
                ("np/ref", "numpy_vs_reference", ".1f"),
                ("np/py", "numpy_vs_python", ".1f"),
            ),
            gates=(
                Gate("gate_numpy_speedup_e1000", ">=", 5.0, 3.0),
                Gate("gate_python_small_e_slowdown", "<=", 1.1, 1.3),
            ),
        ),
        Suite(
            "grammar",
            "BENCH_grammar.json",
            1,
            _run_grammar,
            (
                ("workload", "name", ""),
                ("|P| off", "productions.before", "d"),
                ("|P| oe", "productions.after", "d"),
                ("evals off", "off.evaluations", "d"),
                ("evals oe", "oe.evaluations", "d"),
                ("reduction", "evaluation_reduction", ".1f"),
                ("oe/off", "wall_ratio_oe_vs_off", ".2f"),
                ("cold", "speedup_cold", ".1f"),
                ("warm", "speedup_warm", ".1f"),
            ),
            gates=(
                Gate("gate_oe_evaluation_reduction", ">=", 2.0, 2.0),
                Gate("gate_enumerator_speedup", ">=", 1.0, None),
                Gate("gate_prune_wall_ratio", "<=", None, 1.25),
            ),
        ),
        Suite(
            "chaos",
            "BENCH_chaos.json",
            1,
            _run_chaos,
            (
                ("scenario", "name", ""),
                ("reqs", "requests", "d"),
                ("ok", "ok", ""),
                ("retries", "retries", "d"),
                ("replaced", "workers_replaced", "d"),
            ),
            gates=(
                Gate("requests", ">=", 20, 20),
                Gate("all_well_formed", "==", True, True),
                Gate("all_scenarios_ok", "==", True, True),
                Gate("fault_kind_count", ">=", 4, 4),
            ),
            rows_key="scenarios",
        ),
        Suite(
            "serve",
            "BENCH_serve.json",
            1,
            _run_serve,
            (
                ("leg", "name", ""),
                ("reqs", "requests", "d"),
                ("uniq", "unique", "d"),
                ("rps", "requests_per_sec", ".1f"),
                ("p50ms", "p50_ms", ".1f"),
                ("p99ms", "p99_ms", ".1f"),
                ("hits", "store_hits", "d"),
                ("ratio", "hit_ratio", ".2f"),
            ),
            gates=(
                Gate("gate_warm_vs_cold_throughput", ">=", 5.0, 3.0),
                Gate("all_schema_valid", "==", True, True),
                Gate("all_definitive", "==", True, None),
                Gate("warm_hit_ratio", ">=", 1.0, 1.0),
            ),
            rows_key="legs",
        ),
    )
}

#: The suites ``--suite all`` runs: every timing suite (chaos and serve
#: start worker fabrics and a server, so they run only when named).
TIMING_SUITES = ("fixpoint", "logic", "domains", "grammar")
