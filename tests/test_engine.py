"""Tests for the engine subsystem: registry, checker injection, the
experiments on ``solve_batch``, cache accounting, and JSONL persistence."""

from __future__ import annotations

import pytest

from repro.api.facade import apply_timeout_policy
from repro.baselines import NayHorn, NaySL, Nope
from repro.engine import (
    UnknownEngineError,
    cache_stats,
    clear_cache,
    create_engine,
    engine_names,
    get_engine_class,
    render_stable,
    stable_fingerprint,
    stable_view,
)
from repro.engine.cache import GfaCache, grammar_fingerprint
from repro.engine.results import ResultsStore
from repro.experiments import ENGINE_ORDER, fig2, fig3, table1
from repro.semantics.examples import ExampleSet
from repro.suites import get_benchmark
from repro.suites.scaling import chain_grammar
from repro.unreal.cegis import NayConfig, NaySolver
from repro.unreal.result import CheckResult, Verdict
from repro.utils.errors import ReproError


class TestRegistry:
    def test_builtin_engines_registered(self):
        names = engine_names()
        for expected in ("naySL", "nayHorn", "nope"):
            assert expected in names
        assert tuple(name for name in ENGINE_ORDER) == ("naySL", "nayHorn", "nope")

    def test_create_engine_returns_registered_class(self):
        assert isinstance(create_engine("naySL"), NaySL)
        assert isinstance(create_engine("nayHorn"), NayHorn)
        assert isinstance(create_engine("nope"), Nope)
        assert get_engine_class("naySL") is NaySL

    def test_create_engine_passes_knobs(self):
        engine = create_engine("naySL", seed=7, timeout_seconds=12.0, stratify=False)
        assert engine.seed == 7
        assert engine.timeout_seconds == 12.0
        assert engine.name == "naySL-nostrat"

    def test_unknown_engine_error(self):
        with pytest.raises(UnknownEngineError) as excinfo:
            create_engine("cvc4")
        assert "cvc4" in str(excinfo.value)
        assert "naySL" in str(excinfo.value)  # lists what is available
        assert issubclass(UnknownEngineError, ReproError)

    def test_configure_returns_new_engine(self):
        engine = create_engine("nayHorn", seed=0)
        tuned = engine.configure(timeout_seconds=5.0)
        assert tuned is not engine
        assert tuned.timeout_seconds == 5.0
        assert engine.timeout_seconds is None  # original untouched
        with pytest.raises(ValueError):
            engine.configure(no_such_knob=1)


class TestCheckerInjection:
    def test_config_checker_replaces_dispatch(self, running_example_problem):
        calls = []

        def checker(problem, examples):
            calls.append(len(examples))
            return CheckResult(verdict=Verdict.UNREALIZABLE, examples=examples)

        solver = NaySolver(NayConfig(seed=0, checker=checker))
        result = solver.solve(running_example_problem)
        assert result.verdict == Verdict.UNREALIZABLE
        assert calls, "injected checker was never invoked"
        # The injection goes through configuration, not method assignment.
        assert "check_examples" not in vars(solver)

    def test_nope_solve_uses_injected_checker(self, running_example_problem):
        result = Nope(seed=0).solve(
            running_example_problem, initial_examples=ExampleSet.of({"x": 1})
        )
        assert result.verdict == Verdict.UNREALIZABLE


class TestTimeoutPolicy:
    def test_two_sided_verdicts_survive_late_finishes(self):
        assert (
            apply_timeout_policy(Verdict.UNREALIZABLE, elapsed=10.0, timeout=1.0)
            == Verdict.UNREALIZABLE
        )
        assert (
            apply_timeout_policy(Verdict.REALIZABLE, elapsed=10.0, timeout=1.0)
            == Verdict.REALIZABLE
        )

    def test_undetermined_late_finishes_time_out(self):
        assert (
            apply_timeout_policy(Verdict.UNKNOWN, elapsed=10.0, timeout=1.0)
            == Verdict.TIMEOUT
        )

    def test_within_deadline_untouched(self):
        for verdict in Verdict:
            assert apply_timeout_policy(verdict, elapsed=0.5, timeout=1.0) == verdict
        assert apply_timeout_policy(Verdict.UNKNOWN, 100.0, None) == Verdict.UNKNOWN


@pytest.fixture
def two_benchmark_table1(monkeypatch):
    """A two-benchmark slice of quick Table 1 (6 cells) keeps these fast;
    the full quick table goes through the identical code path."""
    import repro.experiments as experiments_module

    monkeypatch.setattr(experiments_module, "QUICK_TABLE1", ["plane1", "plane2"])


def _as_dicts(rows):
    return [row.as_dict() for row in rows]


class TestExperiments:
    def test_serial_rows_are_ordered_and_complete(self, two_benchmark_table1):
        rows = _as_dicts(table1(quick=True, workers=1, timeout=60.0))
        assert [row["benchmark"] for row in rows] == ["plane1"] * 3 + ["plane2"] * 3
        assert [row["tool"] for row in rows] == list(ENGINE_ORDER) * 2
        assert rows[0]["verdict"] == "unrealizable"
        assert all(row["suite"] == "LimitedPlus" for row in rows)
        assert fig2(sizes=[5], example_counts=(2,))[0]["semilinear_size"] >= 1

    def test_parallel_matches_serial_byte_for_byte(self):
        # Scaling cells carry their problem inline (``sl``), so this covers
        # the inline-request path on the fabric.
        serial = fig3(example_counts=(1, 2), sizes=(3, 4), workers=1)
        parallel = fig3(example_counts=(1, 2), sizes=(3, 4), workers=4)
        assert stable_fingerprint(serial) == stable_fingerprint(parallel)
        assert render_stable(serial) == render_stable(parallel)
        assert [point["nonterminals"] for point in serial] == [3, 3, 4, 4]
        assert [point["examples"] for point in serial] == [1, 2, 1, 2]

    def test_same_name_benchmarks_resolve_within_their_suite(self, monkeypatch):
        # ``guard1`` exists in LimitedPlus and LimitedIf with different
        # witness sets; the quick table's LimitedIf cells must not solve
        # the LimitedPlus namesake.
        import repro.experiments as experiments_module

        monkeypatch.setattr(experiments_module, "QUICK_TABLE1", ["guard1"])
        rows = _as_dicts(table1(quick=True, workers=1, timeout=60.0))
        witness = get_benchmark("guard1", "LimitedIf").witness_examples
        assert len(witness) != len(get_benchmark("guard1", "LimitedPlus").witness_examples)
        assert [row["suite"] for row in rows] == ["LimitedIf"] * 3
        assert [row["examples"] for row in rows] == [len(witness)] * 3

    def test_inline_scaling_problems_keep_the_grammar(self):
        # Fig. 3/5 cells send the scaling problem through print/parse; the
        # round trip regroups productions by nonterminal but keeps every
        # nonterminal's productions, in order, and the constraint.
        from repro.suites.scaling import scaling_benchmark
        from repro.sygus import parse_sygus, print_sygus

        for size in (3, 4, 5):
            original = scaling_benchmark(size).problem
            parsed = parse_sygus(print_sygus(original))
            grammar, round_tripped = original.grammar, parsed.grammar
            assert round_tripped.start == grammar.start
            assert round_tripped.nonterminals == grammar.nonterminals
            for nonterminal in grammar.nonterminals:
                assert tuple(round_tripped.productions_of(nonterminal)) == tuple(
                    grammar.productions_of(nonterminal)
                )
            assert print_sygus(parsed) == print_sygus(original)

    def test_stable_view_strips_timing(self):
        row = {"tool": "naySL", "verdict": "unrealizable", "seconds": 1.23}
        assert "seconds" not in stable_view(row)
        assert stable_view(row)["tool"] == "naySL"

    def test_table1_parallel_equals_serial(self, two_benchmark_table1):
        serial = _as_dicts(table1(quick=True, workers=1, timeout=60.0))
        parallel = _as_dicts(table1(quick=True, workers=4, timeout=60.0))
        assert len(serial) == 2 * len(ENGINE_ORDER)
        assert stable_fingerprint(serial) == stable_fingerprint(parallel)


class TestCache:
    def test_fig2_normalizes_each_grammar_once_per_size(self):
        clear_cache()
        fig2(sizes=[3, 5], example_counts=(1, 2))
        stats = cache_stats()
        # 2 sizes x 2 example counts = 4 points, but each scaling grammar is
        # constructed/normalized exactly once per size.
        assert stats.normalize_misses == 2
        assert stats.normalize_hits == 2

    def test_fingerprint_is_structural_not_nominal(self):
        first = chain_grammar(3, name="a")
        second = chain_grammar(3, name="b")
        assert grammar_fingerprint(first) == grammar_fingerprint(second)
        assert grammar_fingerprint(first) != grammar_fingerprint(chain_grammar(4))

    def test_cache_hit_returns_same_object(self):
        cache = GfaCache()
        grammar = chain_grammar(4)
        first = cache.normalized(grammar)
        second = cache.normalized(chain_grammar(4))
        assert first is second
        assert cache.stats.normalize_misses == 1
        assert cache.stats.normalize_hits == 1

    def test_disabled_cache_rebuilds(self):
        cache = GfaCache(enabled=False)
        grammar = chain_grammar(3)
        assert cache.normalized(grammar) is not cache.normalized(grammar)
        assert cache.stats.normalize_hits == 0

    def test_lru_eviction_bounds_entries(self):
        cache = GfaCache(max_entries=2)
        for length in (2, 3, 4, 5):
            cache.normalized(chain_grammar(length))
        assert len(cache._normalized) == 2
        # Oldest entry evicted: re-requesting it misses again.
        cache.normalized(chain_grammar(2))
        assert cache.stats.normalize_misses == 5


class TestResultsStore:
    def test_jsonl_round_trip(self, tmp_path, two_benchmark_table1):
        out = str(tmp_path / "results")
        rows = _as_dicts(table1(quick=True, workers=1, timeout=60.0, out=out))
        points = fig2(sizes=[3], example_counts=(1,), out=out)
        store = ResultsStore(tmp_path / "results")
        assert store.path_for("table1").name == "table1.jsonl"
        persisted = store.load("table1")
        assert len(persisted) == len(rows)
        for row, record in zip(rows, persisted):
            for key, value in row.items():
                assert record[key] == value
            assert record["experiment"] == "table1"
            assert record["workers"] == 1
        (record,) = store.load("fig2")
        for key, value in points[0].items():
            assert record[key] == value
        assert record["stratify"] is True

    def test_latest_run_and_diff(self, tmp_path):
        store = ResultsStore(tmp_path)
        first = [{"benchmark": "b", "tool": "naySL", "verdict": "unrealizable", "seconds": 1.0}]
        store.append("exp", first)
        assert store.diff_latest("exp", first) == []
        flipped = [{"benchmark": "b", "tool": "naySL", "verdict": "unknown", "seconds": 9.9}]
        changed = store.diff_latest("exp", flipped)
        assert len(changed) == 1
        # Timing-only changes are not regressions.
        slower = [{"benchmark": "b", "tool": "naySL", "verdict": "unrealizable", "seconds": 99.0}]
        assert store.diff_latest("exp", slower) == []

    def test_empty_experiment_loads_empty(self, tmp_path):
        store = ResultsStore(tmp_path)
        assert store.load("missing") == []
        assert store.latest_run("missing") == []


class TestCliIntegration:
    def test_engines_subcommand(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ENGINE_ORDER:
            assert name in out

    def test_check_examples_override(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["check", "plane1", "--tool", "naySL", "--examples", "2"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out

    def test_gfa_figures_solve_in_this_process(self, monkeypatch, capsys):
        # Counted here, so a point solved in any worker process is missed.
        import repro.unreal.lia as lia_module
        from repro.experiments import main as experiments_main

        calls = []
        solve = lia_module.solve_lia_gfa

        def counting_solve(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(lia_module, "solve_lia_gfa", counting_solve)
        assert experiments_main(["fig2", "--workers", "2"]) == 0
        assert "semilinear_size" in capsys.readouterr().out
        assert len(calls) == 3 * 4  # quick fig2: 3 sizes x |E| = 1..4

    def test_experiments_workers_flag(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["experiments", "fig4", "--workers", "2"]) == 0
        assert "stratified_seconds" in capsys.readouterr().out

    def test_resize_examples_tops_up_deterministically(self):
        benchmark = get_benchmark("plane1", "LimitedPlus")
        witness = benchmark.witness_examples
        variables = benchmark.problem.variables
        grown = witness.resized(variables, len(witness) + 2)
        assert len(grown) == len(witness) + 2
        again = witness.resized(variables, len(witness) + 2)
        assert grown == again
        shrunk = witness.resized(variables, 1)
        assert len(shrunk) == 1
