"""Tests for the benchmark suites, the Horn encoding, and the three baselines."""

from __future__ import annotations

import pytest

from repro.baselines import NayHorn, NaySL, Nope
from repro.horn.clauses import encode_gfa_as_horn
from repro.semantics.examples import ExampleSet
from repro.suites import all_benchmarks, benchmarks_by_suite, get_benchmark
from repro.suites.scaling import chain_grammar, example_set, scaling_suite
from repro.unreal.result import Verdict
from repro.utils.deadline import deadline
from repro.utils.errors import ReproError
from tests.conftest import brute_force_witness

ALL_BENCHMARKS = all_benchmarks()
SUITES = benchmarks_by_suite()

#: A fast, representative subset whose witnesses naySL decides in well under a
#: second each; used for the end-to-end soundness checks.
FAST_WITNESS_BENCHMARKS = [
    ("plane1", "LimitedPlus"),
    ("plane2", "LimitedPlus"),
    ("guard1", "LimitedPlus"),
    ("guard3", "LimitedPlus"),
    ("search_2", "LimitedPlus"),
    ("max2_plus", "LimitedPlus"),
    ("example1", "LimitedIf"),
    ("sum_2_5", "LimitedIf"),
    ("array_search_2", "LimitedConst"),
    ("array_sum_2_5", "LimitedConst"),
    ("mpg_example1", "LimitedConst"),
    ("mpg_guard1", "LimitedConst"),
    ("mpg_ite1", "LimitedConst"),
    ("mpg_plane2", "LimitedConst"),
]


class TestSuiteStructure:
    def test_suite_sizes_match_paper(self):
        assert len(SUITES["LimitedPlus"]) == 30
        assert len(SUITES["LimitedIf"]) == 57
        assert len(SUITES["LimitedConst"]) == 45
        assert len(ALL_BENCHMARKS) == 132

    def test_benchmark_names_unique_within_suite(self):
        for suite, benchmarks in SUITES.items():
            names = [benchmark.name for benchmark in benchmarks]
            assert len(names) == len(set(names)), f"duplicate names in {suite}"

    def test_lookup(self):
        assert get_benchmark("max2", "LimitedIf").suite == "LimitedIf"
        with pytest.raises(ReproError):
            get_benchmark("does-not-exist")

    @pytest.mark.parametrize(
        "entry", ALL_BENCHMARKS, ids=[str(b) for b in ALL_BENCHMARKS]
    )
    def test_benchmark_well_formed(self, entry):
        """Every generated benchmark has a CLIA grammar, a spec over its own
        variables, and (when recorded) witness examples over those variables."""
        grammar = entry.problem.grammar
        assert grammar.is_clia()
        assert grammar.num_nonterminals >= 1
        assert grammar.num_productions >= 2
        spec_variables = set(entry.problem.variables)
        assert set(grammar.variables()) <= spec_variables
        if entry.witness_examples is not None and len(entry.witness_examples):
            assert set(entry.witness_examples.variables()) == spec_variables

    @pytest.mark.parametrize("name,suite", FAST_WITNESS_BENCHMARKS)
    def test_witnesses_prove_unrealizability(self, name, suite):
        benchmark = get_benchmark(name, suite)
        result = NaySL(seed=0).check(benchmark.problem, benchmark.witness_examples)
        assert result.verdict == Verdict.UNREALIZABLE

    @pytest.mark.parametrize("name,suite", FAST_WITNESS_BENCHMARKS[:8])
    def test_witness_verdicts_agree_with_brute_force(self, name, suite):
        benchmark = get_benchmark(name, suite)
        witness = brute_force_witness(
            benchmark.problem, benchmark.witness_examples, max_size=6
        )
        assert witness is None, f"{name}: found {witness} despite UNREALIZABLE verdict"

    def test_scaling_suite_grammar_sizes(self):
        for benchmark in scaling_suite([3, 6, 9]):
            assert benchmark.problem.grammar.num_nonterminals >= 3

    def test_chain_grammar_semantics(self):
        from repro.semantics.evaluator import evaluate

        grammar = chain_grammar(3)
        examples = example_set(1)
        outputs = {evaluate(term, examples)[0] for term in grammar.generate(max_size=14)}
        assert outputs <= {0, 3, 6, 9, 12}


class TestHornEncoding:
    def test_clause_shapes(self, running_example_problem):
        examples = ExampleSet.of({"x": 1}, {"x": 2})
        system = encode_gfa_as_horn(
            running_example_problem.grammar, examples, running_example_problem.spec
        )
        rendered = system.render()
        assert "declare-rel" in rendered
        assert "(rule" in rendered
        # One clause per production of the normalised grammar.
        assert len(system.clauses) >= running_example_problem.grammar.num_productions

    def test_clia_encoding_supported(self, clia_example_problem):
        examples = ExampleSet.of({"x": 1})
        system = encode_gfa_as_horn(
            clia_example_problem.grammar, examples, clia_example_problem.spec
        )
        assert any("ite" in clause.constraint for clause in system.clauses)


class TestBaselines:
    def test_nay_sl_and_horn_agree_on_unrealizable(self, running_example_problem):
        examples = ExampleSet.of({"x": 1})
        exact = NaySL(seed=0).check(running_example_problem, examples)
        approximate = NayHorn(seed=0).check(running_example_problem, examples)
        assert exact.verdict == Verdict.UNREALIZABLE
        assert approximate.verdict in (Verdict.UNREALIZABLE, Verdict.UNKNOWN)

    def test_nope_matches_nayhorn_verdicts(self):
        """§8.1: nayHorn and nope solve identical instances."""
        for name, suite in FAST_WITNESS_BENCHMARKS[:6]:
            benchmark = get_benchmark(name, suite)
            horn = NayHorn(seed=0).check(benchmark.problem, benchmark.witness_examples)
            nope = Nope(seed=0).check(benchmark.problem, benchmark.witness_examples)
            assert horn.verdict == nope.verdict

    def test_nope_program_encoding(self, running_example_problem):
        examples = ExampleSet.of({"x": 1})
        program = Nope().program(running_example_problem, examples)
        rendered = program.render()
        assert "proc gen_Start" in rendered
        assert "assert" in rendered

    def test_nay_sl_cegis_on_benchmark(self):
        benchmark = get_benchmark("plane1", "LimitedPlus")
        with deadline(120):
            result = NaySL(seed=0).solve(benchmark.problem)
        assert result.verdict == Verdict.UNREALIZABLE

    def test_tool_names(self):
        assert NaySL().name == "naySL"
        assert NaySL(stratify=False).name == "naySL-nostrat"
        assert NayHorn().name == "nayHorn"
        assert Nope().name == "nope"


class TestExperimentsHarness:
    def test_fig2_quick(self):
        from repro.experiments import fig2

        points = fig2(sizes=[3, 5], example_counts=(1,))
        assert len(points) == 2
        assert all(point["seconds"] >= 0 for point in points)

    def test_fig4_quick(self):
        from repro.experiments import fig4

        points = fig4(sizes=[5], example_count=1)
        assert len(points) == 1

    def test_render_rows(self):
        from repro.experiments import render_rows

        text = render_rows([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        assert "a" in text and "22" in text

    def test_table2_single_cell(self):
        from repro.experiments import table2

        rows = table2(quick=True, timeout=60)
        nay_rows = [row for row in rows if row.tool == "naySL"]
        assert all(row.verdict == "unrealizable" for row in nay_rows)
