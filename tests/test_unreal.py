"""Tests for the unrealizability checkers: LIA, CLIA, approximate, and CEGIS."""

from __future__ import annotations

import pytest

from repro.grammar import alphabet as alph
from repro.grammar.rtg import Nonterminal, Production, RegularTreeGrammar
from repro.semantics.examples import ExampleSet
from repro.suites.base import bounded_ite_grammar, linear_spec, max_spec, scaled_variable_spec
from repro.sygus.problem import SyGuSProblem
from repro.synth.enumerator import EnumerativeSynthesizer
from repro.synth.verifier import Verifier
from repro.unreal.approximate import check_examples_abstract
from repro.unreal.cegis import NayConfig, NaySolver
from repro.unreal.clia import check_clia_examples, solve_clia_gfa
from repro.unreal.lia import check_lia_examples, solve_lia_gfa
from repro.unreal.result import Verdict
from tests.conftest import brute_force_witness


class TestLiaProcedure:
    def test_running_example_unrealizable(self, running_example_problem):
        examples = ExampleSet.of({"x": 1})
        result = check_lia_examples(running_example_problem, examples)
        assert result.verdict == Verdict.UNREALIZABLE
        assert brute_force_witness(running_example_problem, examples, max_size=10) is None

    def test_gconst_realizable_on_any_examples(self):
        """Example 3.8: the constant grammar always satisfies f(x) > x on finite E."""
        start = Nonterminal("Start")
        grammar = RegularTreeGrammar(
            [start],
            start,
            [
                Production(start, alph.plus(2), (start, start)),
                Production(start, alph.num(1), ()),
            ],
            name="Gconst",
        )
        from repro.logic.formulas import atom_gt
        from repro.logic.terms import LinearExpression
        from repro.sygus.spec import OUTPUT_VARIABLE, Specification

        spec = Specification(
            atom_gt(
                LinearExpression.variable(OUTPUT_VARIABLE), LinearExpression.variable("x")
            ),
            ("x",),
            description="f(x) > x",
        )
        problem = SyGuSProblem("gconst", grammar, spec)
        for values in [{"x": 0}, {"x": 5}, {"x": -7}]:
            examples = ExampleSet.of(values)
            assert check_lia_examples(problem, examples).verdict == Verdict.REALIZABLE

    def test_empty_language_is_unrealizable(self):
        start = Nonterminal("Start")
        grammar = RegularTreeGrammar(
            [start], start, [Production(start, alph.plus(2), (start, start))]
        )
        problem = SyGuSProblem("empty", grammar, scaled_variable_spec("x", 1, 0))
        result = check_lia_examples(problem, ExampleSet.of({"x": 1}))
        assert result.verdict == Verdict.UNREALIZABLE

    def test_empty_example_set(self, running_example_problem):
        result = check_lia_examples(running_example_problem, ExampleSet())
        assert result.verdict == Verdict.REALIZABLE

    def test_realizable_when_target_in_language(self, running_example_grammar):
        """f(x) = 3x is in the running-example grammar, so sy_E is realizable."""
        problem = SyGuSProblem(
            "threex", running_example_grammar, scaled_variable_spec("x", 3, 0)
        )
        examples = ExampleSet.of({"x": 1}, {"x": 4})
        result = check_lia_examples(problem, examples)
        assert result.verdict == Verdict.REALIZABLE
        assert brute_force_witness(problem, examples, max_size=8) is not None

    def test_verdicts_match_brute_force_on_random_examples(self, running_example_problem):
        for value in (-3, 0, 2, 3):
            examples = ExampleSet.of({"x": value})
            verdict = check_lia_examples(running_example_problem, examples).verdict
            witness = brute_force_witness(running_example_problem, examples, max_size=10)
            if verdict == Verdict.UNREALIZABLE:
                assert witness is None
            # x = 0 makes 2x+2 = 2 unreachable (all outputs are 0); x = -3
            # likewise; x = 1 gives 4 vs multiples of 3.  A found witness
            # forces a REALIZABLE verdict.
            if witness is not None:
                assert verdict == Verdict.REALIZABLE


class TestCliaProcedure:
    def test_paper_grammar_single_example(self, clia_example_problem):
        examples = ExampleSet.of({"x": 1})
        result = check_clia_examples(clia_example_problem, examples)
        assert result.verdict == Verdict.REALIZABLE
        assert brute_force_witness(clia_example_problem, examples, max_size=8) is not None

    def test_paper_grammar_two_examples(self, clia_example_problem):
        """§2 claims E = {1 -> 4, 2 -> 6} proves unrealizability of G2, but a
        witness term does exist, so the exact checker must answer
        REALIZABLE.  The witness is constructed explicitly here:
        ite(0 < ite(x < 2, 0, x+x+x), x+x+x, x+x+x+x)."""
        from repro.grammar import alphabet as alph
        from repro.grammar.terms import Term

        examples = ExampleSet.of({"x": 1}, {"x": 2})
        x = Term.leaf(alph.var("x"))
        zero = Term.leaf(alph.num(0))
        two = Term.leaf(alph.num(2))
        three_x = Term.apply(alph.plus(4), x, x, x, zero)
        four_x = Term.apply(alph.plus(3), x, x, Term.apply(alph.plus(3), x, x, zero))
        inner = Term.apply(
            alph.if_then_else(), Term.apply(alph.less_than(), x, two), zero, three_x
        )
        witness = Term.apply(
            alph.if_then_else(),
            Term.apply(alph.less_than(), zero, inner),
            three_x,
            four_x,
        )
        assert clia_example_problem.satisfies_examples(witness, examples)
        result = check_clia_examples(clia_example_problem, examples)
        assert result.verdict == Verdict.REALIZABLE

    def test_limited_if_max2_unrealizable(self):
        grammar = bounded_ite_grammar(["x", "y"], [0, 1], ite_budget=0)
        problem = SyGuSProblem("max2-noite", grammar, max_spec(["x", "y"]), logic="CLIA")
        examples = ExampleSet.of(
            {"x": 0, "y": 1}, {"x": 1, "y": 0}, {"x": 1, "y": 1}, {"x": 2, "y": 0}
        )
        result = check_clia_examples(problem, examples)
        assert result.verdict == Verdict.UNREALIZABLE
        assert brute_force_witness(problem, examples, max_size=7) is None

    def test_limited_if_max2_realizable_with_budget(self):
        grammar = bounded_ite_grammar(["x", "y"], [0, 1], ite_budget=1)
        problem = SyGuSProblem("max2-ite", grammar, max_spec(["x", "y"]), logic="CLIA")
        examples = ExampleSet.of({"x": 0, "y": 1}, {"x": 1, "y": 0}, {"x": 2, "y": 0})
        result = check_clia_examples(problem, examples)
        assert result.verdict == Verdict.REALIZABLE

    def test_solution_exposes_boolean_fixpoint(self, clia_example_grammar):
        examples = ExampleSet.of({"x": 1}, {"x": 2})
        solution = solve_clia_gfa(clia_example_grammar, examples)
        assert solution.outer_iterations >= 2
        assert solution.boolean_values, "expected Boolean nonterminal values"
        guard_values = next(iter(solution.boolean_values.values()))
        assert len(guard_values) >= 1


class TestApproximateChecker:
    def test_congruence_proves_running_example(self, running_example_problem):
        examples = ExampleSet.of({"x": 1})
        result = check_examples_abstract(running_example_problem, examples)
        assert result.verdict == Verdict.UNREALIZABLE

    def test_never_claims_realizable(self, running_example_grammar):
        problem = SyGuSProblem(
            "threex", running_example_grammar, scaled_variable_spec("x", 3, 0)
        )
        result = check_examples_abstract(problem, ExampleSet.of({"x": 1}))
        assert result.verdict in (Verdict.UNKNOWN, Verdict.UNREALIZABLE)
        # The problem is realizable (f = 3x), so UNREALIZABLE would be unsound.
        assert result.verdict == Verdict.UNKNOWN

    def test_clia_grammar_supported(self, clia_example_problem):
        result = check_examples_abstract(clia_example_problem, ExampleSet.of({"x": 1}))
        assert result.verdict in (Verdict.UNKNOWN, Verdict.UNREALIZABLE)


class TestSynthesizerAndVerifier:
    def test_enumerator_finds_consistent_term(self, clia_example_problem):
        examples = ExampleSet.of({"x": 1})
        outcome = EnumerativeSynthesizer(max_size=8).synthesize(
            clia_example_problem, examples
        )
        assert outcome.found
        assert clia_example_problem.satisfies_examples(outcome.solution, examples)

    def test_enumerator_respects_observational_equivalence(self, running_example_problem):
        examples = ExampleSet.of({"x": 1})
        outcome = EnumerativeSynthesizer(max_size=9).synthesize(
            running_example_problem, examples
        )
        # f(x) = 2x + 2 is not satisfiable by any 3kx term on x = 1.
        assert not outcome.found

    def test_verifier_accepts_correct_candidate(self):
        from repro.grammar.terms import Term

        grammar = bounded_ite_grammar(["x", "y"], [0, 1], ite_budget=1)
        problem = SyGuSProblem("max2", grammar, max_spec(["x", "y"]), logic="CLIA")
        x = Term.leaf(alph.var("x"))
        y = Term.leaf(alph.var("y"))
        correct = Term.apply(
            alph.if_then_else(), Term.apply(alph.less_than(), x, y), y, x
        )
        assert Verifier().verify(problem, correct).is_valid

    def test_verifier_rejects_example_overfit_candidate(self):
        """A term consistent with the examples but wrong in general must be
        rejected, and the returned counterexample must expose the violation."""
        grammar = bounded_ite_grammar(["x", "y"], [0, 1], ite_budget=1)
        problem = SyGuSProblem("max2", grammar, max_spec(["x", "y"]), logic="CLIA")
        examples = ExampleSet.of({"x": 0, "y": 1}, {"x": 1, "y": 0}, {"x": 1, "y": 1})
        outcome = EnumerativeSynthesizer(max_size=9).synthesize(problem, examples)
        assert outcome.found
        verification = Verifier().verify(problem, outcome.solution)
        if not verification.is_valid:
            counterexample = verification.counterexample
            assert counterexample is not None
            assert not problem.satisfies_examples(
                outcome.solution, ExampleSet([counterexample])
            )

    def test_verifier_produces_counterexample(self, running_example_problem):
        from repro.grammar.terms import Term

        candidate = Term.leaf(alph.num(4))  # correct only on x = 1
        # Build a problem whose grammar contains the candidate so the check is fair.
        verification = Verifier().verify(running_example_problem, candidate)
        assert not verification.is_valid
        example = verification.counterexample
        assert example is not None
        assert 2 * example.value("x") + 2 != 4


class TestCegisLoop:
    def test_unrealizable_running_example(self, running_example_problem):
        solver = NaySolver(NayConfig(mode="sl", seed=0, timeout_seconds=60))
        result = solver.solve(running_example_problem)
        assert result.verdict == Verdict.UNREALIZABLE
        assert result.num_examples >= 1

    def test_realizable_problem_returns_solution(self, running_example_grammar):
        problem = SyGuSProblem(
            "threex", running_example_grammar, scaled_variable_spec("x", 3, 0)
        )
        solver = NaySolver(NayConfig(mode="sl", seed=0, timeout_seconds=60))
        result = solver.solve(problem)
        assert result.verdict == Verdict.REALIZABLE
        assert result.solution is not None
        assert Verifier().verify(problem, result.solution).is_valid

    def test_horn_mode_is_sound(self, running_example_problem):
        solver = NaySolver(NayConfig(mode="horn", seed=0, timeout_seconds=60))
        result = solver.solve(running_example_problem)
        assert result.verdict in (Verdict.UNREALIZABLE, Verdict.TIMEOUT)

    def test_initial_examples_are_respected(self, running_example_problem):
        initial = ExampleSet.of({"x": 1})
        solver = NaySolver(NayConfig(mode="sl", seed=3, timeout_seconds=60))
        result = solver.solve(running_example_problem, initial_examples=initial)
        assert result.verdict == Verdict.UNREALIZABLE
