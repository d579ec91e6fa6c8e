"""Proving unrealizability for a CLIA grammar with conditionals (§2, §6).

This example builds the paper's second illustrative grammar (Eqn. 5) — LIA
terms plus IfThenElse and Boolean guards — programmatically, and shows the
full §6 machinery at work: SolveBool for the guards, RemIf + Newton's method
for the integer nonterminals, and the final SMT-style check.

It also demonstrates the two-sided nature of the exact procedure: on some
example sets the problem is provably realizable (and the enumerative
synthesizer exhibits a witness term), on others more examples are needed.

Run with:  python examples/clia_conditionals.py
"""

from __future__ import annotations

from repro import ExampleSet, NaySL, SyGuSProblem
from repro.grammar import alphabet as alph
from repro.grammar.alphabet import Sort
from repro.grammar.rtg import Nonterminal, Production, RegularTreeGrammar
from repro.suites.base import scaled_variable_spec
from repro.synth.enumerator import EnumerativeSynthesizer
from repro.unreal.clia import check_clia_examples, solve_clia_gfa
from repro.utils.deadline import deadline


def build_grammar() -> RegularTreeGrammar:
    """The CLIA grammar G2 of Eqn. (5)."""
    start = Nonterminal("Start")
    guard = Nonterminal("BExp", Sort.BOOL)
    exp2 = Nonterminal("Exp2")
    exp3 = Nonterminal("Exp3")
    var_x = Nonterminal("X")
    zero = Nonterminal("N0")
    two = Nonterminal("N2")
    productions = [
        Production(start, alph.if_then_else(), (guard, exp3, start)),
        Production(start, alph.pass_through(Sort.INT), (exp2,)),
        Production(start, alph.pass_through(Sort.INT), (exp3,)),
        Production(guard, alph.less_than(), (var_x, two)),
        Production(guard, alph.less_than(), (zero, start)),
        Production(guard, alph.and_(), (guard, guard)),
        Production(exp2, alph.plus(3), (var_x, var_x, exp2)),
        Production(exp2, alph.num(0), ()),
        Production(exp3, alph.plus(4), (var_x, var_x, var_x, exp3)),
        Production(exp3, alph.num(0), ()),
        Production(var_x, alph.var("x"), ()),
        Production(zero, alph.num(0), ()),
        Production(two, alph.num(2), ()),
    ]
    return RegularTreeGrammar(
        [start, guard, exp2, exp3, var_x, zero, two], start, productions, name="G2"
    )


def main() -> None:
    grammar = build_grammar()
    spec = scaled_variable_spec("x", 2, 2)  # f(x) = 2x + 2
    problem = SyGuSProblem("clia-example", grammar, spec, logic="CLIA")
    print(problem.describe())
    print(grammar)
    print()

    # Inspect the exact abstraction on E = {1, 2}: the Boolean guards'
    # reachable truth vectors and the semi-linear set of the start symbol.
    examples = ExampleSet.of({"x": 1}, {"x": 2})
    solution = solve_clia_gfa(grammar, examples)
    print(f"SolveMutual converged in {solution.outer_iterations} outer iterations")
    for nonterminal, value in solution.boolean_values.items():
        print(f"  {nonterminal}: {value}")
    print(f"  Start: {solution.start_value}")

    result = check_clia_examples(problem, examples)
    print(f"check on E = {examples}: {result.verdict.value}")
    if result.verdict.value == "realizable":
        witness = EnumerativeSynthesizer(max_size=12).synthesize(problem, examples)
        if witness.found:
            print(f"  witness term on E: {witness.solution.to_sexpr()}")

    # The full CEGIS loop decides the problem by growing the example set.
    with deadline(120):
        outcome = NaySL(seed=1).solve(problem)
    print(
        f"CEGIS verdict: {outcome.verdict.value} with {outcome.num_examples} examples"
    )
    if outcome.solution is not None:
        print(f"  solution: {outcome.solution.to_sexpr()}")


if __name__ == "__main__":
    main()
