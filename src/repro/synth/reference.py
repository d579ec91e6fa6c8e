"""The frozen pre-automaton enumerator, kept as a perf/behavior baseline.

This is the bottom-up enumerative synthesizer exactly as it shipped before
the tree-automaton rewrite of :mod:`repro.synth.enumerator`: it walks the
raw grammar term-by-term, re-deriving every table from scratch on each call.
``repro-nay bench --suite grammar`` runs it head-to-head against the
memoized enumerator to measure the candidates/sec delta, and the unit tests
use it as a differential twin (same solutions, same exhaustion behavior).
Do not extend it — improvements belong in :mod:`repro.synth.enumerator`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.grammar.alphabet import Sort
from repro.grammar.rtg import Nonterminal
from repro.grammar.terms import Term
from repro.semantics.evaluator import EvalMemo, evaluate
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.synth.outcome import SynthesisOutcome
from repro.utils.errors import SemanticsError


class ReferenceSynthesizer:
    """Bottom-up enumeration with observational-equivalence pruning."""

    def __init__(
        self,
        max_size: int = 12,
        max_terms: int = 200_000,
    ):
        self.max_size = max_size
        self.max_terms = max_terms

    def synthesize(
        self, problem: SyGuSProblem, examples: ExampleSet
    ) -> SynthesisOutcome:
        """Find a term of the grammar consistent with the examples, if any."""
        start = time.monotonic()
        grammar = problem.grammar
        if len(examples) == 0:
            # Any productive term works; enumerate the first one.
            for term in grammar.generate(max_size=self.max_size, limit=1):
                return SynthesisOutcome(term, 1, time.monotonic() - start)
            return SynthesisOutcome(None, 0, time.monotonic() - start, exhausted=True)

        # terms_by[nonterminal][size] = list of (term, signature)
        terms_by: Dict[Nonterminal, Dict[int, List[Tuple[Term, tuple]]]] = {
            nt: {} for nt in grammar.nonterminals
        }
        seen_signatures: Dict[Nonterminal, set] = {nt: set() for nt in grammar.nonterminals}
        explored = 0
        # One evaluation memo for the whole enumeration: every kept term is a
        # child of later candidates, so its vector is computed exactly once.
        memo: EvalMemo = {}

        for size in range(1, self.max_size + 1):
            for nonterminal in grammar.nonterminals:
                new_terms: List[Tuple[Term, tuple]] = []
                for production in grammar.productions_of(nonterminal):
                    arity = production.symbol.arity
                    if arity == 0:
                        if size != 1:
                            continue
                        self._emit(
                            production.symbol,
                            [()],
                            new_terms,
                            examples,
                            memo,
                        )
                        continue
                    remaining = size - 1
                    if remaining < arity:
                        continue
                    for split in _compositions(remaining, arity):
                        child_choices = []
                        feasible = True
                        for child_nt, child_size in zip(production.args, split):
                            available = terms_by[child_nt].get(child_size, [])
                            if not available:
                                feasible = False
                                break
                            child_choices.append(available)
                        if not feasible:
                            continue
                        combos = [()]
                        for choices in child_choices:
                            combos = [
                                existing + (choice[0],)
                                for existing in combos
                                for choice in choices
                            ]
                        self._emit(production.symbol, combos, new_terms, examples, memo)
                # Observational-equivalence pruning per nonterminal.
                kept: List[Tuple[Term, tuple]] = []
                for term, signature in new_terms:
                    if signature in seen_signatures[nonterminal]:
                        continue
                    seen_signatures[nonterminal].add(signature)
                    kept.append((term, signature))
                    explored += 1
                terms_by[nonterminal][size] = kept

                if nonterminal == grammar.start:
                    for term, _signature in kept:
                        if term.sort != Sort.INT:
                            continue
                        if problem.satisfies_examples(term, examples):
                            return SynthesisOutcome(term, explored, time.monotonic() - start)

                if explored > self.max_terms:
                    return SynthesisOutcome(
                        None,
                        explored,
                        time.monotonic() - start,
                        exhausted=False,
                        details={"reason": "budget"},
                    )
        return SynthesisOutcome(None, explored, time.monotonic() - start, exhausted=True)

    def _emit(
        self,
        symbol,
        child_tuples: List[Tuple[Term, ...]],
        sink: List[Tuple[Term, tuple]],
        examples: ExampleSet,
        memo: EvalMemo,
    ) -> None:
        for children in child_tuples:
            term = Term(symbol, tuple(children))
            try:
                # Shared subterms hit the memo instead of being re-evaluated
                # for every enclosing candidate; the canonical value tuple
                # stays the observational signature.
                signature = evaluate(term, examples, memo).values
            except SemanticsError:
                continue
            sink.append((term, signature))


def _compositions(total: int, parts: int):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
