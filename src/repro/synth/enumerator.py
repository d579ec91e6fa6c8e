"""A memoized, size-indexed bottom-up enumerative synthesizer.

The ESolver substitute inside NAY's CEGIS loop (Alg. 2, thread 1),
restructured around the tree-automaton grammar core:

* **Grammar reduction first.**  Before any term is built the grammar goes
  through :func:`repro.grammar.automaton.prune_grammar` in ``"reduce"``
  mode — duplicate/useless productions are dropped and exactly
  language-equal nonterminals are merged.  Reduction preserves the start
  language, so every emitted candidate is still a member of the *original*
  grammar (which the realizable-verdict verifier insists on); the
  observational ``"oe"`` merge is deliberately **not** used here because it
  reroutes production arguments and can emit terms outside the source
  language.

* **Size-indexed banks.**  Terms live in per-``(nonterminal, size)``
  tables; a term of size ``s`` combines children of strictly smaller
  sizes, so each table is built exactly once and every candidate draws its
  children from finished tables (the gpoe enumeration scheme).

* **Observational-equivalence dedup.**  Per nonterminal, only one
  representative per output vector on the example set is kept; dropped
  candidates are counted (``details["deduped"]``) and surfaced by the
  CEGIS loop as the ``enumerator_candidates_deduped`` solver stat.

* **Cross-round memoization.**  Alg. 2 frequently re-invokes the
  synthesizer with an *unchanged* example set ``E`` (rounds where only the
  random set ``Er`` grew).  Banks are cached per
  ``(grammar fingerprint, examples)`` and whole outcomes per
  ``(bank key, size budget, term budget)``, so such repeat rounds cost a
  dictionary lookup instead of a full re-enumeration.  Outcomes ended by
  the wall-clock deadline (:mod:`repro.utils.deadline`) are never cached
  (they are not deterministic); budget-exhausted and exhaustive outcomes
  are.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import replace
from itertools import product as cartesian_product
from typing import Dict, Hashable, List, Optional, Tuple

from repro.grammar.alphabet import Sort
from repro.grammar.automaton import prune_grammar
from repro.grammar.rtg import Nonterminal, RegularTreeGrammar
from repro.grammar.terms import Term
from repro.semantics.evaluator import EvalMemo, evaluate
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.synth.outcome import SynthesisOutcome
from repro.utils.deadline import expired
from repro.utils.errors import SemanticsError

__all__ = ["EnumerativeSynthesizer", "SynthesisOutcome"]

#: How many (grammar, examples) banks / memoized outcomes one synthesizer
#: retains.  A CEGIS run touches a handful of example sets; the cap only
#: matters for long-lived solver objects serving many problems.
BANK_CAP = 32

#: Candidates emitted between two reads of the wall-clock deadline.
DEADLINE_STRIDE = 256


def _grammar_key(grammar: RegularTreeGrammar) -> Hashable:
    return (grammar.start, grammar.nonterminals, grammar.productions)


class _Bank:
    """All enumeration state for one (grammar, example set) pair."""

    __slots__ = (
        "grammar",
        "examples",
        "terms_by",
        "seen",
        "memo",
        "completed_size",
        "explored",
        "deduped",
        "first_solution",
    )

    def __init__(self, grammar: RegularTreeGrammar, examples: ExampleSet):
        self.grammar = grammar
        self.examples = examples
        #: terms_by[nonterminal][size] = list of kept (term, signature)
        self.terms_by: Dict[Nonterminal, Dict[int, List[Tuple[Term, tuple]]]] = {
            nt: {} for nt in grammar.nonterminals
        }
        self.seen: Dict[Nonterminal, set] = {nt: set() for nt in grammar.nonterminals}
        self.memo: EvalMemo = {}
        self.completed_size = 0
        self.explored = 0
        self.deduped = 0
        #: The smallest satisfying start term discovered so far, as
        #: ``(size, term)`` — generation is size-ordered, so first found is
        #: smallest.
        self.first_solution: Optional[Tuple[int, Term]] = None


class EnumerativeSynthesizer:
    """Size-indexed bottom-up enumeration with OE dedup and memoized banks."""

    def __init__(
        self,
        max_size: int = 12,
        max_terms: int = 200_000,
    ):
        self.max_size = max_size
        self.max_terms = max_terms
        self._banks: "OrderedDict[Hashable, _Bank]" = OrderedDict()
        self._reduced: "OrderedDict[Hashable, RegularTreeGrammar]" = OrderedDict()
        self._outcomes: "OrderedDict[Hashable, SynthesisOutcome]" = OrderedDict()

    # -- public API ------------------------------------------------------------

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

        bank_key = (_grammar_key(grammar), examples)
        outcome_key = (bank_key, self.max_size, self.max_terms)
        cached = self._cache_get(self._outcomes, outcome_key)
        if cached is not None:
            hit = replace(cached, elapsed_seconds=time.monotonic() - start)
            # A cache hit did no enumeration work: its per-call counters are
            # zero (the CEGIS loop sums them across rounds).
            hit.details = {**cached.details, "cached": True, "generated": 0, "deduped": 0}
            return hit

        bank = self._cache_get(self._banks, bank_key)
        if bank is None:
            bank = _Bank(self._reduce(grammar), examples)
            self._cache_put(self._banks, bank_key, bank)

        outcome = self._run(problem, bank, start)
        if outcome.details.get("reason") != "timeout":
            self._cache_put(self._outcomes, outcome_key, outcome)
        return outcome

    # -- enumeration -----------------------------------------------------------

    def _run(
        self, problem: SyGuSProblem, bank: _Bank, start: float
    ) -> SynthesisOutcome:
        # Counters are reported as per-call deltas over the (persistent)
        # bank's cumulative totals.
        base_explored = bank.explored
        base_deduped = bank.deduped
        counters = lambda: {  # noqa: E731 — tiny closure over the two bases
            "generated": (bank.explored - base_explored) + (bank.deduped - base_deduped),
            "deduped": bank.deduped - base_deduped,
        }
        # A solution discovered by an earlier (larger-budget) pass over this
        # bank is still the answer whenever it fits the current size budget.
        if bank.first_solution is not None and bank.first_solution[0] <= self.max_size:
            return SynthesisOutcome(
                bank.first_solution[1],
                bank.explored,
                time.monotonic() - start,
                details=counters(),
            )
        grammar = bank.grammar
        examples = bank.examples
        for size in range(bank.completed_size + 1, self.max_size + 1):
            for nonterminal in grammar.nonterminals:
                if size in bank.terms_by[nonterminal]:
                    # Built (and, for the start symbol, already scanned for a
                    # solution) by an earlier pass that aborted on a later
                    # nonterminal of this size row.
                    continue
                kept = self._new_terms(bank, nonterminal, size)
                if kept is not None:
                    bank.terms_by[nonterminal][size] = kept
                if kept is not None and nonterminal == grammar.start:
                    for term, _signature in kept:
                        if term.sort != Sort.INT:
                            continue
                        if problem.satisfies_examples(term, examples):
                            bank.first_solution = (size, term)
                            return SynthesisOutcome(
                                term,
                                bank.explored,
                                time.monotonic() - start,
                                details=counters(),
                            )
                out_of_time = kept is None or expired()
                if bank.explored > self.max_terms or out_of_time:
                    reason = "timeout" if out_of_time else "budget"
                    return SynthesisOutcome(
                        None,
                        bank.explored,
                        time.monotonic() - start,
                        exhausted=False,
                        details={"reason": reason, **counters()},
                    )
            bank.completed_size = size
        return SynthesisOutcome(
            None,
            bank.explored,
            time.monotonic() - start,
            exhausted=True,
            details=counters(),
        )

    def _new_terms(
        self, bank: _Bank, nonterminal: Nonterminal, size: int
    ) -> Optional[List[Tuple[Term, tuple]]]:
        """All OE-new terms of ``nonterminal`` at exactly ``size``.

        Children come from strictly smaller, already-finished size tables,
        so each table is computed once per bank lifetime.  ``None`` when the
        deadline passed mid-row: the row is then undone, so a later pass
        rebuilds it whole.
        """
        grammar = bank.grammar
        seen = bank.seen[nonterminal]
        kept: List[Tuple[Term, tuple]] = []
        explored, deduped = bank.explored, bank.deduped

        def undo() -> None:
            seen.difference_update(signature for _term, signature in kept)
            bank.explored, bank.deduped = explored, deduped

        for production in grammar.productions_of(nonterminal):
            symbol = production.symbol
            arity = symbol.arity
            if arity == 0:
                if size != 1:
                    continue
                child_tuples: "List[Tuple[Term, ...]]" = [()]
                if not self._emit(bank, symbol, child_tuples, seen, kept):
                    return undo()
                continue
            remaining = size - 1
            if remaining < arity:
                continue
            tables = [bank.terms_by[arg] for arg in production.args]
            for split in _compositions(remaining, arity):
                choices = []
                feasible = True
                for table, child_size in zip(tables, split):
                    available = table.get(child_size)
                    if not available:
                        feasible = False
                        break
                    choices.append(available)
                if not feasible:
                    continue
                combos = (
                    tuple(choice[0] for choice in combo)
                    for combo in cartesian_product(*choices)
                )
                if not self._emit(bank, symbol, combos, seen, kept):
                    return undo()
        return kept

    def _emit(self, bank: _Bank, symbol, child_tuples, seen, kept) -> bool:
        """Add the OE-new terms; False when the deadline passed first."""
        examples = bank.examples
        memo = bank.memo
        for index, children in enumerate(child_tuples):
            if not index % DEADLINE_STRIDE and expired():
                return False
            term = Term(symbol, tuple(children))
            try:
                signature = evaluate(term, examples, memo).values
            except SemanticsError:
                continue
            if signature in seen:
                bank.deduped += 1
                continue
            seen.add(signature)
            kept.append((term, signature))
            bank.explored += 1
        return True

    # -- helpers ---------------------------------------------------------------

    def _reduce(self, grammar: RegularTreeGrammar) -> RegularTreeGrammar:
        key = _grammar_key(grammar)
        reduced = self._cache_get(self._reduced, key)
        if reduced is None:
            reduced, _report = prune_grammar(grammar, mode="reduce", witnesses=False)
            self._cache_put(self._reduced, key, reduced)
        return reduced

    @staticmethod
    def _cache_get(table: OrderedDict, key: Hashable):
        value = table.get(key)
        if value is not None:
            table.move_to_end(key)
        return value

    @staticmethod
    def _cache_put(table: OrderedDict, key: Hashable, value) -> None:
        table[key] = value
        table.move_to_end(key)
        while len(table) > BANK_CAP:
            table.popitem(last=False)


def _compositions(total: int, parts: int):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
