"""Memoization of grammar normalization and grammar pruning.

The experiment sweeps repeat an enormous amount of structural work: the
Fig. 2 series solves the *same* chain grammar once per example count, and
every (tool, benchmark) cell of Tables 1/2 re-normalizes the benchmark's
grammar for each engine.  Normalization (:func:`normalize_for_gfa`) and
pruning (:func:`prune_grammar`) are pure functions of immutable inputs, so
this module caches them process-wide.

Cache keys (documented in DESIGN.md):

* **normalized grammar** — keyed by the grammar *fingerprint*: the tuple
  ``(start, nonterminals, productions)``.  Fingerprints are structural, so
  two independently constructed but identical grammars (e.g. the scaling
  benchmark rebuilt per sweep point) share one cache entry; the grammar's
  display ``name`` is deliberately excluded.
* **pruned grammar** — keyed by ``(grammar fingerprint, examples, mode)``;
  the example set joins the key only for the example-dependent ``"oe"``
  mode.

GFA equation systems are not cached: they embed the example set, which
CEGIS grows every round, so such a memo never hits.  Cached values are
immutable (grammars are never mutated after construction), so sharing
entries across callers is safe.

Every process holds its own cache — an in-process experiment run, each
solve-fabric worker and ``repro-nay serve`` alike; the experiments keep a
benchmark's cells adjacent so its grammar is normalized once, not once per
engine.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable

from repro.domains.semilinear import clear_semilinear_caches, semilinear_cache_stats
from repro.grammar.automaton import PruneReport, prune_grammar
from repro.grammar.rtg import RegularTreeGrammar
from repro.grammar.transforms import normalize_for_gfa
from repro.logic.solver import clear_logic_caches, logic_cache_stats, runtime_counters
from repro.semantics.examples import ExampleSet
from repro.utils.intern import intern_stats


def grammar_fingerprint(grammar: RegularTreeGrammar) -> Hashable:
    """A structural, hashable identity for a grammar (name excluded)."""
    return (grammar.start, grammar.nonterminals, grammar.productions)


@dataclass
class CacheStats:
    """Hit/miss counters, one pair per cached construction."""

    normalize_hits: int = 0
    normalize_misses: int = 0
    prune_hits: int = 0
    prune_misses: int = 0

    def as_dict(self) -> dict:
        return {
            "normalize_hits": self.normalize_hits,
            "normalize_misses": self.normalize_misses,
            "prune_hits": self.prune_hits,
            "prune_misses": self.prune_misses,
        }


class GfaCache:
    """An LRU cache over the pure grammar-preparation steps of the GFA pipeline.

    ``max_entries`` bounds each table independently; the default comfortably
    covers a full experiment sweep while keeping worst-case memory bounded
    for long-lived server processes.
    """

    def __init__(self, max_entries: int = 256, enabled: bool = True):
        self.max_entries = max_entries
        self.enabled = enabled
        self.stats = CacheStats()
        self._normalized: "OrderedDict[Hashable, RegularTreeGrammar]" = OrderedDict()
        self._pruned: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._lock = threading.Lock()

    # -- the cached constructions ---------------------------------------------

    def normalized(self, grammar: RegularTreeGrammar) -> RegularTreeGrammar:
        """``normalize_for_gfa(grammar)``, memoized by structural fingerprint."""
        if not self.enabled:
            return normalize_for_gfa(grammar)
        key = grammar_fingerprint(grammar)
        with self._lock:
            cached = self._get(self._normalized, key)
            if cached is not None:
                self.stats.normalize_hits += 1
                return cached
            self.stats.normalize_misses += 1
        value = normalize_for_gfa(grammar)
        with self._lock:
            self._put(self._normalized, key, value)
        return value

    def pruned(
        self,
        normalized: RegularTreeGrammar,
        examples: "ExampleSet | None",
        mode: str,
    ) -> "tuple[RegularTreeGrammar, PruneReport]":
        """``prune_grammar`` over an already-normalized grammar, memoized.

        ``"reduce"`` pruning is example-independent, so its entries are keyed
        by the grammar fingerprint alone; ``"oe"`` merges by behavior vectors
        on the example set, which therefore joins the key.
        """
        if not self.enabled:
            return prune_grammar(normalized, examples, mode=mode, witnesses=False)
        key = (
            grammar_fingerprint(normalized),
            examples if mode == "oe" else None,
            mode,
        )
        with self._lock:
            cached = self._get(self._pruned, key)
            if cached is not None:
                self.stats.prune_hits += 1
                return cached
            self.stats.prune_misses += 1
        # Engines never surface witness terms; skip their enumeration cost.
        value = prune_grammar(normalized, examples, mode=mode, witnesses=False)
        with self._lock:
            self._put(self._pruned, key, value)
        return value

    # -- bookkeeping -----------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._normalized.clear()
            self._pruned.clear()
            self.stats = CacheStats()

    @staticmethod
    def _get(table: OrderedDict, key: Hashable):
        value = table.get(key)
        if value is not None:
            table.move_to_end(key)
        return value

    def _put(self, table: OrderedDict, key: Hashable, value) -> None:
        table[key] = value
        table.move_to_end(key)
        while len(table) > self.max_entries:
            table.popitem(last=False)


#: The process-wide cache used by the solvers in :mod:`repro.unreal`.
_DEFAULT_CACHE = GfaCache()


def get_cache() -> GfaCache:
    return _DEFAULT_CACHE


def clear_cache() -> None:
    """Reset every process-wide memo the solving pipeline accumulates.

    Covers the GFA construction cache, the semi-linear simplification/
    subsumption memos (plus the cached membership solver contexts), and the
    logic core's cross-query result cache and learned-lemma store — the
    complete set a long-lived ``solve_batch`` worker or ``serve`` process
    must be able to drop to stay within the bounded-memory contract.  The
    intern tables (:mod:`repro.utils.intern`) are weak and self-pruning, so
    they are deliberately left alone here.
    """
    _DEFAULT_CACHE.clear()
    clear_semilinear_caches()
    clear_logic_caches()


def cache_stats() -> CacheStats:
    return _DEFAULT_CACHE.stats


def runtime_cache_stats() -> dict:
    """One snapshot of every process-wide memo/intern table.

    Combines the GFA construction cache (this module), the semi-linear
    simplification/subsumption memos (:mod:`repro.domains.semilinear`), the
    hash-consing intern tables (:mod:`repro.utils.intern`), and the DPLL(T)
    core's query cache / lemma store plus its cumulative work counters
    (:mod:`repro.logic.solver`) — the ``repro-nay bench`` harness records
    this next to its timings.
    """
    return {
        "gfa": _DEFAULT_CACHE.stats.as_dict(),
        "semilinear": semilinear_cache_stats(),
        "intern": intern_stats(),
        "logic": logic_cache_stats(),
        "logic_counters": runtime_counters(),
    }
