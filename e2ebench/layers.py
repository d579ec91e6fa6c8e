"""Per-layer attribution by wrapping each layer's public entry points.

The tracer patches functions and methods *at the names their callers
resolve*: a module-level function is rebound in every loaded ``repro``
module that holds a reference to it (``from x import f`` copies the
binding), and a method is replaced on the class that defines it.  Nothing
in ``src/`` changes.  Every call through a wrapper records one span (name,
engine tag, start, end, parent) in memory, and :meth:`Tracer.write` dumps
them as JSON lines when the run ends.  The hottest layers' spans are folded
into per-thread totals as they close instead (see ``FOLDED_LAYERS``).

Span names are ``layer`` or ``layer/phase``.  A layer's *self time* is the
summed duration of its spans minus the part covered by their child spans.
A phase's *inclusive time* counts only its outermost spans, so recursion
and nesting are never double counted.  The engine tag of a span is the
engine named by the nearest enclosing ``run_engine`` call, which is what
the per-engine paper-anchor split is keyed by.

Functions that call themselves through their module global (for example
``evaluate_on_example`` or ``json_safe``) are deliberately not wrapped:
every recursive step would become a span.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Engines of the paper grid, in the column order of the report.
ENGINES = ("naySL", "nope", "nayHorn", "nayInt", "nayFin")


def _engine_arg(args: tuple, kwargs: dict) -> Optional[str]:
    """The engine a ``run_engine(engine_name, ...)`` call runs."""
    if args:
        return str(args[0])
    name = kwargs.get("engine_name")
    return None if name is None else str(name)


def _count_candidates(result: Any, bump: Callable[[str, int], None]) -> None:
    """Candidates the enumerator generated, and those dropped by
    observational-equivalence dedup, from one ``synthesize`` outcome."""
    details = getattr(result, "details", None) or {}
    bump("synth.generated", int(details.get("generated", 0)))
    bump("synth.deduped", int(details.get("deduped", 0)))


def _count_get(result: Any, bump: Callable[[str, int], None]) -> None:
    """Store lookups, and those that found an entry."""
    bump("store.gets", 1)
    bump("store.hits", int(result is not None))


# (span name, module, attribute path[, tagger[, post hook]]).  Attribute
# paths with a dot are methods, patched on the class that defines them.
ENTRY_POINTS: List[Tuple[Any, ...]] = [
    ("api.service", "repro.api.service", "ApiRequestHandler.do_POST"),
    ("api.wire", "repro.api.wire", "SolveRequest.to_json"),
    ("api.wire", "repro.api.wire", "SolveRequest.from_json"),
    ("api.wire", "repro.api.wire", "SolveResponse.to_json"),
    ("api.wire", "repro.api.wire", "SolveResponse.from_json"),
    ("api.wire", "repro.api.wire", "grammar_stats"),
    ("api.facade/run_engine", "repro.api.facade", "run_engine", _engine_arg),
    ("api.facade", "repro.api.facade", "execute_request"),
    ("api.facade", "repro.api.portfolio", "solve_staged"),
    ("engine.supervisor", "repro.engine.supervisor", "Supervisor.solve"),
    ("engine.supervisor", "repro.engine.supervisor", "Supervisor.submit"),
    ("engine.supervisor", "repro.engine.supervisor", "Supervisor.harvest"),
    ("engine.supervisor", "repro.engine.supervisor", "Supervisor.cancel"),
    ("engine.store/get", "repro.engine.store", "ResultStore.get", None, _count_get),
    ("engine.store/put", "repro.engine.store", "ResultStore.put"),
    ("sygus", "repro.sygus.parser", "parse_sygus"),
    ("sygus", "repro.sygus.parser", "parse_sygus_file"),
    ("sygus", "repro.sygus.printer", "print_sygus"),
    ("baselines", "repro.baselines.nay_sl", "NaySL.check"),
    ("baselines", "repro.baselines.nay_sl", "NaySL.solve"),
    ("baselines", "repro.baselines.nope", "Nope.check"),
    ("baselines", "repro.baselines.nope", "Nope.solve"),
    ("baselines", "repro.baselines.nay_horn", "NayHorn.check"),
    ("baselines", "repro.baselines.nay_horn", "NayHorn.solve"),
    ("baselines", "repro.baselines.nay_abstract", "NayAbstractDomain.check"),
    ("baselines", "repro.baselines.nay_abstract", "NayAbstractDomain.solve"),
    ("unreal/cegis", "repro.unreal.cegis", "NaySolver.solve"),
    ("unreal/check", "repro.unreal.cegis", "NaySolver.check_examples"),
    ("unreal/check", "repro.unreal.lia", "check_lia_examples"),
    ("unreal/check", "repro.unreal.clia", "check_clia_examples"),
    ("unreal/check", "repro.unreal.approximate", "check_examples_abstract"),
    ("unreal", "repro.unreal.check", "check_unrealizable"),
    ("unreal/certificate", "repro.unreal.certificates", "build_unproductive_certificate"),
    ("unreal/certificate", "repro.unreal.certificates", "build_abstract_certificate"),
    ("unreal/certificate", "repro.unreal.certificates", "build_chc_certificate"),
    ("unreal/certificate", "repro.unreal.certificates", "build_lia_certificate"),
    ("unreal/certificate", "repro.unreal.certificates", "build_clia_certificate"),
    ("analysis/certcheck", "repro.analysis.certcheck", "check_certificate"),
    (
        "synth/enumerate",
        "repro.synth.enumerator",
        "EnumerativeSynthesizer.synthesize",
        None,
        _count_candidates,
    ),
    ("synth", "repro.synth.verifier", "Verifier.verify"),
    ("semantics", "repro.semantics.evaluator", "evaluate"),
    ("grammar", "repro.grammar.transforms", "normalize_for_gfa"),
    ("grammar", "repro.grammar.automaton", "prune_grammar"),
    ("grammar", "repro.grammar.analysis", "productive_nonterminals"),
    ("gfa/build", "repro.gfa.builder", "build_lia_equations"),
    ("gfa/build", "repro.gfa.builder", "build_remif_equations"),
    ("gfa/solve", "repro.gfa.newton", "solve_newton"),
    ("gfa/solve", "repro.gfa.newton", "solve_stratified"),
    ("gfa/solve", "repro.gfa.fixpoint", "solve_worklist"),
    ("gfa/solve", "repro.gfa.fixpoint", "solve_dense"),
    ("domains", "repro.gfa.semiring", "SemiLinearSemiring.combine"),
    ("domains", "repro.gfa.semiring", "SemiLinearSemiring.extend"),
    ("domains", "repro.gfa.semiring", "SemiLinearSemiring.star"),
    ("domains", "repro.gfa.semiring", "SemiLinearSemiring.equal"),
    ("domains", "repro.domains.clia", "CliaInterpretation.apply"),
    ("domains", "repro.domains.base", "AbstractDomain.check"),
    ("domains", "repro.domains.base", "ExampleVectorDomain.join"),
    ("domains", "repro.domains.base", "ExampleVectorDomain.widen"),
    ("domains", "repro.domains.base", "ExampleVectorDomain.equal"),
    ("domains", "repro.domains.base", "ExampleVectorDomain.transfer"),
    ("logic", "repro.logic.solver", "SolverContext.check"),
    ("logic", "repro.logic.solver", "check_sat"),
    ("logic/core_min", "repro.logic.ilp", "_minimized_core"),
    ("horn", "repro.horn.solver", "HornEngine.check"),
    ("horn", "repro.horn.clauses", "encode_gfa_as_horn"),
]


#: The certificate phase.  Inclusive times are also keyed by whether the
#: span ran inside it, because certificate validation re-solves the GFA
#: equations and that work must not count twice in the per-engine split.
CERTIFICATE = "unreal/certificate"


def layer_of(name: str) -> str:
    return name.split("/", 1)[0]


#: Layers whose spans are folded into per-thread aggregates on exit instead
#: of being kept one by one: domain operations run ~10^5 times per grid pass
#: and term evaluations ~10^4 times a second in CEGIS; keeping each would
#: cost ~100 MB.
FOLDED_LAYERS = frozenset({"domains", "semantics"})


class Tracer:
    """Wraps entry points, records spans in memory, restores on uninstall."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._folded: List["SpanSummary"] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def bump(self, key: str, amount: int) -> None:
        """Add to a counter (post hooks run on many threads under serve)."""
        with self._lock:
            self.counts[key] += amount

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.active = defaultdict(int)
            local.folded = SpanSummary()
            with self._lock:
                self._folded.append(local.folded)
        return stack, local.active, local.folded

    def wrap(
        self,
        name: str,
        function: Callable,
        tagger: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ):
        spans = self.spans
        bump = self.bump
        state = self._state
        clock = time.perf_counter
        layer = layer_of(name)
        folded = layer in FOLDED_LAYERS

        def traced(*args, **kwargs):
            stack, active, aggregate = state()
            parent = stack[-1] if stack else None
            tag = tagger(args, kwargs) if tagger else (parent[1] if parent else None)
            record = [
                name,
                tag,
                clock(),
                0.0,
                parent,
                0.0,
                active[name] == 0,
                active[CERTIFICATE] > 0,
            ]
            if not folded:
                spans.append(record)
            stack.append(record)
            active[name] += 1
            try:
                result = function(*args, **kwargs)
                if post is not None:
                    post(result, bump)
                return result
            finally:
                end = clock()
                record[3] = end
                active[name] -= 1
                stack.pop()
                duration = end - record[2]
                if parent is not None:
                    parent[5] += duration
                if folded:
                    aggregate.self_s[layer] += duration - record[5]
                    aggregate.calls[name] += 1
                    if record[6]:
                        aggregate.inclusive[(name, tag, record[7])] += duration

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        traced.__qualname__ = getattr(function, "__qualname__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # -- patching --------------------------------------------------------------

    def install(self, entry_points: Iterable[Tuple[Any, ...]] = ENTRY_POINTS) -> None:
        for entry in entry_points:
            name, module_name, path = entry[:3]
            tagger = entry[3] if len(entry) > 3 else None
            post = entry[4] if len(entry) > 4 else None
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                self._patch_method(name, getattr(module, class_name), attr, tagger, post)
            else:
                self._patch_function(name, getattr(module, path), tagger, post)

    def _patch_function(self, name: str, original: Callable, tagger, post) -> None:
        traced = self.wrap(name, original, tagger, post)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    self._restore.append((module, key, original))

    def _patch_method(self, name: str, cls: type, attr: str, tagger, post) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(
                self.wrap(name, original.__func__, tagger, post)
            )
        elif isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, tagger, post))
        else:
            replacement = self.wrap(name, original, tagger, post)
        setattr(cls, attr, replacement)
        self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every kept span as one JSON line (ids are positions in the
        file; a span under a folded one points at its nearest kept
        ancestor), then one line with the folded layers' totals."""
        ids = {id(record): index for index, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                name, tag, start, end, parent = record[:5]
                while parent is not None and id(parent) not in ids:
                    parent = parent[4]
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "engine": tag,
                            "start": start,
                            "end": end,
                            "parent": None if parent is None else ids.get(id(parent)),
                        }
                    )
                )
                handle.write("\n")
            folded = SpanSummary()
            for aggregate in self._folded:
                folded.merge(aggregate)
            handle.write(json.dumps({"folded_totals": folded.to_json()}))
            handle.write("\n")

    def summary(self) -> "SpanSummary":
        summary = SpanSummary.from_spans(self.spans)
        for aggregate in self._folded:
            summary.merge(aggregate)
        return summary


class SpanSummary:
    """What the per-layer metrics need from a span list, mergeable across
    processes (a replay child sends its summary back to the parent)."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: outermost inclusive seconds per (span name, engine tag, whether
        #: the span ran inside the certificate phase)
        self.inclusive: Dict[Tuple[str, Optional[str], bool], float] = defaultdict(
            float
        )

    @staticmethod
    def from_spans(spans: Iterable[list]) -> "SpanSummary":
        summary = SpanSummary()
        for name, tag, start, end, _, child, outermost, in_certificate in spans:
            if end <= 0.0:
                continue  # still open (a cut replay cell): nothing measured
            duration = end - start
            summary.self_s[layer_of(name)] += duration - child
            summary.calls[name] += 1
            if outermost:
                summary.inclusive[(name, tag, in_certificate)] += duration
        return summary

    def merge(self, other: "SpanSummary") -> None:
        for key, value in other.self_s.items():
            self.self_s[key] += value
        for key, value in other.calls.items():
            self.calls[key] += value
        for key, value in other.inclusive.items():
            self.inclusive[key] += value

    def to_json(self) -> Dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "inclusive": [[*key, value] for key, value in self.inclusive.items()],
        }

    @staticmethod
    def from_json(payload: Dict[str, Any]) -> "SpanSummary":
        summary = SpanSummary()
        summary.self_s.update(payload["self_s"])
        summary.calls.update(payload["calls"])
        for name, tag, in_certificate, value in payload["inclusive"]:
            summary.inclusive[(name, tag, in_certificate)] += value
        return summary

    def phase(
        self,
        name: str,
        engine: Optional[str] = None,
        *,
        outside_certificate: bool = False,
    ) -> float:
        """Outermost inclusive seconds of a span name, optionally for one
        engine and optionally only where no certificate was being built."""
        return sum(
            value
            for (span, tag, in_certificate), value in self.inclusive.items()
            if span == name
            and (engine is None or tag == engine)
            and not (outside_certificate and in_certificate)
        )

    def calls_of(self, prefix: str) -> int:
        return sum(
            count
            for name, count in self.calls.items()
            if name == prefix or name.startswith(prefix + "/")
        )


def program_counters() -> Dict[str, int]:
    """The program's own process-wide cache and work counters, flattened.

    Caches reset their hit/miss counts when cleared, so callers snapshot
    right after a clear and again at the end, and take the difference.
    """
    from repro.domains.semilinear import semilinear_cache_stats
    from repro.engine.cache import cache_stats
    from repro.logic.solver import logic_cache_stats, runtime_counters

    counters = dict(runtime_counters())
    gfa = cache_stats().as_dict()
    counters["normalize_hits"] = gfa["normalize_hits"]
    counters["normalize_misses"] = gfa["normalize_misses"]
    simplify = semilinear_cache_stats()["simplify"]
    counters["simplify_hits"] = simplify["hits"]
    counters["simplify_misses"] = simplify["misses"]
    query = logic_cache_stats()["query_cache"]
    counters["query_cache_hits"] = query["hits"]
    counters["query_cache_misses"] = query["misses"]
    return counters


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}


def ratio(numerator: float, denominator: float) -> float:
    """A share with its base: 0.0 when nothing was attempted."""
    return float(numerator) / float(denominator) if denominator else 0.0
