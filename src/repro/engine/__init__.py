"""The pluggable engine subsystem: registry, cache, results, solve fabric.

See DESIGN.md for the architecture.  In short:

* :mod:`repro.engine.base` — the :class:`UnrealizabilityEngine` protocol;
* :mod:`repro.engine.registry` — ``@register_engine`` and name-based lookup
  (the *only* way consumers construct engines);
* :mod:`repro.engine.cache` — process-wide memoization of grammar
  normalization and grammar pruning;
* :mod:`repro.engine.results` — JSONL persistence and stable-field
  comparison of experiment rows;
* :mod:`repro.engine.supervisor` — the supervised solve fabric that
  ``Solver.solve_batch`` (and so the experiments), the portfolio and
  ``repro-nay serve`` run worker processes on;
* :mod:`repro.engine.store` — the persistent result store.
"""

from repro.engine.base import EngineConfigMixin, UnrealizabilityEngine
from repro.engine.registry import (
    UnknownEngineError,
    create_engine,
    engine_names,
    get_engine_class,
    register_engine,
)
from repro.engine.cache import GfaCache, cache_stats, clear_cache, get_cache
from repro.engine.results import (
    ResultsStore,
    render_stable,
    stable_fingerprint,
    stable_view,
)

__all__ = [
    "UnrealizabilityEngine",
    "EngineConfigMixin",
    "register_engine",
    "create_engine",
    "engine_names",
    "get_engine_class",
    "UnknownEngineError",
    "GfaCache",
    "get_cache",
    "clear_cache",
    "cache_stats",
    "ResultsStore",
    "stable_view",
    "stable_fingerprint",
    "render_stable",
]
