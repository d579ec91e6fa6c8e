"""Small shared utilities: interning, integer vectors, errors."""

from repro.utils.errors import (
    ReproError,
    GrammarError,
    SemanticsError,
    SolverError,
    SolverLimitError,
    SyGuSParseError,
    UnsupportedFeatureError,
)
from repro.utils.intern import Interner, intern_stats, interner
from repro.utils.vectors import IntVector, BoolVector

__all__ = [
    "ReproError",
    "GrammarError",
    "SemanticsError",
    "SolverError",
    "SolverLimitError",
    "SyGuSParseError",
    "UnsupportedFeatureError",
    "Interner",
    "interner",
    "intern_stats",
    "IntVector",
    "BoolVector",
]
