"""Verdict and result types returned by the unrealizability checkers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.grammar.terms import Term
from repro.semantics.examples import ExampleSet


class Verdict(enum.Enum):
    """The three-valued answer of Alg. 1.

    ``UNREALIZABLE`` and ``REALIZABLE`` are definitive for exact abstractions
    (Thm. 4.5(2)); approximate abstractions can only ever return
    ``UNREALIZABLE`` or ``UNKNOWN`` (Thm. 4.5(1)).
    """

    UNREALIZABLE = "unrealizable"
    REALIZABLE = "realizable"
    UNKNOWN = "unknown"
    TIMEOUT = "timeout"


#: Why a run ended without a definitive verdict, reported as
#: ``details["reason"]``.  Only :data:`DEADLINE` yields ``TIMEOUT``; the
#: others yield ``UNKNOWN``.
DEADLINE = "deadline"  # the wall-clock budget ran out
ITERATION_BUDGET = "iteration_budget"  # Alg. 2 ran out of CEGIS rounds
EXAMPLE_BUDGET = "example_budget"  # no more examples may be added or taken
SOLVER_LIMIT = "solver_limit"  # the logic core hit a node/step budget
ABSTRACTION = "abstraction"  # an approximate abstraction could not refute


@dataclass
class CheckResult:
    """Outcome of one unrealizability check over a fixed example set."""

    verdict: Verdict
    examples: ExampleSet
    elapsed_seconds: float = 0.0
    abstraction_size: int = 0
    details: Dict[str, object] = field(default_factory=dict)
    #: A self-contained proof payload for ``UNREALIZABLE`` verdicts, checkable
    #: by :mod:`repro.analysis.certcheck` without re-running any engine.
    #: ``None`` when the verdict is not unrealizable or no certificate could
    #: be constructed (certificates are best-effort, verdicts are not).
    certificate: Optional[Dict[str, object]] = None

    @property
    def is_unrealizable(self) -> bool:
        return self.verdict == Verdict.UNREALIZABLE


@dataclass
class CegisResult:
    """Outcome of the full CEGIS loop (Alg. 2).

    ``solution`` is populated when the problem is realizable and the
    enumerative synthesizer found a witness term; ``examples`` is the final
    example set (the one that proves unrealizability, when applicable).
    """

    verdict: Verdict
    examples: ExampleSet
    solution: Optional[Term] = None
    iterations: int = 0
    elapsed_seconds: float = 0.0
    num_examples: int = 0
    details: Dict[str, object] = field(default_factory=dict)
    #: Forwarded from the final :class:`CheckResult` on unrealizable runs.
    certificate: Optional[Dict[str, object]] = None

    @property
    def is_unrealizable(self) -> bool:
        return self.verdict == Verdict.UNREALIZABLE
