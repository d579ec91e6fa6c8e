"""Domain engines: NAY configurations over the pluggable abstract domains.

Each registered :class:`~repro.domains.base.AbstractDomain` becomes an
engine through :class:`NayAbstractDomain`: ``check`` runs the generic
abstract-GFA solver with that domain, ``solve`` runs Alg. 2's CEGIS loop
with the domain check injected as the unrealizability checker (the same
``NayConfig.checker`` seam NOPE uses).

Two configurations are registered:

* ``nayInt`` — the interval (box) domain.  Decides most LimitedPlus and
  scaling instances in a few fixpoint iterations and **zero ILP calls**;
  everything it cannot refute is ``UNKNOWN``.
* ``nayFin`` — the example-powerset domain.  Exact while behavior sets stay
  under the cap, so it is two-sided there (it can answer ``REALIZABLE`` on
  the given examples, like the exact engines); past the cap it degrades to
  sound-``UNREALIZABLE``-only.

Both are raced by the default portfolio and form the cheap first stage of
the ``staged`` strategy (:mod:`repro.api.portfolio`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.domains.registry import create_domain
from repro.engine.base import EngineConfigMixin
from repro.engine.registry import register_engine
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.unreal.approximate import check_examples_abstract
from repro.unreal.cegis import NayConfig, NaySolver
from repro.unreal.result import CegisResult, CheckResult


@dataclass
class NayAbstractDomain(EngineConfigMixin):
    """The shared engine shape: one abstract domain, CEGIS via injection."""

    seed: Optional[int] = None
    max_iterations: int = 40
    #: Registry name of the abstract domain the checker instantiates
    #: (fresh per check — domains may carry per-check exactness state).
    domain: str = "numeric"
    prune: str = "off"

    @property
    def name(self) -> str:
        return self.registry_name  # type: ignore[attr-defined]

    def domain_knobs(self) -> Dict[str, object]:
        """Constructor knobs forwarded to ``create_domain`` (engine-specific)."""
        return {}

    def check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        return check_examples_abstract(
            problem,
            examples,
            domain=create_domain(self.domain, **self.domain_knobs()),
            prune=self.prune,
        )

    def solve(
        self, problem: SyGuSProblem, initial_examples: Optional[ExampleSet] = None
    ) -> CegisResult:
        solver = NaySolver(
            NayConfig(
                mode="abstract",
                seed=self.seed,
                max_iterations=self.max_iterations,
                checker=self.check,
            )
        )
        return solver.solve(problem, initial_examples)


@register_engine("nayInt")
@dataclass
class NayInt(NayAbstractDomain):
    """NAY over per-example integer boxes (no ILP calls in the check)."""

    domain: str = "interval"


@register_engine("nayFin")
@dataclass
class NayFin(NayAbstractDomain):
    """NAY over exact finite behavior sets (two-sided below the cap).

    ``cap`` and ``max_examples`` pass through to
    ``powerset(cap=..., max_examples=...)``: the former bounds the behavior
    sets (widening to TOP), the latter the example count the domain attempts
    before bailing out ``UNKNOWN``.  ``None`` keeps the domain defaults.
    """

    domain: str = "powerset"
    cap: Optional[int] = None
    max_examples: Optional[int] = None

    def domain_knobs(self) -> Dict[str, object]:
        knobs: Dict[str, object] = {}
        if self.cap is not None:
            knobs["cap"] = int(self.cap)
        if self.max_examples is not None:
            knobs["max_examples"] = int(self.max_examples)
        return knobs
