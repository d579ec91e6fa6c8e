"""NayHorn: the approximate (Horn-clause) configuration of NAY (§4.3, §7)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.base import EngineConfigMixin
from repro.engine.registry import register_engine
from repro.horn.solver import HornEngine
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.unreal.cegis import NayConfig, NaySolver
from repro.unreal.result import CegisResult, CheckResult


@register_engine("nayHorn")
@dataclass
class NayHorn(EngineConfigMixin):
    """NAY in Horn mode: same CEGIS loop, approximate unrealizability check.

    The paper encodes the GFA equations as constrained Horn clauses solved by
    Spacer; here the clauses are solved by the abstract-interpretation engine
    of :class:`repro.horn.solver.HornEngine` (see DESIGN.md for the
    substitution).  Verdicts are sound: ``UNREALIZABLE`` is always correct,
    and realizable/undetermined instances surface as ``UNKNOWN``/``TIMEOUT``.
    """

    seed: Optional[int] = None
    max_iterations: int = 40
    prune: str = "off"

    @property
    def name(self) -> str:
        return "nayHorn"

    def _solver(self) -> NaySolver:
        return NaySolver(
            NayConfig(
                mode="horn",
                seed=self.seed,
                max_iterations=self.max_iterations,
                prune=self.prune,
            )
        )

    def solve(
        self, problem: SyGuSProblem, initial_examples: Optional[ExampleSet] = None
    ) -> CegisResult:
        return self._solver().solve(problem, initial_examples)

    def check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        return HornEngine(overhead_factor=1, prune=self.prune).check(problem, examples)
