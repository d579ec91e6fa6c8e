"""NaySL: the exact semi-linear-set configuration of NAY (§5-§7)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.base import EngineConfigMixin
from repro.engine.registry import register_engine
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.unreal.cegis import NayConfig, NaySolver
from repro.unreal.result import CegisResult, CheckResult


@register_engine("naySL")
@dataclass
class NaySL(EngineConfigMixin):
    """The NaySL tool configuration (Alg. 2 with the exact checker)."""

    seed: Optional[int] = None
    stratify: bool = True
    max_iterations: int = 40
    prune: str = "off"

    def _solver(self) -> NaySolver:
        return NaySolver(
            NayConfig(
                mode="sl",
                seed=self.seed,
                stratify=self.stratify,
                max_iterations=self.max_iterations,
                prune=self.prune,
            )
        )

    @property
    def name(self) -> str:
        return "naySL" if self.stratify else "naySL-nostrat"

    def solve(
        self, problem: SyGuSProblem, initial_examples: Optional[ExampleSet] = None
    ) -> CegisResult:
        return self._solver().solve(problem, initial_examples)

    def check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        return self._solver().check_examples(problem, examples)
