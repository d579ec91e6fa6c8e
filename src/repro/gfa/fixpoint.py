"""Worklist (chaotic-iteration) infrastructure shared by the GFA solvers.

Dense fixpoint iteration re-evaluates *every* equation in *every* round, so a
system whose dependency graph is a long chain pays O(n) evaluations per round
for O(n) rounds — O(n^2) work for what is really O(edges) of information
flow.  The worklist driver here only re-evaluates an equation when one of its
inputs actually changed since the equation was last visited:

* a *dependents* map records, for every key, which equations read it;
* a queue (seeded with every key) holds the equations whose inputs changed;
* change detection is identity-first — hash-consed domains
  (:mod:`repro.utils.intern`) return the same object for equal values, so the
  common "nothing changed" case is a pointer comparison, with the semiring's
  semantic ``equal`` as the fallback fingerprint.

The driver is generic over the *step* function, so the same engine powers
Kleene iteration over an :class:`~repro.gfa.equations.EquationSystem`
(:func:`repro.gfa.kleene.solve_kleene`), SolveBool's iteration over grammar
productions (§6.3), and the approximate product-domain solver (§4.3).

Dense full-system evaluation remains available everywhere behind
``strategy="dense"`` as a debugging fallback; the two strategies compute the
same least fixpoint (see ``tests/test_fixpoint.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple

from repro.gfa.equations import Key, invert_dependencies
from repro.utils.deadline import check as check_deadline
from repro.utils.errors import SolverLimitError

__all__ = [
    "DENSE",
    "WORKLIST",
    "STRATEGIES",
    "FixpointDivergenceError",
    "FixpointSolution",
    "FixpointStats",
    "check_strategy",
    "invert_dependencies",
    "solve_dense",
    "solve_worklist",
]


class FixpointDivergenceError(SolverLimitError):
    """The iteration exhausted its visit/round budget without converging.

    A distinct subclass so callers wrapping a fixpoint solve can translate
    *this* failure into a domain-specific message without also swallowing
    resource-limit errors raised from inside the step function (ILP node
    budgets, elimination budgets, ...), which keep their own diagnostics.
    """

#: The two fixpoint evaluation strategies.
WORKLIST = "worklist"
DENSE = "dense"
STRATEGIES = (WORKLIST, DENSE)


def check_strategy(strategy: str) -> str:
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown fixpoint strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    return strategy


@dataclass
class FixpointStats:
    """Work counters surfaced by the fixpoint solvers.

    ``iterations`` is the number of rounds for the dense strategy and the
    maximum per-key visit count for the worklist strategy (the two coincide
    on fully dense systems).  ``evaluations`` counts right-hand-side
    evaluations — the quantity the worklist strategy exists to minimise —
    and, for Newton, additionally counts derivative evaluations.
    """

    strategy: str = WORKLIST
    iterations: int = 0
    evaluations: int = 0

    def merge(self, other: "FixpointStats") -> None:
        """Accumulate counters from a sub-solve (stratified solving)."""
        self.iterations = max(self.iterations, other.iterations)
        self.evaluations += other.evaluations

    def as_dict(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
        }


class FixpointSolution(Dict[Key, object]):
    """A fixpoint assignment (a plain dict) carrying its solver counters."""

    def __init__(self, assignment: Mapping[Key, object], stats: FixpointStats):
        super().__init__(assignment)
        self.stats = stats


# A step computes the new (already joined, monotone) value of one key from
# the current assignment; the third argument is this key's visit count,
# which widening-based steps use to decide when to widen.
Step = Callable[[Key, Mapping[Key, object]], object]
VisitStep = Callable[[Key, Mapping[Key, object], int], object]


def solve_worklist(
    keys: Sequence[Key],
    initial: Mapping[Key, object],
    step: VisitStep,
    equal: Callable[[object, object], bool],
    dependents: Mapping[Key, Tuple[Key, ...]],
    max_visits: int = 10000,
) -> Tuple[Dict[Key, object], FixpointStats]:
    """Chaotic iteration that only revisits keys whose inputs changed.

    ``step`` must be monotone and *inclusive* — its result must already be
    joined with the key's current value — so that skipping an evaluation can
    never lose information.  ``max_visits`` bounds the visits of any single
    key, mirroring the dense strategy's round budget; exceeding it raises
    :class:`SolverLimitError` (non-converging iteration, e.g. an infinite
    ascending chain without widening).
    """
    current: Dict[Key, object] = dict(initial)
    pending = deque(keys)
    queued = set(keys)
    visits: Dict[Key, int] = dict.fromkeys(keys, 0)
    evaluations = 0

    while pending:
        check_deadline()
        key = pending.popleft()
        queued.discard(key)
        visits[key] += 1
        if visits[key] > max_visits:
            raise FixpointDivergenceError(
                f"worklist iteration did not converge within {max_visits} "
                f"visits of {key!r}"
            )
        value = step(key, current, visits[key])
        evaluations += 1
        old = current[key]
        # Identity first: interned domain values make the unchanged case a
        # pointer comparison; the semiring equality is the semantic fallback.
        if value is old or equal(old, value):
            continue
        current[key] = value
        for user in dependents.get(key, ()):
            if user not in queued:
                queued.add(user)
                pending.append(user)

    stats = FixpointStats(
        strategy=WORKLIST,
        iterations=max(visits.values(), default=0),
        evaluations=evaluations,
    )
    return current, stats


def solve_dense(
    keys: Sequence[Key],
    initial: Mapping[Key, object],
    step: VisitStep,
    equal: Callable[[object, object], bool],
    max_iterations: int = 10000,
) -> Tuple[Dict[Key, object], FixpointStats]:
    """Round-based Jacobi iteration: every key, every round (debug fallback).

    This is the historical baseline semantics: every step in a round reads
    the *previous* round's assignment (writes are deferred to the end of the
    sweep), so the iteration count is insensitive to key order.  The
    assignment dict itself is reused across rounds and only changed keys are
    written — the historical implementation rebuilt the full assignment
    twice per round.
    """
    current: Dict[Key, object] = dict(initial)
    evaluations = 0
    for iteration in range(1, max_iterations + 1):
        updates = []
        for key in keys:
            check_deadline()
            value = step(key, current, iteration)
            evaluations += 1
            old = current[key]
            if value is old or equal(old, value):
                continue
            updates.append((key, value))
        if not updates:
            stats = FixpointStats(
                strategy=DENSE, iterations=iteration, evaluations=evaluations
            )
            return current, stats
        for key, value in updates:
            current[key] = value
    raise FixpointDivergenceError(
        f"dense iteration did not converge within {max_iterations} rounds"
    )
