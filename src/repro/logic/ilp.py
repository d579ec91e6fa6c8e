"""Integer feasibility of conjunctions of linear atoms, with unsat cores.

This is the theory solver of the DPLL(T) stack: given a conjunction of linear
atoms over integer variables it either returns a satisfying integer model or
reports infeasibility together with a *minimized unsat core* — a subset of
the input atoms that is already infeasible, which the Boolean search layer
learns as a blocking lemma.  The pipeline is:

1. normalise atoms (strict inequalities become non-strict by adding one,
   which is sound because all coefficients and variables are integers) and
   gcd-tighten every inequality (:func:`~repro.logic.diophantine.tighten_inequality`);
2. recover equalities hidden as pairs of opposite inequalities;
3. eliminate equalities with exact integer reasoning
   (:mod:`repro.logic.diophantine`);
4. **interval/bound propagation**: derive per-variable integer bounds from
   the reduced inequalities, refute impossible systems, and try a clamped
   zero point — most of the pipeline's conjunctions are decided right here
   without ever touching the simplex;
5. branch-and-bound on the rational relaxation, branching on the **most
   fractional** variable, with every child **warm-started** from its
   parent's feasible simplex basis (:meth:`SimplexTableau.clone` + one
   ``add_constraint``) instead of re-solving Phase I from scratch.

Unsat cores are minimized by greedy deletion: starting from the full atom
set, each atom is dropped if the remainder stays infeasible (probes run
under a reduced node budget; a probe that blows the budget conservatively
keeps its atom).  The result is *minimal* w.r.t. single-atom deletion.

A node budget guards against pathological inputs; exceeding it raises
:class:`~repro.utils.errors.SolverLimitError` rather than looping forever.
Every node also checks the ambient wall-clock deadline
(:mod:`repro.utils.deadline`), so a budgeted run stops inside a search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.diophantine import tighten_inequality
from repro.logic.formulas import Atom, Comparison
from repro.logic.simplex import SimplexTableau
from repro.logic.terms import LinearExpression
from repro.utils.deadline import check as check_deadline
from repro.utils.errors import SolverError, SolverLimitError

#: Default branch-and-bound node budget.  The queries produced by the
#: unrealizability pipeline are tiny (tens of nodes); this budget exists only
#: to fail loudly on pathological inputs instead of looping.
DEFAULT_NODE_LIMIT = 4000

#: Conjunctions larger than this skip core minimization (the greedy deletion
#: would cost more probes than the lemma could ever save).
CORE_MINIMIZE_MAX_ATOMS = 24

#: Node budget for each greedy-deletion probe.
CORE_PROBE_NODE_LIMIT = 400

#: Bound-propagation rounds; each round only runs if the previous one
#: tightened something, so this is a cap, not a fixed cost.
PROPAGATION_ROUNDS = 6


@dataclass
class IlpOutcome:
    """The outcome of one conjunction-level feasibility query.

    ``model`` is an integer model over the atoms' variables, or ``None`` for
    infeasible; in the latter case ``core`` is an infeasible subset of the
    input atoms (minimized unless minimization was skipped).  The counters
    record the work done: branch-and-bound ``nodes``, simplex ``pivots``,
    and ``propagations`` (queries settled by bound propagation alone —
    simplex never ran).  ``core_probes`` counts the greedy-deletion solves.
    """

    model: Optional[Dict[str, int]]
    core: Optional[Tuple[Atom, ...]] = None
    nodes: int = 0
    pivots: int = 0
    propagations: int = 0
    core_probes: int = 0


def integer_feasible(
    atoms: Sequence[Atom],
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> Optional[Dict[str, int]]:
    """Return an integer model of the conjunction of atoms, or None if unsat.

    Compatibility wrapper over :func:`solve_conjunction` (no core
    minimization, model only).
    """
    return solve_conjunction(atoms, node_limit=node_limit, minimize_core=False).model


def solve_conjunction(
    atoms: Sequence[Atom],
    node_limit: int = DEFAULT_NODE_LIMIT,
    minimize_core: bool = True,
) -> IlpOutcome:
    """Decide a conjunction of linear atoms; on unsat produce a core.

    Atoms with the ``!=`` comparison are not supported here (the Boolean
    search layer splits them); passing one raises :class:`SolverError`.
    """
    equalities: List[LinearExpression] = []
    inequalities: List[LinearExpression] = []
    for atom in atoms:
        if atom.comparison == Comparison.EQ:
            equalities.append(atom.expression)
        elif atom.comparison == Comparison.LE:
            inequalities.append(tighten_inequality(atom.expression))
        elif atom.comparison == Comparison.LT:
            inequalities.append(tighten_inequality(atom.expression + 1))
        else:
            raise SolverError("disequalities must be split before calling the ILP core")

    # Fast path: the zero point satisfies everything (the single most common
    # query of the semi-linear pipeline: ``lambda >= 0`` plus offset-matching
    # equalities with zero residual).
    if all(eq.constant == 0 for eq in equalities) and all(
        ineq.constant <= 0 for ineq in inequalities
    ):
        model = {name: 0 for atom in atoms for name in atom.expression.variables}
        return IlpOutcome(model, propagations=1)

    original_variables = sorted(
        {name for atom in atoms for name in atom.expression.variables}
    )

    def unsat() -> IlpOutcome:
        outcome = IlpOutcome(None)
        outcome.core = _minimized_core(atoms, node_limit, outcome) if minimize_core else tuple(atoms)
        return outcome

    extra_equalities, inequalities = _recover_equalities(inequalities)
    equalities.extend(extra_equalities)

    if _strip_infeasible(inequalities):
        return unsat()

    elimination = _eliminate(equalities, inequalities)
    if elimination is None:
        return unsat()
    reduced, substitutions = elimination

    def finish(reduced_model: Dict[str, int], outcome: IlpOutcome) -> IlpOutcome:
        model = _lift(reduced_model, substitutions)
        # Variables that vanished entirely are unconstrained; default them
        # to 0, and drop helper variables introduced by the elimination.
        for name in original_variables:
            model.setdefault(name, 0)
        outcome.model = {
            name: value for name, value in model.items() if name in original_variables
        }
        return outcome

    bounds = _propagate_bounds(reduced)
    if bounds is None:
        return unsat()
    guess = _guess_model(reduced, bounds)
    if guess is not None:
        return finish(guess, IlpOutcome(None, propagations=1))

    stats = {"pivots": 0, "nodes": 0}
    reduced_model = _branch_and_bound(reduced, node_limit, stats)
    if reduced_model is None:
        outcome = unsat()
        outcome.nodes += stats["nodes"]
        outcome.pivots += stats["pivots"]
        return outcome
    return finish(
        reduced_model,
        IlpOutcome(None, nodes=stats["nodes"], pivots=stats["pivots"]),
    )


# ---------------------------------------------------------------------------
# Unsat-core minimization (greedy deletion)
# ---------------------------------------------------------------------------


def _minimized_core(
    atoms: Sequence[Atom], node_limit: int, outcome: IlpOutcome
) -> Tuple[Atom, ...]:
    """Shrink an infeasible conjunction by greedy single-atom deletion.

    Each probe re-solves the remainder under a reduced node budget; a probe
    that is still infeasible lets its atom go, anything else (feasible or
    budget blown) keeps it.  The loop maintains "current set is infeasible",
    so the result is always a sound core, and it is minimal w.r.t. removing
    any one atom whenever no probe hit its budget.
    """
    core = list(dict.fromkeys(atoms))
    if len(core) > CORE_MINIMIZE_MAX_ATOMS:
        return tuple(core)
    probe_limit = min(node_limit, CORE_PROBE_NODE_LIMIT)
    index = 0
    while index < len(core) and len(core) > 1:
        probe = core[:index] + core[index + 1 :]
        outcome.core_probes += 1
        try:
            result = solve_conjunction(
                probe, node_limit=probe_limit, minimize_core=False
            )
        except SolverLimitError:
            index += 1
            continue
        outcome.nodes += result.nodes
        outcome.pivots += result.pivots
        if result.model is None:
            core.pop(index)
        else:
            index += 1
    return tuple(core)


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def _recover_equalities(
    inequalities: Sequence[LinearExpression],
) -> Tuple[List[LinearExpression], List[LinearExpression]]:
    """Turn pairs ``expr <= 0`` and ``-expr <= 0`` into equalities ``expr = 0``.

    Without this step, branch-and-bound could diverge on integer-infeasible
    equalities that were written as inequality pairs.
    """
    keyed = {}
    for expression in inequalities:
        key = (expression.items, expression.constant)
        keyed.setdefault(key, []).append(expression)

    equalities: List[LinearExpression] = []
    remaining: List[LinearExpression] = []
    consumed = set()
    for key, expressions in list(keyed.items()):
        if key in consumed:
            continue
        expression = expressions[0]
        negated = -expression
        negated_key = (negated.items, negated.constant)
        if negated_key in keyed and negated_key != key and negated_key not in consumed:
            equalities.append(expression)
            consumed.add(key)
            consumed.add(negated_key)
        else:
            remaining.extend(expressions)
            consumed.add(key)
    return equalities, remaining


def _strip_infeasible(inequalities: Sequence[LinearExpression]) -> bool:
    """GCD test on two-sided strips: detect ``L <= c.x <= U`` with no multiple
    of ``gcd(c)`` inside ``[L, U]``.

    Returning True means the system is definitely integer-infeasible.
    """
    upper_bounds: Dict[Tuple[Tuple[str, int], ...], int] = {}
    for expression in inequalities:
        coefficients = expression.items
        if not coefficients:
            continue
        # expression <= 0  means  c.x <= -constant
        bound = -expression.constant
        if coefficients not in upper_bounds or bound < upper_bounds[coefficients]:
            upper_bounds[coefficients] = bound
    for key, upper in upper_bounds.items():
        negated_key = tuple(sorted((name, -value) for name, value in key))
        if negated_key not in upper_bounds:
            continue
        lower = -upper_bounds[negated_key]
        if lower > upper:
            return True
        gcd = 0
        for _, value in key:
            gcd = math.gcd(gcd, abs(value))
        if gcd == 0:
            continue
        # The value of c.x is always a multiple of gcd; is one in [lower, upper]?
        if (upper // gcd) * gcd < lower:
            return True
    return False


# ---------------------------------------------------------------------------
# Equality elimination (flat-dict fast path)
# ---------------------------------------------------------------------------
#
# Same algorithm as :func:`repro.logic.diophantine.eliminate_equalities`
# (gcd test, unit-coefficient substitution, coefficient reduction via a fresh
# variable), re-implemented over plain ``{name: coefficient}`` dicts.  The
# generic version rebuilds a LinearExpression per substituted term, which
# profiling shows dominating conjunction solves; working on mutable dicts and
# materialising expressions once at the end removes that churn.  The generic
# module remains the readable specification (and the reference solver's
# implementation).

_Row = Tuple[Dict[str, int], int]  # (coefficients, constant)
_Substitution = Tuple[str, Dict[str, int], int]  # var = coeffs . x + const


def _substitute_row(row: _Row, variable: str, coeffs: Dict[str, int], const: int) -> _Row:
    """Replace ``variable`` in ``row`` by the expression ``coeffs + const``."""
    row_coeffs, row_const = row
    factor = row_coeffs.pop(variable, 0)
    if factor:
        for name, value in coeffs.items():
            merged = row_coeffs.get(name, 0) + factor * value
            if merged:
                row_coeffs[name] = merged
            else:
                row_coeffs.pop(name, None)
        row_const += factor * const
    return (row_coeffs, row_const)


def _eliminate(
    equalities: Sequence[LinearExpression],
    inequalities: Sequence[LinearExpression],
) -> Optional[Tuple[List[LinearExpression], List[_Substitution]]]:
    """Eliminate ``expr = 0`` constraints, rewriting the inequality system.

    Returns ``None`` when the equalities alone are integer-infeasible,
    otherwise the rewritten (gcd-tightened) inequalities and the recorded
    substitutions for model lifting.  Inequality order and count are
    preserved.
    """
    pending: List[_Row] = [(dict(expr.items), expr.constant) for expr in equalities]
    pending.reverse()  # pop() processes in input order
    rows: List[_Row] = [(dict(expr.items), expr.constant) for expr in inequalities]
    substitutions: List[_Substitution] = []
    fresh_counter = 0
    # Coefficient reduction strictly shrinks the minimum |coefficient| of the
    # equality being processed, so the step count is bounded by the
    # coefficient magnitudes; the budget only guards against regressions.
    budget = 1000 * (len(pending) + 1)

    while pending:
        budget -= 1
        if budget < 0:  # pragma: no cover - defensive
            raise SolverLimitError("equality elimination exceeded its step budget")
        coeffs, const = pending.pop()
        if not coeffs:
            if const != 0:
                return None
            continue
        gcd = 0
        for value in coeffs.values():
            gcd = math.gcd(gcd, value)
        if const % gcd != 0:
            return None
        if gcd > 1:
            coeffs = {name: value // gcd for name, value in coeffs.items()}
            const //= gcd

        unit = None
        for name in sorted(coeffs):
            if coeffs[name] == 1 or coeffs[name] == -1:
                unit = name
                break

        if unit is not None:
            sign = coeffs.pop(unit)
            # unit*sign + rest + const = 0  =>  unit = -sign * (rest + const)
            if sign == 1:
                solution = {name: -value for name, value in coeffs.items()}
                solution_const = -const
            else:
                solution = coeffs
                solution_const = const
            pending = [
                _substitute_row(row, unit, solution, solution_const)
                for row in pending
            ]
            rows = [
                _substitute_row(row, unit, solution, solution_const) for row in rows
            ]
            substitutions.append((unit, solution, solution_const))
            continue

        # Coefficient reduction: no unit coefficient exists.  Introduce
        # t = x_k + sum q_i x_i (q_i = a_i div a_k), a bijection on integer
        # solutions that strictly shrinks the minimum |coefficient|.
        pivot = min(coeffs, key=lambda name: (abs(coeffs[name]), name))
        pivot_coefficient = coeffs[pivot]
        fresh_counter += 1
        fresh = f"_elim{fresh_counter}"
        replacement: Dict[str, int] = {fresh: 1}
        for name, value in coeffs.items():
            if name == pivot:
                continue
            quotient = value // pivot_coefficient
            if quotient:
                replacement[name] = -quotient
        reduced = _substitute_row((dict(coeffs), const), pivot, replacement, 0)
        pending = [_substitute_row(row, pivot, replacement, 0) for row in pending]
        pending.append(reduced)  # keep reducing the same equality (LIFO)
        rows = [_substitute_row(row, pivot, replacement, 0) for row in rows]
        substitutions.append((pivot, replacement, 0))

    reduced_inequalities = [
        tighten_inequality(LinearExpression(coeffs, const)) for coeffs, const in rows
    ]
    return reduced_inequalities, substitutions


def _lift(model: Dict[str, int], substitutions: Sequence[_Substitution]) -> Dict[str, int]:
    """Extend a model of the reduced system to the eliminated variables."""
    lifted = dict(model)
    for variable, coeffs, const in reversed(substitutions):
        total = const
        for name, value in coeffs.items():
            total += value * lifted.get(name, 0)
        lifted[variable] = total
    return lifted


# ---------------------------------------------------------------------------
# Interval / bound propagation
# ---------------------------------------------------------------------------

Bounds = Dict[str, Tuple[Optional[int], Optional[int]]]


def _propagate_bounds(
    inequalities: Sequence[LinearExpression],
    max_rounds: int = PROPAGATION_ROUNDS,
) -> Optional[Bounds]:
    """Fixpoint of per-variable integer bounds implied by the inequalities.

    Each constraint ``sum a_i x_i + c <= 0`` bounds ``a_j x_j`` by the
    minimal possible value of the other terms; integer rounding makes the
    derived bound exact.  Returns ``None`` on refutation (empty interval, or
    a constraint whose minimum exceeds 0), otherwise the bound map
    ``name -> (lower | None, upper | None)``.
    """
    bounds: Bounds = {}
    for expr in inequalities:
        for name, _ in expr.items:
            bounds.setdefault(name, (None, None))

    for _ in range(max_rounds):
        changed = False
        for expr in inequalities:
            items = expr.items
            if not items:
                if expr.constant > 0:
                    return None
                continue
            # Minimal possible value of each term under the current bounds.
            term_mins: List[Optional[int]] = []
            finite_sum = 0
            unbounded = 0
            for name, coefficient in items:
                lower, upper = bounds[name]
                if coefficient > 0:
                    term_min = None if lower is None else coefficient * lower
                else:
                    term_min = None if upper is None else coefficient * upper
                term_mins.append(term_min)
                if term_min is None:
                    unbounded += 1
                else:
                    finite_sum += term_min
            if unbounded == 0 and finite_sum + expr.constant > 0:
                return None  # even the best case violates the constraint
            for (name, coefficient), term_min in zip(items, term_mins):
                if unbounded - (1 if term_min is None else 0) > 0:
                    continue  # some *other* term is still unbounded below
                residual = finite_sum - (term_min if term_min is not None else 0)
                limit = -expr.constant - residual  # a_j * x_j <= limit
                lower, upper = bounds[name]
                if coefficient > 0:
                    new_upper = limit // coefficient
                    if upper is None or new_upper < upper:
                        bounds[name] = (lower, new_upper)
                        changed = True
                        if lower is not None and lower > new_upper:
                            return None
                else:
                    new_lower = -(limit // -coefficient)  # ceil(limit / coeff)
                    if lower is None or new_lower > lower:
                        bounds[name] = (new_lower, upper)
                        changed = True
                        if upper is not None and new_lower > upper:
                            return None
        if not changed:
            break
    return bounds


def _guess_model(
    inequalities: Sequence[LinearExpression], bounds: Bounds
) -> Optional[Dict[str, int]]:
    """Try the zero point clamped into the propagated bounds."""
    candidate: Dict[str, int] = {}
    for name, (lower, upper) in bounds.items():
        value = 0
        if lower is not None and value < lower:
            value = lower
        if upper is not None and value > upper:
            value = upper
        candidate[name] = value
    for expr in inequalities:
        total = expr.constant
        for name, coefficient in expr.items:
            total += coefficient * candidate[name]
        if total > 0:
            return None
    return candidate


# ---------------------------------------------------------------------------
# Warm-started branch-and-bound
# ---------------------------------------------------------------------------


def _branch_and_bound(
    inequalities: Sequence[LinearExpression],
    node_limit: int,
    stats: Dict[str, int],
) -> Optional[Dict[str, int]]:
    """Depth-first branch-and-bound over the exact rational relaxation.

    Each stack entry is a *solved* tableau (a feasible basis for its
    constraint set).  Children clone the parent and add the single branching
    bound, so the incremental simplex re-optimizes from the parent's basis
    — typically a handful of pivots — instead of re-running Phase I.
    """
    variables = sorted({name for expr in inequalities for name in expr.variables})
    root = SimplexTableau(variables, stats=stats)
    stats["nodes"] += 1
    for expr in inequalities:
        if not root.add_constraint(expr):
            return None
    stack = [root]
    while stack:
        check_deadline()
        if stats["nodes"] > node_limit:
            raise SolverLimitError(
                f"branch-and-bound exceeded the node budget ({node_limit})"
            )
        tableau = stack.pop()
        point = tableau.solution()
        fractional = _most_fractional(point)
        if fractional is None:
            return {name: int(value) for name, value in point.items()}
        name, value = fractional
        floor_value = math.floor(value)
        ceil_value = floor_value + 1
        upper = LinearExpression({name: 1}, -floor_value)  # x - floor <= 0
        lower = LinearExpression({name: -1}, ceil_value)  # ceil - x <= 0
        for bound in (lower, upper):  # LIFO: the floor branch explores first
            child = tableau.clone()
            stats["nodes"] += 1
            if child.add_constraint(bound):
                stack.append(child)
    return None


def _most_fractional(
    point: Dict[str, Fraction],
) -> Optional[Tuple[str, Fraction]]:
    """The variable whose value sits furthest from any integer.

    Branching on it tends to split the relaxation most evenly, which is the
    classic most-fractional rule; the name tie-break keeps runs
    deterministic.
    """
    best: Optional[Tuple[str, Fraction]] = None
    best_score: Optional[Fraction] = None
    for name in sorted(point):
        value = point[name]
        if value.denominator == 1:
            continue
        fractional_part = value - math.floor(value)
        score = min(fractional_part, 1 - fractional_part)
        if best_score is None or score > best_score:
            best = (name, value)
            best_score = score
    return best
