"""Exact ground truth over arbitrary-precision rationals.

Everything here trades speed for certainty: probabilities come from the
model's exact rationals, removal strategies are enumerated exhaustively,
fixed-strategy probabilities are computed by finite unrolling or Gaussian
elimination, and optima are pointwise extrema over the enumeration. Meant
for desk-scale models; the enumeration refuses to run past a limit, which
counts the full strategy product.

An optimum walks the removal options of its frame's undetermined states
only; the other states keep the empty removal. No fixed-strategy value
reads their rows, and the empty removal comes first in every state's
options, so the values and the first-attaining witnesses are those of
the full enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterator, Mapping, NamedTuple, Sequence

from .model import Edge, ModelError, Pots, prune
from .obstruction import MemorylessStrategy
from .syntax import (
    And,
    Atom,
    BoundedRelease,
    BoundedUntil,
    FalseConst,
    Implies,
    Next,
    Not,
    ObstructQuery,
    Or,
    PathFormula,
    Release,
    StateFormula,
    TrueConst,
    Until,
)

DEFAULT_LIMIT = 10**6

ZERO = Fraction(0)
ONE = Fraction(1)


class StepLimit(RuntimeError):
    """A step bound exceeds the maximum iteration count; raised before the
    operator is unrolled."""

    def __init__(self, bound: int, max_iterations: int):
        super().__init__(
            f"step bound {bound} exceeds the limit of {max_iterations} iterations"
        )


class EnumerationLimit(RuntimeError):
    """The strategy product space exceeds the configured limit."""

    def __init__(self, count: int, limit: int):
        super().__init__(
            f"{count} strategies exceed the enumeration limit of {limit}"
        )
        self.count = count
        self.limit = limit


# -- cylinder measure ---------------------------------------------------------


def cylinder_measure(model: Pots, prefix: Sequence[str]) -> Fraction:
    """Exact measure of all infinite paths extending the given finite
    prefix: the product of its transition probabilities."""
    if not prefix:
        raise ModelError("a path prefix needs at least one state")
    for q in prefix:
        model.state_index(q)
    out = ONE
    for q, r in zip(prefix, prefix[1:]):
        p = model.prob_exact(q, r)
        if p == 0:
            raise ModelError(f"prefix steps through a missing edge ({q}, {r})")
        out *= p
    return out


# -- strategy enumeration ------------------------------------------------------


def removal_options(model: Pots, q: str, budget: int) -> list[tuple[Edge, ...]]:
    """All strict removal subsets at ``q`` within the budget, empty set
    first, then by size and edge order.

    Built one size at a time: each affordable set of size k + 1 extends an
    affordable set of size k (costs are non-negative) by a later edge, so
    the walk only ever touches sets that fit."""
    row = model.row(q)
    costs = row.costs
    layer = [((), 0)]  # the affordable index sets of one size, with their cost
    options = [()]
    for _ in range(1, len(costs)):  # strict: never all of them
        layer = [
            (combo + (j,), spent + costs[j])
            for combo, spent in layer
            for j in range(combo[-1] + 1 if combo else 0, len(costs))
            if spent + costs[j] <= budget
        ]
        options.extend(tuple(row.edges[i] for i in combo) for combo, _ in layer)
    return options


def _option_count(costs: Sequence[int], budget: int) -> int:
    """``len(removal_options(...))`` for a row of these costs, without
    listing the sets: the number of affordable index sets, counted by the
    cost they spend, less the full set when it fits (strictness). A row
    without edges keeps its one option, the empty removal."""
    sets_by_cost = {0: 1}
    for c in costs:
        for spent, n in list(sets_by_cost.items()):
            if spent + c <= budget:
                sets_by_cost[spent + c] = sets_by_cost.get(spent + c, 0) + n
    full_fits = len(costs) > 0 and sum(costs) <= budget
    return sum(sets_by_cost.values()) - full_fits


def count_strategies(model: Pots, budget: int) -> int:
    """The number of memoryless strategies of the grade: the product of
    every state's option count."""
    return math.prod(_option_count(model.row(q).costs, budget) for q in model.states)


def _check_limit(model: Pots, budget: int, limit: int) -> None:
    """Raise :class:`EnumerationLimit` when the full strategy product
    exceeds ``limit``."""
    count = count_strategies(model, budget)
    if count > limit:
        raise EnumerationLimit(count, limit)


def _strategy(
    model: Pots, budget: int, assignment: Sequence[tuple[Edge, ...]]
) -> MemorylessStrategy:
    removal = {
        q: frozenset(removed) for q, removed in zip(model.states, assignment) if removed
    }
    return MemorylessStrategy(grade=budget, removal=removal)


def enumerate_strategies(
    model: Pots, budget: int, limit: int = DEFAULT_LIMIT
) -> Iterator[MemorylessStrategy]:
    """Every memoryless strategy of the given grade, as the cartesian
    product of per-state removal options. Raises :class:`EnumerationLimit`
    up front when the product is too large."""
    _check_limit(model, budget, limit)
    per_state = [removal_options(model, q, budget) for q in model.states]
    for assignment in itertools.product(*per_state):
        yield _strategy(model, budget, assignment)


# -- exact fixed-strategy probabilities ----------------------------------------

# A state's surviving row under some removal: (successor, exact probability)
# pairs in the model's state order. A strategy's chain is one row per state;
# no pruned model is built.
Survivors = tuple[tuple[str, Fraction], ...]


def _survivors(model: Pots, q: str, removed: Collection[Edge]) -> Survivors:
    row = model.row(q)
    return tuple(
        (r, model.prob[e]) for e, r in zip(row.edges, row.succ) if e not in removed
    )


def _strategy_rows(model: Pots, strategy: MemorylessStrategy) -> dict[str, Survivors]:
    removed = strategy.all_removed()
    for e in removed:
        if e not in model.prob:
            raise ModelError(f"cannot remove non-existent edge {e!r}")
    return {q: _survivors(model, q, removed) for q in model.states}


def _solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over rationals for a square nonsingular system."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular linear system in exact solver")
        a[col], a[pivot] = a[pivot], a[col]
        inv = ONE / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _backward_reachable(
    rows: Mapping[str, Survivors], targets: frozenset[str], through: frozenset[str]
) -> set[str]:
    """States with a positive-probability path to ``targets`` whose
    intermediate states all lie in ``through``: a fixpoint over the
    successor rows, at most |through| rounds."""
    reached = set(targets)
    changed = True
    while changed:
        changed = False
        for q in through:
            if q not in reached and any(r in reached for r, _ in rows[q]):
                reached.add(q)
                changed = True
    return reached


def _reach_exact(
    states: Sequence[str],
    rows: Mapping[str, Survivors],
    through: frozenset[str],
    targets: frozenset[str],
) -> dict[str, Fraction]:
    """Exact probability of hitting ``targets`` while travelling through
    ``through`` only, per start state."""
    values = {q: ZERO for q in states}
    for q in targets:
        values[q] = ONE
    can = _backward_reachable(rows, targets, through)
    unknowns = [q for q in states if q in can and q not in targets]
    if not unknowns:
        return values
    index = {q: i for i, q in enumerate(unknowns)}
    matrix = [[ZERO] * len(unknowns) for _ in unknowns]
    rhs = [ZERO] * len(unknowns)
    for q in unknowns:
        i = index[q]
        matrix[i][i] = ONE
        for r, p in rows[q]:
            if r in targets:
                rhs[i] += p
            elif r in index:
                matrix[i][index[r]] -= p
    solution = _solve(matrix, rhs)
    for q, v in zip(unknowns, solution):
        values[q] = v
    return values


def _stable_core(
    rows: Mapping[str, Survivors], region: frozenset[str]
) -> frozenset[str]:
    """Largest subset of ``region`` every state of which keeps full
    probability mass inside the subset; shrinks to a fixpoint in at most
    |region| rounds."""
    core = set(region)
    changed = True
    while changed:
        changed = False
        for q in list(core):
            if sum((p for r, p in rows[q] if r in core), ZERO) != 1:
                core.discard(q)
                changed = True
    return frozenset(core)


class Frame(NamedTuple):
    """One core operator's shape over exact values: the states a step
    updates and the step bound (None for until and release). Values start
    at the indicator of ``sat2`` (the body, for next); the other states are
    pinned there."""

    undetermined: Collection[str]
    sweeps: int | None


def _frame(
    states: Sequence[str],
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
    max_iterations: int | None,
) -> Frame:
    """Next pins nothing; until pins 1 on ``sat2`` and 0 off ``sat1 | sat2``;
    release pins 1 on ``sat1 & sat2`` and 0 off ``sat2``. A step bound
    above ``max_iterations`` (None: no cap) raises :class:`StepLimit`."""
    if isinstance(theta, Next):
        return Frame(states, 1)
    bound = getattr(theta, "bound", None)
    if max_iterations is not None and bound is not None and bound > max_iterations:
        raise StepLimit(bound, max_iterations)
    if isinstance(theta, (Until, BoundedUntil)):
        return Frame(sat1 - sat2, bound)
    if isinstance(theta, (Release, BoundedRelease)):
        return Frame(sat2 - sat1, bound)
    raise TypeError(f"not a core path formula: {theta!r}")


def _unroll(
    states: Sequence[str],
    frame: Frame,
    sat2: frozenset[str],
    step: Callable[[str, Mapping[str, Fraction]], Fraction],
) -> dict[str, Fraction]:
    """Backward induction over the frame's step bound."""
    x = {q: (ONE if q in sat2 else ZERO) for q in states}
    for _ in range(frame.sweeps):
        nxt = dict(x)
        for q in frame.undetermined:
            nxt[q] = step(q, x)
        x = nxt
    return x


def _fixed_values(
    states: Sequence[str],
    rows: Mapping[str, Survivors],
    frame: Frame,
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
) -> dict[str, Fraction]:
    """:func:`exact_prob` on the chain whose state ``q`` keeps ``rows[q]``."""
    if frame.sweeps is not None:
        return _unroll(
            states,
            frame,
            sat2,
            lambda q, x: sum((p * x[r] for r, p in rows[q] if x[r]), ZERO),
        )
    within = frame.undetermined
    if isinstance(theta, Until):
        return _reach_exact(states, rows, within, sat2)
    values = _reach_exact(states, rows, within, sat1 & sat2)
    core = _stable_core(rows, within)
    if core:
        forever = _reach_exact(states, rows, within, core)
        for q in within:
            values[q] += forever[q]
    return values


def exact_prob(
    model: Pots,
    strategy: MemorylessStrategy,
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
    max_iterations: int | None = None,
) -> dict[str, Fraction]:
    """Exact satisfaction probability of a core path formula under a fixed
    memoryless strategy; operand satisfaction sets are supplied resolved
    (``sat2`` alone matters for next). Next and the bounded operators
    unroll their step bound; until solves for the probability of reaching
    ``sat2``. Release adds two disjoint events: hitting a state satisfying
    both operands while staying in the right operand, or staying in the
    right operand (and off the left one) forever, whose mass concentrates
    on the no-leak core of that region. Raises :class:`ModelError` when
    the strategy removes an edge the model does not have."""
    rows = _strategy_rows(model, strategy)
    frame = _frame(model.states, theta, sat1, sat2, max_iterations)
    return _fixed_values(model.states, rows, frame, theta, sat1, sat2)


def exact_bounded_by_paths(
    model: Pots,
    strategy: MemorylessStrategy,
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
    start: str,
) -> Fraction:
    """Bounded-operator probability by direct enumeration of minimal
    witnessing prefixes on the pruned model; an independent cross-check
    for the recursions."""
    pruned = prune(model, strategy.all_removed())
    both = sat1 & sat2

    if isinstance(theta, Next):
        return sum(
            (pruned.prob_exact(start, r) for r in pruned.succ(start) if r in sat2),
            ZERO,
        )

    if isinstance(theta, BoundedUntil):
        def until_walk(q: str, depth: int, measure: Fraction) -> Fraction:
            if q in sat2:
                return measure
            if q not in sat1 or depth == theta.bound:
                return ZERO
            return sum(
                (
                    until_walk(r, depth + 1, measure * pruned.prob_exact(q, r))
                    for r in pruned.succ(q)
                ),
                ZERO,
            )

        return until_walk(start, 0, ONE)

    if isinstance(theta, BoundedRelease):
        def release_walk(q: str, depth: int, measure: Fraction) -> Fraction:
            if q not in sat2:
                return ZERO
            if q in both or depth == theta.bound:
                return measure
            return sum(
                (
                    release_walk(r, depth + 1, measure * pruned.prob_exact(q, r))
                    for r in pruned.succ(q)
                ),
                ZERO,
            )

        return release_walk(start, 0, ONE)

    raise TypeError(f"not a bounded path formula: {theta!r}")


# -- optima ---------------------------------------------------------------------


@dataclass(frozen=True)
class OptimumResult:
    values: Mapping[str, Fraction]
    witnesses: Mapping[str, MemorylessStrategy]


def oracle_optimum(
    model: Pots,
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
    budget: int,
    mode: str,
    limit: int = DEFAULT_LIMIT,
    max_iterations: int | None = None,
) -> OptimumResult:
    """Pointwise min or max of :func:`exact_prob` over every memoryless
    strategy of the grade, with the first strategy attaining each state's
    optimum kept as witness. ``limit`` bounds the whole strategy product.

    Only the frame's undetermined states have their removal options
    walked; every other state keeps its first option, the empty removal.
    :func:`_fixed_values` reads no other state's row, so strategies that
    differ only there have equal values. The walk keeps
    :func:`enumerate_strategies` order, each strategy a choice of one
    surviving row per state, so the first strategy to reach a state's
    optimum in the full product removes nothing outside the frame and is
    the witness here too."""
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    states = model.states
    frame = _frame(states, theta, sat1, sat2, max_iterations)
    _check_limit(model, budget, limit)
    per_state = [
        removal_options(model, q, budget) if q in frame.undetermined else [()]
        for q in states
    ]
    per_state_rows = [
        [_survivors(model, q, removed) for removed in options]
        for q, options in zip(states, per_state)
    ]
    best: dict[str, Fraction] = {}
    witness: dict[str, MemorylessStrategy] = {}
    for assignment, chosen in zip(
        itertools.product(*per_state), itertools.product(*per_state_rows)
    ):
        rows = dict(zip(states, chosen))
        values = _fixed_values(states, rows, frame, theta, sat1, sat2)
        strategy = None
        for q, v in values.items():
            if q not in best or (v < best[q] if mode == "min" else v > best[q]):
                best[q] = v
                if strategy is None:
                    strategy = _strategy(model, budget, assignment)
                witness[q] = strategy
    return OptimumResult(values=best, witnesses=witness)


def step_optimum(
    model: Pots,
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
    budget: int,
    mode: str,
    max_iterations: int | None = None,
) -> dict[str, Fraction]:
    """Exact optimum for next and the step-bounded operators when the
    obstructing player may re-choose removals at every step (the optimum
    over unrestricted strategies, by backward induction). Per-state choices
    are enumerated outright rather than optimized."""
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    frame = _frame(model.states, theta, sat1, sat2, max_iterations)
    if frame.sweeps is None:
        raise TypeError(f"step_optimum handles next and bounded operators: {theta!r}")
    pick = min if mode == "min" else max
    rows = {
        q: [
            _survivors(model, q, removed)
            for removed in removal_options(model, q, budget)
        ]
        for q in frame.undetermined
    }
    return _unroll(
        model.states,
        frame,
        sat2,
        lambda q, x: pick(
            sum((p * x[r] for r, p in row if x[r]), ZERO) for row in rows[q]
        ),
    )


# -- formula-level exact satisfaction -------------------------------------------


def oracle_sat(
    model: Pots,
    phi: StateFormula,
    limit: int = DEFAULT_LIMIT,
    max_iterations: int | None = None,
) -> frozenset[str]:
    """Exact satisfaction set of a state formula. Unbounded operators take
    the optimum over the memoryless enumeration; bounded ones take the
    step-wise optimum, which matches strategies free to re-choose per step.
    ``limit`` and ``max_iterations`` apply to every query inside."""
    cap = max_iterations
    if isinstance(phi, TrueConst):
        return frozenset(model.states)
    if isinstance(phi, FalseConst):
        return frozenset()
    if isinstance(phi, Atom):
        return frozenset(q for q in model.states if phi.name in model.label_of(q))
    if isinstance(phi, Not):
        return frozenset(model.states) - oracle_sat(model, phi.body, limit, cap)
    if isinstance(phi, And):
        return oracle_sat(model, phi.left, limit, cap) & oracle_sat(model, phi.right, limit, cap)
    if isinstance(phi, Or):
        return oracle_sat(model, phi.left, limit, cap) | oracle_sat(model, phi.right, limit, cap)
    if isinstance(phi, Implies):
        left = oracle_sat(model, phi.left, limit, cap)
        right = oracle_sat(model, phi.right, limit, cap)
        return (frozenset(model.states) - left) | right
    if isinstance(phi, ObstructQuery):
        values = oracle_query_values(model, phi, limit, max_iterations)
        return frozenset(q for q, v in values.items() if phi.holds(v))
    raise TypeError(f"not a state formula: {phi!r}")


def operand_sets(
    model: Pots,
    theta: PathFormula,
    limit: int = DEFAULT_LIMIT,
    max_iterations: int | None = None,
) -> tuple[frozenset[str], frozenset[str]]:
    """Exact satisfaction sets of a core path formula's operands (``sat2``
    alone for next)."""
    if isinstance(theta, Next):
        return frozenset(), oracle_sat(model, theta.body, limit, max_iterations)
    if isinstance(theta, (Until, BoundedUntil, Release, BoundedRelease)):
        return (
            oracle_sat(model, theta.left, limit, max_iterations),
            oracle_sat(model, theta.right, limit, max_iterations),
        )
    raise TypeError(f"not a core path formula: {theta!r}")


def _optimum_values(
    model: Pots,
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
    budget: int,
    mode: str,
    limit: int,
    max_iterations: int | None,
) -> dict[str, Fraction]:
    """The optimum a query is decided against: the memoryless optimum for
    until and release, the step-wise optimum otherwise."""
    if isinstance(theta, (Until, Release)):
        return dict(oracle_optimum(model, theta, sat1, sat2, budget, mode, limit).values)
    return step_optimum(model, theta, sat1, sat2, budget, mode, max_iterations)


def oracle_query_values(
    model: Pots,
    phi: ObstructQuery,
    limit: int = DEFAULT_LIMIT,
    max_iterations: int | None = None,
) -> dict[str, Fraction]:
    """The per-state optimum the query's comparison is decided against."""
    sat1, sat2 = operand_sets(model, phi.body, limit, max_iterations)
    return _optimum_values(
        model, phi.body, sat1, sat2, phi.grade, phi.mode, limit, max_iterations
    )


def qualitative_sets(
    model: Pots,
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
    budget: int,
    mode: str,
    limit: int = DEFAULT_LIMIT,
    max_iterations: int | None = None,
) -> tuple[frozenset[str], frozenset[str]]:
    """Exact zero and one sets of the optimum, for conformance reports."""
    values = _optimum_values(model, theta, sat1, sat2, budget, mode, limit, max_iterations)
    zero = frozenset(q for q, v in values.items() if v == 0)
    one = frozenset(q for q, v in values.items() if v == 1)
    return zero, one
