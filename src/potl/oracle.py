"""Exact ground truth over arbitrary-precision rationals.

Everything here trades speed for certainty: probabilities come from the
model's exact rationals, and a minimum is the pointwise minimum over an
exhaustive enumeration of removal strategies. A maximum enumerates
nothing: the maximizer removes nothing (:func:`_choices`, the one place
that says what each obstructor may remove), so it is one evaluation of
the empty strategy. Meant for desk-scale models; the minimizer's
enumeration refuses to run past a limit, which counts what would be
listed: the full strategy product for until and release, and one
state's removal options for next and the step-bounded operators.

Next and the step-bounded operators are one backward induction,
:func:`_unroll`: each step gives a state the least numerator among its
survivor rows, one row under a fixed strategy and one per choice for an
optimum (:func:`_choice_rows`, the one place that lists them). The
first least row at the first step of the horizon is next's witness.
Until and release under a fixed strategy are one exact solve, and
their minimum walks the strategy product. :func:`path_optimum` picks
each operator's optimum.

The arithmetic is on integers. Each entry point scales the probabilities
on the rows it reads to integer numerators over one common denominator,
the lcm of theirs. Until and release are one fixed point,
:func:`_fixed_point`, solved by integer state elimination with each
equation divided by the gcd of its integers; the bounded operators keep
numerators over a power of that denominator. A ``Fraction`` is built
only for a value handed back, and the values are the canonical rationals.

A fixed-strategy value reads the rows of its frame's undetermined states
only, so only those rows are built, and an optimum walks only those
states' removal options. The other states keep the empty removal, which
comes first in every state's options, so the values and the
first-attaining witnesses are those of the full enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    """A list the minimizer's enumeration would walk exceeds the configured
    limit: the strategy product, or one state's removal options. A maximum
    lists nothing, so it never raises this."""

    def __init__(self, count: int, limit: int, what: str = "strategies"):
        super().__init__(f"{count} {what} exceed the enumeration limit of {limit}")
        self.count = count
        self.limit = limit


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


def _choices(
    model: Pots, q: str, budget: int, mode: str, limit: int
) -> list[tuple[Edge, ...]]:
    """The removals the obstructor of ``mode`` may pick at ``q``, in
    :func:`removal_options` order; the optima pick the first minimal one.

    The maximizer picks the empty removal only. A removal deletes paths
    and leaves every surviving path its measure, so it takes probability
    from every event and gives none; removing nothing attains the maximum,
    and as the first option it is also the first strategy to attain it.

    The minimizer picks among all of ``removal_options(model, q, budget)``,
    refused with :class:`EnumerationLimit` before listing when there are
    more than ``limit``."""
    if mode == "max":
        return [()]
    count = _option_count(model.row(q).costs, budget)
    if count > limit:
        raise EnumerationLimit(count, limit, f"removal options at {q}")
    return removal_options(model, q, budget)


def _check_limit(model: Pots, budget: int, limit: int) -> None:
    """Raise :class:`EnumerationLimit` when the full strategy product
    exceeds ``limit``."""
    count = count_strategies(model, budget)
    if count > limit:
        raise EnumerationLimit(count, limit)


def _strategy(
    states: Iterable[str], budget: int, assignment: Sequence[tuple[Edge, ...]]
) -> MemorylessStrategy:
    removal = {q: frozenset(r) for q, r in zip(states, assignment) if r}
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
        yield _strategy(model.states, budget, assignment)


# -- exact fixed-strategy probabilities ----------------------------------------

# A state's surviving row under some removal: (successor, numerator) pairs
# in the model's state order, each numerator the edge's exact probability
# times the entry point's common denominator (see _denominator). A
# strategy's chain is one row per undetermined state, a step of _unroll
# or an equation of _fixed_point; no pruned model is built.
Survivors = tuple[tuple[str, int], ...]


def _denominator(model: Pots, states: Iterable[str]) -> int:
    """The lcm of the probability denominators on the rows of ``states``:
    every probability there is an integer over it."""
    prob = model.prob
    return math.lcm(*[prob[e].denominator for q in states for e in model.row(q).edges])


def _survivors(model: Pots, q: str, removed: Collection[Edge], den: int) -> Survivors:
    row = model.row(q)
    prob = model.prob
    return tuple(
        (r, prob[e].numerator * (den // prob[e].denominator))
        for e, r in zip(row.edges, row.succ)
        if e not in removed
    )


def _fixed_point(
    states: Sequence[str],
    rows: Mapping[str, Survivors],
    den: int,
    within: frozenset[str],
    ones: frozenset[str],
    greatest: bool,
) -> dict[str, Fraction]:
    """The least (until) or ``greatest`` (release) fixed point of ``x_q =
    sum of p * x_r`` over the survivor ``rows`` of ``within``, with ``x``
    pinned to 1 on ``ones`` and to 0 on every other state outside.

    Integer Gauss-Jordan state elimination (Daws, ICTAC 2004; Hahn,
    Hermanns & Zhang, STTT 2011). Each state of ``within`` has one
    equation ``d * x_q = sum of n_r * x_r + c`` over ``within``, its
    self-loop moved into ``d``. The state with the fewest (equations
    naming it x its own terms) goes first, ties in model order. It is
    substituted into every equation that still names it, eliminated or
    not, and each updated equation is divided by the gcd of its integers,
    which keeps them short. A pivot ``d`` of 0 means the state keeps all
    its mass among states already eliminated: a closed class, which never
    reaches ``ones``, so it takes 0 for the least fixed point and 1 for
    the greatest. At the end each equation reads ``d * x_q = c``."""
    values = {q: ONE if q in ones else ZERO for q in states}
    pending = [q for q in states if q in within]
    eqs: dict[str, tuple[int, dict[str, int], int]] = {}
    users: dict[str, set[str]] = {q: set() for q in pending}  # equations naming q
    for q in pending:
        d, terms, c = den, {}, 0
        for r, p in rows[q]:
            if r == q:
                d -= p
            elif r in users:
                terms[r] = p
                users[r].add(q)
            elif r in ones:
                c += p
        eqs[q] = d, terms, c
    if not greatest and not any(c for _, _, c in eqs.values()):
        return values  # no state steps into ones: the least fixed point is 0
    while pending:
        q = min(pending, key=lambda q: len(users[q]) * len(eqs[q][1]))
        pending.remove(q)
        dq, tq, cq = eqs[q]
        if not dq:
            dq, tq, cq = 1, {}, int(greatest)
            eqs[q] = dq, tq, cq
        for s in users.pop(q):
            ds, ts, cs = eqs[s]
            m = ts.pop(q)
            ds, cs = ds * dq, cs * dq + m * cq
            if dq != 1:
                ts = {r: n * dq for r, n in ts.items()}
            for r, n in tq.items():
                if r == s:
                    ds -= m * n
                else:
                    ts[r] = ts.get(r, 0) + m * n
                    users[r].add(s)
            g = math.gcd(ds, cs, *ts.values())
            if g > 1:
                ds, cs = ds // g, cs // g
                ts = {r: n // g for r, n in ts.items()}
            eqs[s] = ds, ts, cs
    for q, (d, _, c) in eqs.items():
        # 0 and 1 need no gcd
        values[q] = ZERO if not c else ONE if c == d else Fraction(c, d)
    return values


class Frame(NamedTuple):
    """One core operator's shape over exact values: the states a step
    updates and the step bound (None for until and release). Values start
    at the indicator of ``sat2`` (the body, for next); the other states are
    pinned there."""

    undetermined: frozenset[str]
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
        return Frame(frozenset(states), 1)
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
    den: int,
    rows: Mapping[str, Sequence[Survivors]],
) -> tuple[dict[str, Fraction], dict[str, int]]:
    """Backward induction over the frame's step bound, on numerators: after
    ``s`` steps every value is an integer over ``scale = den**s``. Each step
    gives an undetermined state the least numerator among its survivor
    ``rows`` (one row for a fixed strategy, one per choice for an optimum);
    a state pinned to 1 holds ``scale``. Each value is divided out once, at
    the end. Also returns each state's first least row at the last step
    unrolled, which is the first step of the horizon."""
    x = {q: (1 if q in sat2 else 0) for q in states}
    ones = sat2.difference(frame.undetermined)
    first: dict[str, int] = {}
    scale = 1
    for _ in range(frame.sweeps):
        scale *= den
        nxt = dict(x)
        for q in ones:
            nxt[q] = scale
        for q in frame.undetermined:
            sums = [sum([p * x[r] for r, p in row]) for row in rows[q]]
            nxt[q] = least = min(sums)
            first[q] = sums.index(least)
        x = nxt
    # 0 and 1 need no gcd
    values = {
        q: ZERO if not v else ONE if v == scale else Fraction(v, scale)
        for q, v in x.items()
    }
    return values, first


def _fixed_values(
    states: Sequence[str],
    rows: Mapping[str, Survivors],
    den: int,
    frame: Frame,
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
) -> dict[str, Fraction]:
    """:func:`exact_prob` on the chain whose state ``q`` keeps ``rows[q]``,
    numerators over ``den``."""
    if frame.sweeps is not None:
        return _unroll(states, frame, sat2, den, {q: (row,) for q, row in rows.items()})[0]
    if isinstance(theta, Until):
        return _fixed_point(states, rows, den, frame.undetermined, sat2, False)
    return _fixed_point(states, rows, den, frame.undetermined, sat1 & sat2, True)


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
    unroll their step bound. Until is the least fixed point that is 1 on
    ``sat2``, and release the greatest that is 1 on ``sat1 & sat2``: a
    state that stays in the right operand forever, in a closed class of
    it, satisfies release. Only the rows of the frame's undetermined
    states are built. Raises :class:`ModelError` when the strategy removes
    an edge the model does not have."""
    removed = strategy.all_removed()
    for e in removed:
        if e not in model.prob:
            raise ModelError(f"cannot remove non-existent edge {e!r}")
    frame = _frame(model.states, theta, sat1, sat2, max_iterations)
    den = _denominator(model, frame.undetermined)
    rows = {q: _survivors(model, q, removed, den) for q in frame.undetermined}
    return _fixed_values(model.states, rows, den, frame, theta, sat1, sat2)


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


def _choice_rows(
    model: Pots, undetermined: Collection[str], budget: int, mode: str, limit: int
) -> tuple[int, dict[str, list[tuple[Edge, ...]]], dict[str, list[Survivors]]]:
    """Each undetermined state's :func:`_choices` and their survivor rows,
    in the model's state order, with the rows' common denominator."""
    states = [q for q in model.states if q in undetermined]
    den = _denominator(model, states)
    options = {q: _choices(model, q, budget, mode, limit) for q in states}
    rows = {q: [_survivors(model, q, removed, den) for removed in options[q]] for q in states}
    return den, options, rows


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
    optimum kept as witness.

    Each state walks its :func:`_choices`; in max mode that is the empty
    removal alone, so ``limit`` is never reached. A next value reads its
    own state's removal only, so next is one :func:`_unroll` step, and a
    state's witness is its first least row removed alone, the first
    strategy of the product to attain it; ``limit`` bounds each state's
    options. Until and release walk the product of the frame's
    undetermined states' options in :func:`enumerate_strategies` order,
    and ``limit`` bounds the whole product."""
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    states = model.states
    frame = _frame(states, theta, sat1, sat2, max_iterations)
    if isinstance(theta, Next):
        den, options, rows = _choice_rows(model, frame.undetermined, budget, mode, limit)
        values, first = _unroll(states, frame, sat2, den, rows)
        witnesses = {q: _strategy([q], budget, [options[q][first[q]]]) for q in states}
        return OptimumResult(values=values, witnesses=witnesses)
    if mode == "min":  # the maximizer's product is the one empty strategy
        _check_limit(model, budget, limit)
    den, options, per_state_rows = _choice_rows(model, frame.undetermined, budget, mode, limit)
    walk = list(options)
    best: dict[str, Fraction] = {}
    witness: dict[str, MemorylessStrategy] = {}
    for assignment, chosen in zip(
        itertools.product(*options.values()), itertools.product(*per_state_rows.values())
    ):
        rows = dict(zip(walk, chosen))
        values = _fixed_values(states, rows, den, frame, theta, sat1, sat2)
        strategy = None
        # a state off the frame keeps one value under every strategy
        for q in frame.undetermined if best else values:
            v = values[q]
            if q not in best or v < best[q]:
                best[q] = v
                if strategy is None:
                    strategy = _strategy(walk, budget, assignment)
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
    limit: int = DEFAULT_LIMIT,
) -> dict[str, Fraction]:
    """Exact optimum for next and the step-bounded operators when the
    obstructing player may re-choose removals at every step (the optimum
    over unrestricted strategies): one :func:`_unroll` over the rows of
    each undetermined state's :func:`_choices`. In min mode that is every
    removal option, listed outright rather than optimized, with ``limit``
    bounding each state's list; in max mode the empty removal alone, so
    the maximum is one unroll of the empty strategy."""
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    frame = _frame(model.states, theta, sat1, sat2, max_iterations)
    if frame.sweeps is None:
        raise TypeError(f"step_optimum handles next and bounded operators: {theta!r}")
    den, _, rows = _choice_rows(model, frame.undetermined, budget, mode, limit)
    return _unroll(model.states, frame, sat2, den, rows)[0]


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


def path_optimum(
    model: Pots,
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
    budget: int,
    mode: str,
    limit: int = DEFAULT_LIMIT,
    max_iterations: int | None = None,
) -> OptimumResult:
    """The optimum that answers a core path formula: the memoryless one,
    with its witnesses, for next, until and release, and the step-wise one
    for the step-bounded operators, which has no memoryless witness."""
    if isinstance(theta, (BoundedUntil, BoundedRelease)):
        values = step_optimum(model, theta, sat1, sat2, budget, mode, max_iterations, limit)
        return OptimumResult(values=values, witnesses={})
    return oracle_optimum(model, theta, sat1, sat2, budget, mode, limit, max_iterations)


def oracle_query_values(
    model: Pots,
    phi: ObstructQuery,
    limit: int = DEFAULT_LIMIT,
    max_iterations: int | None = None,
) -> Mapping[str, Fraction]:
    """The per-state optimum the query's comparison is decided against."""
    sat1, sat2 = operand_sets(model, phi.body, limit, max_iterations)
    return path_optimum(
        model, phi.body, sat1, sat2, phi.grade, phi.mode, limit, max_iterations
    ).values
