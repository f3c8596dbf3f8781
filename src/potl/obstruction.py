"""The obstructing player's machinery: predecessor operators over state
sets, per-state budgeted edge removal, and memoryless strategies.

A strategy removes, at each state, a strict subset of the outgoing edges
whose total cost fits the grade; at least one edge always survives.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .model import Edge, ModelError, Pots, edges_of

Removal = tuple[Edge, ...]


@dataclass(frozen=True)
class MemorylessStrategy:
    """Per-state removal sets under a common cost budget (the grade).
    States absent from ``removal`` remove nothing."""

    grade: int
    removal: Mapping[str, frozenset[Edge]]

    def removed(self, q: str) -> frozenset[Edge]:
        return self.removal.get(q, frozenset())

    def all_removed(self) -> frozenset[Edge]:
        out: set[Edge] = set()
        for edges in self.removal.values():
            out |= edges
        return frozenset(out)


def empty_strategy(grade: int = 0) -> MemorylessStrategy:
    return MemorylessStrategy(grade=grade, removal={})


def validate_strategy(model: Pots, strategy: MemorylessStrategy) -> list[str]:
    """Empty report iff every state keeps an edge and stays within budget."""
    report = []
    if strategy.grade < 0:
        report.append(f"grade must be non-negative, got {strategy.grade}")
    for q, removed in strategy.removal.items():
        if q not in model.states:
            report.append(f"removal at unknown state {q!r}")
            continue
        own = set(edges_of(model, q))
        foreign = set(removed) - own
        if foreign:
            report.append(f"removal at {q} of non-edges: {sorted(foreign)}")
            continue
        if set(removed) == own and own:
            report.append(f"strictness at {q}: strategy removes every outgoing edge")
        total = sum(model.cost_of(*e) for e in removed)
        if total > strategy.grade:
            report.append(
                f"budget at {q}: removal costs {total} > grade {strategy.grade}"
            )
    return report


# -- set-level operators -----------------------------------------------------


def pre_set(model: Pots, targets: Iterable[str]) -> frozenset[str]:
    """All one-step predecessors of a set of states."""
    out: set[str] = set()
    for q in targets:
        out.update(model.pred(q))
    return frozenset(out)


def can_cut(model: Pots, q: str, budget: int, targets: Iterable[str]) -> bool:
    """True iff the edges from ``q`` into ``targets`` together cost at most
    the budget (absent edges contribute nothing)."""
    model.state_index(q)
    total = 0
    for r in targets:
        total += model.cost_of(q, r)
    return total <= budget


def obstruct_pred(model: Pots, budget: int, targets: Iterable[str]) -> frozenset[str]:
    """Predecessors of ``targets`` that can sever every escape into the
    complement within the budget: ``can_cut`` into the complement, read
    off each predecessor's own row."""
    targets = frozenset(targets)
    out = []
    for q in pre_set(model, targets):
        row = model.row(q)
        escape = sum([c for r, c in zip(row.succ, row.costs) if r not in targets])
        if escape <= budget:
            out.append(q)
    return frozenset(out)


# -- budgeted removal ---------------------------------------------------------


class CostRangeError(ValueError):
    """The edge costs and weights at a state are spread so wide that the
    removal optimizer would merge a Pareto front from more than
    ``_FRONT_CAP`` pairs. A front of a suffix of k edges holds at most
    2**k - 1 pairs and one per cost within the budget, so this needs a row
    of more than 21 edges and a budget of at least 2**19 - 1."""


# rows with at most this many strict removal sets at a budget pick from a
# list of them, made once per model, state and budget in the state's plan;
# longer lists go to the Pareto front
_MAX_OPTIONS = 64
# the most (cost, weight) pairs one front may be merged from
_FRONT_CAP = 2**20


def _walk(
    costs: Sequence[int],
    budget: int,
    start: int = 0,
    picked: tuple[int, ...] = (),
    spent: int = 0,
):
    """The strict removal sets within the budget, as index tuples in
    lexicographic order: every set comes before its extensions."""
    if len(picked) < len(costs):
        yield picked
    for f in range(start, len(costs)):
        if spent + costs[f] <= budget:
            yield from _walk(costs, budget, f + 1, picked + (f,), spent + costs[f])


def _options(costs: tuple[int, ...], budget: int) -> tuple[tuple[int, ...], ...] | None:
    """The strict removal sets of a cost row within the budget, in
    lexicographic order, or None when there are more than
    ``_MAX_OPTIONS`` of them. They do not depend on the values."""
    options = tuple(itertools.islice(_walk(costs, budget), _MAX_OPTIONS + 1))
    return options if len(options) <= _MAX_OPTIONS else None


def _heaviest(
    weights: list[int], options: Iterable[tuple[int, ...]]
) -> tuple[int, tuple[int, ...]]:
    """The first option removing the largest weight, and that weight; in
    lexicographic order that is the smallest index set among the optima.
    The scan starts at the empty set, which removes nothing and comes
    before every option."""
    best_w, best = 0, ()
    get = weights.__getitem__
    for option in options:
        w = sum(map(get, option))
        if w > best_w:
            best_w, best = w, option
    return best_w, best


def _merge(ac: list, aw: list, bc: list, bw: list) -> tuple[list, list]:
    """Merge two lists of costs and weights, each in cost order, into a
    front: the pairs, in cost order, that remove more than every pair
    before them (here a sentinel), and of one cost only the heaviest."""
    oc, ow, i, k, na, nb = [-1], [-1], 0, 0, len(ac), len(bc)
    while i < na or k < nb:
        if k == nb or i < na and ac[i] <= bc[k]:
            c, w, i = ac[i], aw[i], i + 1
        else:
            c, w, k = bc[k], bw[k], k + 1
        if w > ow[-1]:
            if oc[-1] == c:
                ow[-1] = w
            else:
                oc.append(c)
                ow.append(w)
    return oc[1:], ow[1:]


def _pareto_heaviest(
    weights: list[int], costs: Sequence[int], budget: int
) -> tuple[int, tuple[int, ...]]:
    """``_heaviest`` over every strict removal set within the budget,
    without listing them. A suffix DP (Nemhauser & Ullmann, "Discrete
    dynamic programming and capital allocation") builds ``fronts[j]``, the
    Pareto front of the strict subsets of the edges from j on within the
    budget, and ``whole[j]``, the cost and weight of all of them. The set
    is then built front to back: each step takes the earliest edge whose
    best completion removes the most, or stops, which is lexicographically
    first, when none adds weight. Stitching tie-broken sets instead would
    lose: a zero-weight edge makes a set smaller once a later edge joins.
    """
    d = len(costs)
    whole, fronts = [(0, 0)] * (d + 1), [([], [])] * (d + 1)
    for j in range(d - 1, 0, -1):  # the walk below never reads fronts[0]
        fc, fw = fronts[j + 1]
        wc, ww = whole[j + 1]
        c, w = costs[j], weights[j]
        # edge j kept beside any subset of the rest, or removed beside a strict one
        ac, aw = (fc + [wc], fw + [ww]) if wc <= budget else (fc, fw)
        k = bisect_right(fc, budget - c)
        if len(ac) + k > _FRONT_CAP:
            raise CostRangeError(
                "cost range too wide for the removal optimizer "
                f"(a front of up to {len(ac) + k} pairs, degree {d})"
            )
        fronts[j] = _merge(ac, aw, [x + c for x in fc[:k]], [x + w for x in fw[:k]])
        whole[j] = (wc + c, ww + w)

    def most(j: int, b: int, strict: bool) -> int | None:
        # the most a subset of the edges from j on removes within b, None
        # if none fits; it need not be strict once an earlier edge is kept
        if not strict and whole[j][0] <= b:
            return whole[j][1]
        k = bisect_right(fronts[j][0], b)
        return fronts[j][1][k - 1] if k else None

    chosen, j, b, strict = [], 0, budget, True
    while True:
        gain, pick = 0, None
        for f in range(j, d):  # taking f keeps the edges from j to f - 1
            rest = most(f + 1, b - costs[f], strict and f == j) if costs[f] <= b else None
            if rest is not None and weights[f] + rest > gain:
                gain, pick = weights[f] + rest, f
        if pick is None:
            return sum(weights[f] for f in chosen), tuple(chosen)
        chosen.append(pick)
        b -= costs[pick]
        strict = strict and pick == j
        j = pick + 1


def _plan(model: Pots, q: str, budget: int) -> tuple:
    """What ``best_removal`` reads of the row of ``q`` at this budget. A lone
    edge plans its successor and its float probability. Any other row plans
    the row itself, its non-empty strict removal sets within the budget
    (None for the Pareto front), and a memo, empty at first, of answers to
    successor values that are all exactly 0 or 1. What such a row reads at
    every budget is made once per state, in ``Pots._terms``: a getter of its
    successors' values, and each probability's exact integer view, the
    numerator and the bit length of its power-of-two denominator."""
    row = model.row(q)
    if len(row.costs) == 1:
        return row.succ[0], row.probs[0]
    if q not in model._terms:
        # itemgetter() of no key raises: an edgeless row reads no values
        successors = itemgetter(*row.succ) if row.succ else lambda value: ()
        exact = map(float.as_integer_ratio, row.probs)
        model._terms[q] = successors, tuple([(pn, pd.bit_length()) for pn, pd in exact])
    options = _options(row.costs, budget)
    return row, options if options is None else options[1:], {}


def best_removal(
    model: Pots,
    q: str,
    budget: int,
    value: Mapping[str, float],
) -> tuple[Removal, float]:
    """Strict removal set at ``q`` minimizing the surviving mass weighted by
    ``value`` over the successors, subject to the cost budget.

    Ties break to the lexicographically smallest set under the model's edge
    order. Rows with more than ``_MAX_OPTIONS`` strict removal sets go to a
    Pareto-front knapsack, which raises CostRangeError when a front of a
    row of more than 21 edges outgrows ``_FRONT_CAP``. Comparisons are
    exact: each weight, a float probability times a float value, is a
    dyadic rational, held as an integer over one power-of-two denominator
    shared by the row. The surviving value is rounded to a float once,
    correctly.

    What does not depend on ``value`` is planned on the first call and
    kept with the model (see ``_plan``). When every successor value of a
    row other than a lone edge is exactly 0 or 1 (pinned states, and states
    the minimizer holds at 0 or 1), the answer depends only on which
    successors hold 1, so the plan's memo keeps it, keyed by the tuple of
    successor values (``-0.0`` keys and answers as 0): each such pattern
    is computed once per plan. Other values are computed every time and
    stored nowhere.
    """
    plans = model._plans
    try:
        plan = plans[q, budget]
    except KeyError:
        plan = plans[q, budget] = _plan(model, q, budget)
    if len(plan) == 2:
        # strictness keeps a lone edge; the float product is the correctly
        # rounded exact product
        r, p = plan
        return (), p * value[r]
    row, options, known = plan
    successors, terms = model._terms[q]
    values = successors(value)
    answer = known.get(values)
    if answer is not None:
        return answer
    # weight i is nums[i] / 2**(sizes[i] - 2), from pd * vd with both
    # factors powers of two; shifted onto the largest denominator, the
    # weights are integers
    nums = []
    sizes = []
    top = 2
    for v, (pn, pbits) in zip(values, terms):
        vn, vd = v.as_integer_ratio()
        nums.append(pn * vn)
        size = pbits + vd.bit_length()
        sizes.append(size)
        if size > top:
            top = size
    weights = [n << (top - s) for n, s in zip(nums, sizes)]
    if options is None:
        removed_w, chosen = _pareto_heaviest(weights, row.costs, budget)
    elif options:
        removed_w, chosen = _heaviest(weights, options)
    else:
        # no edge fits the budget: the empty removal is the only option
        removed_w, chosen = 0, ()
    survived = (sum(weights) - removed_w) / (1 << (top - 2))
    answer = (tuple([row.edges[i] for i in chosen]) if chosen else (), survived)
    if values.count(0.0) + values.count(1.0) == len(values):
        known[values] = answer
    return answer


# -- strategy file format -----------------------------------------------------


def strategy_doc(strategy: MemorylessStrategy) -> dict:
    """The strategy file's document: the grade, and each state's non-empty
    removal as sorted ``[from, to]`` pairs, states in sorted order."""
    return {
        "grade": strategy.grade,
        "removal": {
            q: sorted([list(e) for e in edges])
            for q, edges in sorted(strategy.removal.items())
            if edges
        },
    }


def strategy_to_json(strategy: MemorylessStrategy) -> str:
    return json.dumps(strategy_doc(strategy), indent=2)


def strategy_from_json(text: str) -> MemorylessStrategy:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"strategy file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) - {"grade", "removal"}:
        raise ModelError("strategy file must hold exactly 'grade' and 'removal'")
    grade = doc.get("grade")
    if not isinstance(grade, int) or isinstance(grade, bool) or grade < 0:
        raise ModelError("'grade' must be a non-negative integer")
    removal_doc = doc.get("removal", {})
    if not isinstance(removal_doc, dict):
        raise ModelError("'removal' must be an object")
    removal: dict[str, frozenset[Edge]] = {}
    for q, pairs in removal_doc.items():
        edges = set()
        if not isinstance(pairs, list):
            raise ModelError(f"removal at {q!r} must be a list of edges")
        for pair in pairs:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(s, str) for s in pair)
            ):
                raise ModelError(f"bad edge {pair!r} in removal at {q!r}")
            if pair[0] != q:
                raise ModelError(f"removal at {q!r} lists edge from {pair[0]!r}")
            edges.add((pair[0], pair[1]))
        removal[q] = frozenset(edges)
    return MemorylessStrategy(grade=grade, removal=removal)


def load_strategy(path: str) -> MemorylessStrategy:
    with open(path, "r", encoding="utf-8") as handle:
        return strategy_from_json(handle.read())


def save_strategy(strategy: MemorylessStrategy, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(strategy_to_json(strategy) + "\n")
