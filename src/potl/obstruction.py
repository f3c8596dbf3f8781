"""The obstructing player's machinery: predecessor operators over state
sets, per-state budgeted edge removal, and memoryless strategies.

A strategy removes, at each state, a strict subset of the outgoing edges
whose total cost fits the grade; at least one edge always survives.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from math import gcd
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
    complement within the budget."""
    targets = frozenset(targets)
    rest = frozenset(model.states) - targets
    return frozenset(
        q for q in pre_set(model, targets) if can_cut(model, q, budget, rest)
    )


# -- budgeted removal ---------------------------------------------------------


class CostRangeError(ValueError):
    """The edge costs at a state span too wide a range for the removal
    optimizer: the knapsack table would be too large and the state has
    too many edges to enumerate their subsets."""


_DP_CAP = 200_000
_ENUM_FALLBACK_DEGREE = 20
# rows with at most this many strict removal sets at a budget pick from a
# cached list of them; longer lists go to the knapsack
_MAX_OPTIONS = 64


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


@functools.lru_cache(maxsize=4096)
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
    The empty set, first in any list, removes nothing."""
    best_w, best = 0, ()
    get = weights.__getitem__
    for option in options:
        w = sum(map(get, option))
        if w > best_w:
            best_w, best = w, option
    return best_w, best


def _knapsack(
    weights: list[int], costs: Sequence[int], budget: int
) -> tuple[int, tuple[int, ...]] | None:
    """0/1 knapsack maximizing removed weight within the budget; among
    optima the lexicographically smallest index set wins. None when the
    table would be too large even after dividing the costs by their gcd.

    Max weight comes from a suffix DP over the budget; the argmax is then
    rebuilt greedily front to back, taking the earliest index that still
    permits the optimum. Stitching tie-broken sets cell by cell instead
    would lose: a zero-weight item can make a set lexicographically
    smaller, but only once a later item joins it.
    """
    d = len(weights)
    cap = min(budget, sum(c for c in costs if c <= budget))
    if cap > _DP_CAP:
        step = 0
        for c in costs:
            step = gcd(step, c)
        step = gcd(step, budget) or 1
        if cap // step > _DP_CAP:
            if d > _ENUM_FALLBACK_DEGREE:
                raise CostRangeError(
                    "cost range too wide for the removal optimizer "
                    f"(capacity {cap}, degree {d})"
                )
            return None
        costs = [c // step for c in costs]
        cap //= step
        budget = cap

    # table[j][b]: best removable weight from items j.. with budget b
    table = [[]] * d + [[0] * (cap + 1)]
    for j in range(d - 1, -1, -1):
        w, c = weights[j], costs[j]
        nxt = table[j + 1]
        table[j] = nxt[:c] + [
            keep if keep >= w + take else w + take
            for keep, take in zip(nxt[c:], nxt)
        ]

    optimum = table[0][cap]
    chosen: list[int] = []
    remaining, b, j = optimum, cap, 0
    while remaining > 0:
        for f in range(j, d):
            if costs[f] <= b and weights[f] + table[f + 1][b - costs[f]] == remaining:
                chosen.append(f)
                remaining -= weights[f]
                b -= costs[f]
                j = f + 1
                break
        else:  # pragma: no cover - the DP guarantees a witness exists
            raise AssertionError("knapsack reconstruction lost its optimum")
    return optimum, tuple(chosen)


def _strict_knapsack(
    weights: list[int], costs: Sequence[int], budget: int
) -> tuple[int, tuple[int, ...]]:
    """The best strict removal set of a row with too many options to list.
    When the knapsack removes everything it is rerun with each edge pinned
    kept; when its table would be too large, every option is walked."""
    best = _knapsack(weights, costs, budget)
    if best is None:
        return _heaviest(weights, _walk(costs, budget))
    if len(best[1]) == len(costs):
        best = None
        for keep in range(len(costs)):
            idx = [i for i in range(len(costs)) if i != keep]
            # a subset of the row fits the table whenever the row does
            w, t = _knapsack([weights[i] for i in idx], [costs[i] for i in idx], budget)
            cand = (w, tuple(idx[i] for i in t))
            if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                best = cand
    return best


def best_removal(
    model: Pots,
    q: str,
    budget: int,
    value: Mapping[str, float],
) -> tuple[Removal, float]:
    """Strict removal set at ``q`` minimizing the surviving mass weighted by
    ``value`` over the successors, subject to the cost budget.

    Ties break to the lexicographically smallest set under the model's edge
    order. The empty set is always feasible, so this never fails on a
    serial model. Comparisons are exact: each weight, a float probability
    times a float value, is a dyadic rational, held as an integer over one
    power-of-two denominator shared by the row. The surviving value is
    rounded to a float once, correctly.
    """
    row = model.row(q)
    costs = row.costs
    if len(costs) == 1:
        # strictness keeps a lone edge; the float product is the correctly
        # rounded exact product
        ((pn, pd),) = row.ratios
        return (), pn / pd * value[row.succ[0]]
    # weight i is nums[i] / 2**(sizes[i] - 2), from pd * vd with both
    # factors powers of two; shifted onto the largest denominator, the
    # weights are integers
    nums = []
    sizes = []
    for r, (pn, pd) in zip(row.succ, row.ratios):
        vn, vd = value[r].as_integer_ratio()
        nums.append(pn * vn)
        sizes.append(pd.bit_length() + vd.bit_length())
    top = max(sizes, default=2)
    weights = [n << (top - s) for n, s in zip(nums, sizes)]
    total = sum(weights)
    options = _options(costs, budget)
    if options == ((),):
        # no edge fits the budget: the empty removal is the only option
        return (), total / (1 << (top - 2))
    if options is None:
        removed_w, chosen = _strict_knapsack(weights, costs, budget)
    else:
        removed_w, chosen = _heaviest(weights, options)
    survived = (total - removed_w) / (1 << (top - 2))
    if not chosen:
        return (), survived
    return tuple([row.edges[i] for i in chosen]), survived


# -- strategy file format -----------------------------------------------------


def strategy_to_json(strategy: MemorylessStrategy) -> str:
    doc = {
        "grade": strategy.grade,
        "removal": {
            q: sorted([list(e) for e in edges])
            for q, edges in sorted(strategy.removal.items())
            if edges
        },
    }
    return json.dumps(doc, indent=2)


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
