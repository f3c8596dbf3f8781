"""Probabilistic obstruction structures: finite stochastic transition systems
with a non-negative integer removal cost on every edge.

Probabilities are exact rationals, parsed once from the decimal strings
of the model file; the exact oracle reads them. The float engine and the
removal optimizer read each state's :class:`Row`, which holds every edge's
probability rounded to a 64-bit float. Costs live only on existing edges;
absent pairs cost 0 and are never removal candidates.

:func:`loads_model` checks each edge once, in its own loop, and builds
the model directly; :meth:`Pots.build` keeps the same checks for models
assembled in code. :func:`validate` checks every model the same way,
whatever made it, on integers: a row's sum is compared with 1 over the
common denominator of its probabilities.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

MAX_COST = 2**32 - 1
ROW_SUM_TOL = Fraction(1, 10**9)

Edge = tuple[str, str]


class ModelError(ValueError):
    """Raised for malformed model files and illegal model queries."""


class Row(NamedTuple):
    """The outgoing edges of one state in the model's state order, with what
    the engine and the removal optimizer read of each: the successor, the
    removal cost, and the probability as the correctly rounded float."""

    edges: tuple[Edge, ...]
    succ: tuple[str, ...]
    costs: tuple[int, ...]
    probs: tuple[float, ...]


_EMPTY_ROW = Row((), (), (), ())


@dataclass(frozen=True)
class Pots:
    """A finite state space with an exact stochastic matrix, a labeling and
    an integer removal cost per edge.

    Instances are immutable after construction and safe to share between
    concurrent queries. The one cache, the removal optimizer's, fills as
    queries run: ``_terms`` holds per state what the optimizer reads of
    each edge at any budget, and ``_plans`` per state and budget the
    removal sets and a memo of answers to successor values all exactly 0
    or 1. Each entry depends only on the model, the state, the budget and
    the values it is keyed by, so threads that make the same entry store
    equivalent values, and no lock is needed. Construction rejects
    duplicate states and edges or labels on undeclared states, so
    ``labels`` holds declared states only; it does not enforce the
    semantic invariants (stochasticity, seriality); see :func:`validate`.
    """

    states: tuple[str, ...]
    initial: str
    prob: Mapping[Edge, Fraction]
    labels: Mapping[str, frozenset[str]]
    cost: Mapping[Edge, int]

    _index: dict = field(init=False, repr=False, compare=False)
    _rows: dict = field(init=False, repr=False, compare=False)
    _pred: dict = field(init=False, repr=False, compare=False)
    _plans: dict = field(init=False, repr=False, compare=False)
    _terms: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {q: i for i, q in enumerate(self.states)}
        if len(index) != len(self.states):
            raise ModelError("duplicate state identifiers")
        for q in self.labels:
            if q not in index:
                raise ModelError(f"label for unknown state {q!r}")
        outgoing: dict[str, list] = {q: [] for q in self.states}
        cost = self.cost
        try:
            for e, p in self.prob.items():
                q, r = e
                # int true division rounds correctly, as float(p) does, but faster
                outgoing[q].append((index[r], e, r, cost.get(e, 0), p.numerator / p.denominator))
        except KeyError:
            raise ModelError(f"edge ({q!r}, {r!r}) references unknown state") from None
        rows = {}
        pred: dict[str, list[str]] = {q: [] for q in self.states}
        for q in self.states:
            entries = outgoing[q]
            if entries:
                entries.sort()
                _, edges, targets, costs, probs = zip(*entries)
                rows[q] = Row(edges, targets, costs, probs)
                # sources come in state order, so each list needs no sort
                for r in targets:
                    pred[r].append(q)
            else:
                rows[q] = _EMPTY_ROW
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_pred", {q: tuple(v) for q, v in pred.items()})
        object.__setattr__(self, "_plans", {})
        object.__setattr__(self, "_terms", {})

    @classmethod
    def build(
        cls,
        states: Iterable[str],
        initial: str,
        edges: Iterable[tuple[str, str, Fraction | str | int, int]],
        labels: Mapping[str, Iterable[str]] | None = None,
    ) -> "Pots":
        """Assemble a model from an edge list. ``prob`` entries may be exact
        rationals, decimal strings, or ints; floats are rejected to keep the
        exact path exact. Costs must be ints; bools are rejected."""
        states = tuple(states)
        prob: dict[Edge, Fraction] = {}
        cost: dict[Edge, int] = {}
        for frm, to, p, c in edges:
            if isinstance(p, float):
                raise ModelError(
                    f"edge ({frm!r}, {to!r}): probabilities must be exact "
                    "(Fraction, decimal string or int), not float"
                )
            e = (frm, to)
            if e in prob:
                raise ModelError(f"duplicate edge ({frm!r}, {to!r})")
            value = Fraction(p)
            if value <= 0:
                raise ModelError(
                    f"edge ({frm!r}, {to!r}): probability must be positive "
                    "(omit absent edges)"
                )
            if type(c) is not int:  # a bool is an int subclass, not a cost
                raise ModelError(f"edge ({frm!r}, {to!r}): cost must be an int, not {c!r}")
            prob[e] = value
            cost[e] = c
        lab = {q: frozenset(v) for q, v in (labels or {}).items()}
        return cls(states=states, initial=initial, prob=prob, labels=lab, cost=cost)

    # -- adjacency queries ------------------------------------------------

    def _check_state(self, q: str) -> None:
        if q not in self._index:
            raise ModelError(f"unknown state identifier {q!r}")

    def state_index(self, q: str) -> int:
        self._check_state(q)
        return self._index[q]

    def succ(self, q: str) -> tuple[str, ...]:
        self._check_state(q)
        return self._rows[q].succ

    def row(self, q: str) -> Row:
        """The outgoing edges of ``q`` with their costs and float
        probabilities; built once, with the model."""
        try:
            return self._rows[q]
        except KeyError:
            raise ModelError(f"unknown state identifier {q!r}") from None

    def pred(self, q: str) -> tuple[str, ...]:
        self._check_state(q)
        return self._pred[q]

    def prob_exact(self, q: str, r: str) -> Fraction:
        return self.prob.get((q, r), Fraction(0))

    def cost_of(self, q: str, r: str) -> int:
        """Removal cost of an edge; absent pairs cost 0."""
        return self.cost.get((q, r), 0)

    def label_of(self, q: str) -> frozenset[str]:
        self._check_state(q)
        return self.labels.get(q, frozenset())

    def alphabet(self) -> frozenset[str]:
        out: set[str] = set()
        for props in self.labels.values():
            out |= props
        return frozenset(out)


def edges_of(model: Pots, q: str) -> tuple[Edge, ...]:
    """Outgoing edges of ``q`` in the model's state order."""
    return model.row(q).edges


def validate(model: Pots) -> list[str]:
    """Check stochasticity, seriality, cost and probability ranges, all
    exactly, in integers: a row passes when its sum is within
    ``ROW_SUM_TOL`` of 1.

    Returns an empty list iff the model is well formed; each entry names
    the offending state or edge and the violated rule. Side-effect free.
    """
    report = []
    if model.initial not in model.states:
        report.append(f"initial state {model.initial!r} not in state set")
    for (q, r), p in model.prob.items():
        if not (0 <= p.numerator <= p.denominator):
            report.append(f"probability out of [0,1] on edge ({q}, {r}): {p}")
    for (q, r), c in model.cost.items():
        if type(c) is not int:
            report.append(f"cost not an integer on edge ({q}, {r}): {c!r}")
        elif not (0 <= c <= MAX_COST):
            report.append(f"cost out of range on edge ({q}, {r}): {c}")
    prob = model.prob
    tol_num, tol_den = ROW_SUM_TOL.numerator, ROW_SUM_TOL.denominator
    for q in model.states:
        ps = [prob[e] for e in model.row(q).edges]
        # the row sums to total / den exactly; math.lcm() of nothing is 1
        den = math.lcm(*[p.denominator for p in ps])
        total = sum([p.numerator * (den // p.denominator) for p in ps])
        if abs(total - den) * tol_den > den * tol_num:
            # int true division rounds as float() of the sum's Fraction does
            report.append(f"stochasticity at {q}: row sums to {total / den!r}")
        if not any([p.numerator > 0 for p in ps]):
            report.append(f"seriality at {q}: no positive-probability successor")
    return report


def prune(model: Pots, removal: Iterable[Edge]) -> Pots:
    """Substochastic view of the model with the given edges deleted.

    The original model is untouched. Removals may empty a state's row;
    strategy-level strictness is checked elsewhere.
    """
    removal = set(removal)
    for e in removal:
        if e not in model.prob:
            raise ModelError(f"cannot remove non-existent edge {e!r}")
    prob = {e: p for e, p in model.prob.items() if e not in removal}
    cost = {e: c for e, c in model.cost.items() if e not in removal}
    return Pots(
        states=model.states,
        initial=model.initial,
        prob=prob,
        labels=model.labels,
        cost=cost,
    )


# -- file format ----------------------------------------------------------

_MODEL_KEYS = {"states", "initial", "labels", "edges"}
_EDGE_KEYS = {"from", "to", "prob", "cost"}
_DECIMAL_RE = re.compile(r"[0-9]+(\.[0-9]+)?")


def _parse_decimal(text: str, i: int) -> Fraction:
    """The exact value of an ASCII decimal string such as ``"0.25"``."""
    if not isinstance(text, str) or not _DECIMAL_RE.fullmatch(text):
        raise ModelError(
            f"edges[{i}]: prob must be a plain decimal string like \"0.25\", "
            f"got {text!r}"
        )
    whole, _, digits = text.partition(".")
    try:
        numerator = int(whole + digits)
    except ValueError:  # more digits than int() converts from text
        raise ModelError(
            f"edges[{i}]: prob has {len(whole) + len(digits)} digits, more than "
            f"the interpreter's limit of {sys.get_int_max_str_digits()}"
        ) from None
    return Fraction(numerator, 10 ** len(digits))


def loads_model(text: str) -> Pots:
    """Parse the JSON model format. Unknown keys, duplicate edges,
    references to undeclared states and non-positive probabilities are
    rejected; each edge is checked once, and the first violation in
    document order is reported, except that a zero probability is
    reported only once every edge has passed the other checks."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ModelError(f"model file nests too deeply: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("model file must contain a JSON object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise ModelError(f"unknown keys in model file: {sorted(unknown)}")
    for key in ("states", "initial", "edges"):
        if key not in doc:
            raise ModelError(f"model file missing key {key!r}")
    states = doc["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ModelError('"states" must be a list of strings')
    if len(states) < 1:
        raise ModelError("model must have at least one state")
    state_set = set(states)
    if len(state_set) != len(states):
        raise ModelError("duplicate entries in state list")
    initial = doc["initial"]
    if not isinstance(initial, str) or initial not in state_set:
        raise ModelError(f"initial state {initial!r} not declared")
    labels = doc.get("labels", {})
    if not isinstance(labels, dict):
        raise ModelError('"labels" must be an object')
    for q, props in labels.items():
        if q not in state_set:
            raise ModelError(f"labels reference undeclared state {q!r}")
        if not isinstance(props, list) or not all(isinstance(p, str) for p in props):
            raise ModelError(f"labels of {q!r} must be a list of strings")
    if not isinstance(doc["edges"], list):
        raise ModelError('"edges" must be a list')
    prob: dict[Edge, Fraction] = {}
    cost: dict[Edge, int] = {}
    zero: Edge | None = None
    for i, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict):
            raise ModelError(f"edges[{i}]: must be an object")
        if entry.keys() != _EDGE_KEYS:
            unknown = set(entry) - _EDGE_KEYS
            if unknown:
                raise ModelError(f"edges[{i}]: unknown keys {sorted(unknown)}")
            raise ModelError(f"edges[{i}]: missing keys {sorted(_EDGE_KEYS - set(entry))}")
        frm, to = entry["from"], entry["to"]
        named = type(frm) is str and type(to) is str  # a list is unhashable
        if not (named and frm in state_set and to in state_set):
            raise ModelError(f"edges[{i}]: endpoint not in declared states")
        e = (frm, to)
        if e in prob:
            raise ModelError(f"edges[{i}]: duplicate edge ({frm}, {to})")
        p = prob[e] = _parse_decimal(entry["prob"], i)
        c = cost[e] = entry["cost"]
        # JSON gives no int subclass but bool
        if type(c) is not int or c < 0:
            raise ModelError(f"edges[{i}]: cost must be a non-negative integer")
        if not p and zero is None:
            zero = e
    if zero is not None:
        raise ModelError(
            f"edge ({zero[0]!r}, {zero[1]!r}): probability must be positive "
            "(omit absent edges)"
        )
    return Pots(
        states=tuple(states),
        initial=initial,
        prob=prob,
        labels={q: frozenset(v) for q, v in labels.items()},
        cost=cost,
    )


def load_model(path: str) -> Pots:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_model(handle.read())


def _decimal_places(den: int) -> int | None:
    """The fewest decimal places that write ``1/den`` exactly: the larger
    of the powers of 2 and 5 in ``den``, or None when ``den`` has another
    prime factor."""
    twos = (den & -den).bit_length() - 1
    den >>= twos
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def decimal_terminates(value: Fraction) -> bool:
    """Whether the decimal expansion of ``value`` terminates: its
    denominator divides a power of ten."""
    return _decimal_places(value.denominator) is not None


_DIGITS = 17  # a repeating decimal's places, or significant digits below 5e-18


def fraction_to_decimal(value: Fraction) -> str:
    """Render a rational in [0, 1] as a decimal string: exactly, however
    many digits that takes, when the denominator divides a power of ten,
    else rounded to ``_DIGITS`` places; a value that rounds to 1 is "1",
    and one that rounds to 0 keeps ``_DIGITS`` significant digits."""
    digits = _decimal_places(value.denominator)
    if digits is None:
        digits = _DIGITS
        scaled = round(value * 10**digits)
        if scaled == 10**digits:
            return "1"
        if not scaled:  # the first nonzero digit is at place len(den // num)
            digits += len(str(Decimal(value.denominator // value.numerator))) - 1
            scaled = round(value * 10**digits)
    else:
        scaled = value.numerator * 10**digits // value.denominator
    # str() refuses ints past the interpreter's digit limit (4,300 by
    # default); an integral Decimal converts exactly and prints every digit
    text = str(Decimal(scaled)).rjust(digits + 1, "0")
    if digits == 0:
        return text
    # an exact expansion has no trailing zero to strip
    return (text[:-digits] + "." + text[-digits:]).rstrip("0")


def dumps_model(model: Pots) -> str:
    doc = {
        "states": list(model.states),
        "initial": model.initial,
        "labels": {
            q: sorted(model.labels[q])
            for q in model.states
            if model.labels.get(q)
        },
        "edges": [
            {
                "from": q,
                "to": r,
                "prob": fraction_to_decimal(model.prob[(q, r)]),
                "cost": model.cost[(q, r)],
            }
            for q in model.states
            for r in model.succ(q)
        ],
    }
    return json.dumps(doc, indent=2)


def save_model(model: Pots, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_model(model) + "\n")
