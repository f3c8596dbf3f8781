"""Satisfaction-set computation over the float path.

Formulas are processed bottom-up; each obstruction query turns into a
per-state optimum over removal strategies. Every core path operator is a
frame, the whole solve: start values that pin every state but the
undetermined ones a sweep updates, their successors, and a sweep count:
one for next, k for the step-bounded operators, none for unbounded until
and release, which sweep to a fixed point. One Jacobi loop runs every
frame. Its step is ``_argmin_step``, the engine's one optimizer call,
which keeps each state's argmin removal (value iteration and witness
synthesis; policy iteration improves with it too), or ``_policy_step``,
a fixed strategy's row sums (max mode, policy iteration's rounds and
``prob_fixed``; no pruned model is built). Sweeps run on two value
buffers that swap roles after each sweep: no vector is copied per sweep.

A step reads only its state's successors, so a state none of whose
undetermined successors was stepped in a sweep would get the same float
in the next one. After each sweep such a state drops out: its value is
copied into the other buffer, and later sweeps leave it alone. The
stepped set only shrinks, so a state off every cycle of undetermined
states is stepped up to its last sweep that can change it, and states on
a cycle, or upstream of one, are stepped by every sweep, so the cost per
step stays constant on them. Values, residuals and sweep counts are bit
for bit those of stepping every undetermined state in every sweep.

Measure convention: removed probability mass vanishes, nothing is
renormalized, and release is never complemented through until. Values are
reported as computed, capped at 1 because a float row sum can round past
it (0.33 + 0.56 + 0.11 sums to 1.0000000000000002 from the left);
unbounded release alone flushes values below ``NEG_CLAMP`` to 0.

Every entry point is a pure function of (model, formula, options); models
are immutable but for the removal optimizer's plans (per state and
budget, the removal sets and a memo of answers to successor values all
exactly 0 or 1, beside per-state edge data), which any query may add and
every query would make alike, so concurrent queries against a shared
model are safe and answer bit for bit as a fresh model does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Collection, Mapping, NamedTuple

from .model import Edge, ModelError, Pots, prune  # prune: perfbench's tracer wraps it
from .obstruction import (
    MemorylessStrategy,
    Removal,
    best_removal,
    obstruct_pred,
)
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
    print_state,
)

NEG_CLAMP = 1e-12


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to meet the tolerance in time."""


@dataclass(frozen=True)
class EngineOptions:
    epsilon: float = 1e-10
    max_iterations: int = 10**6
    solver: str = "vi"  # "vi" value iteration | "pi" policy iteration + power method

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon!r}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be at least 1, got {self.max_iterations}"
            )
        if self.solver not in ("vi", "pi"):
            raise ValueError(f"solver must be 'vi' or 'pi', got {self.solver!r}")


DEFAULT_OPTIONS = EngineOptions()


@dataclass
class Stats:
    iterations: int = 0
    warnings: list = field(default_factory=list)


# -- frames ---------------------------------------------------------------------


class Frame(NamedTuple):
    """One core operator's whole solve, which ``_iterate`` runs. ``start``
    holds every state's value before the first sweep; states outside
    ``undetermined`` are pinned to it. ``sweeps`` is the step count, or None
    for a fixed point. ``succ`` maps each undetermined state to its
    successors in the unpruned graph (None for next)."""

    start: dict[str, float]
    undetermined: list[str]
    sweeps: int | None
    succ: dict[str, tuple[str, ...]] | None = None


def _backward_reachable(
    model: Pots, targets: frozenset[str], through: frozenset[str]
) -> frozenset[str]:
    reached = set(targets)
    frontier = list(targets)
    while frontier:
        q = frontier.pop()
        for p in model.pred(q):
            if p not in reached and p in through:
                reached.add(p)
                frontier.append(p)
    return frozenset(reached)


def _frame(
    model: Pots,
    op: type[PathFormula],
    sat1: frozenset[str],
    sat2: frozenset[str],
    sweeps: int | None = None,
) -> Frame:
    """The frame of a core operator, given as its syntax class. Values start
    at the indicator of ``sat2`` (the body, for next).

    - next: nothing pinned, one sweep;
    - until: pinned 1 on ``sat2``; undetermined are the states of
      ``sat1 - sat2`` that reach ``sat2`` through that set in the unpruned
      graph, starting from below; the rest is pinned 0 (sound in both modes);
    - release: pinned 1 on ``sat1 & sat2`` and 0 outside ``sat2``;
      undetermined are ``sat2 - sat1``, starting from above.

    Until and release carry each undetermined state's successors; next, a
    single sweep, needs none.
    """
    start = {q: (1.0 if q in sat2 else 0.0) for q in model.states}
    if op is Next:
        return Frame(start, list(model.states), 1)
    if op in (Until, BoundedUntil):
        through = sat1 - sat2
        inside = through & _backward_reachable(model, sat2, through)
    elif op in (Release, BoundedRelease):
        inside = sat2 - sat1
    else:
        raise TypeError(f"not a core path operator: {op!r}")
    undetermined = [q for q in model.states if q in inside]
    succ = {q: model.row(q).succ for q in undetermined}
    # a strategy only drops edges, so its evaluation runs on this frame too:
    # a state that reaches sat2 only over removed edges stays at exactly 0.0
    return Frame(start, undetermined, sweeps, succ)


# -- the sweep ------------------------------------------------------------------

Step = Callable[[str, Mapping[str, float]], float]


def _argmin_step(model: Pots, budget: int, chosen: dict[str, Removal]) -> Step:
    """The engine's one optimizer call: a state's surviving mass under its
    best removal, kept in ``chosen``. Tracers that rebind ``best_removal`` see it."""

    def step(q: str, x: Mapping[str, float]) -> float:
        chosen[q], value = best_removal(model, q, budget, x)
        return value

    return step


def _iterate(
    frame: Frame, step: Step, opts: EngineOptions, stats: Stats | None
) -> dict[str, float]:
    """Jacobi sweeps over the frame's undetermined states, from its start:
    ``frame.sweeps`` of them or, for a fixed point (``sweeps`` None), until
    no value moves by epsilon or more. One loop runs both; only a fixed
    point takes a residual. Either way at most ``opts.max_iterations``
    sweeps run.

    A sweep calls the step only for the states it still steps: at first
    every undetermined state. After each sweep, a state none of whose
    undetermined successors was just stepped would get the same float from
    the same inputs, so it drops out, and its value is copied into the
    other buffer. Once a sweep drops nobody, the stepped set stays as it
    is. Values, residuals and sweep counts are those of stepping every
    undetermined state in every sweep.

    Two value buffers, both copied once from the start, swap roles after
    every sweep: a sweep reads one and writes the other, and the pinned
    entries are never written. ``frame.start`` itself is left as it was,
    since policy iteration starts every round from it."""
    fixed = frame.sweeps is None
    limit = opts.max_iterations if fixed else frame.sweeps
    if limit > opts.max_iterations:
        raise ConvergenceError(
            f"step bound {limit} exceeds the limit of {opts.max_iterations} iterations"
        )
    update, succ = frame.undetermined, frame.succ
    x, nxt = dict(frame.start), dict(frame.start)
    s = 0
    for s in range(1, limit + 1):
        for q in update:
            nxt[q] = step(q, x)
        x, nxt = nxt, x
        if fixed:
            # no any(): its generator would make x and nxt slower closure cells
            for q in update:
                if abs(x[q] - nxt[q]) >= opts.epsilon:
                    break
            else:
                break  # no value moved by epsilon: the fixed point
        if succ is not None and s < limit:  # settling
            stepped, kept = set(update), []
            for q in update:
                if stepped.isdisjoint(succ[q]):
                    nxt[q] = x[q]  # drops out: both buffers hold its value
                else:
                    kept.append(q)
            if len(kept) == len(update):
                succ = None  # nobody dropped out, so nobody ever will
            update = kept
    else:
        if fixed:
            raise ConvergenceError(f"no convergence within {limit} iterations")
    if stats is not None:
        stats.iterations += s
    return x


def _policy_step(model: Pots, frame: Frame, policy: Mapping[str, Collection[Edge]]) -> Step:
    """The engine's one evaluation of a fixed strategy: each undetermined
    state's row sum, less the edges ``policy`` removes at that state; a
    state it does not name removes nothing. No pruned model is built."""
    rows = {}
    for q in frame.undetermined:
        row = model.row(q)
        gone = policy.get(q, ())
        rows[q] = [(r, p) for e, r, p in zip(row.edges, row.succ, row.probs) if e not in gone]

    def step(q: str, x: Mapping[str, float]) -> float:
        # left to right: sum() compensates float sums from Python 3.12 on
        total = 0.0
        for r, p in rows[q]:
            total += p * x[r]
        return total

    return step


_POLICY_ROUNDS = 10_000


def _policy_iteration(
    model: Pots, frame: Frame, budget: int, opts: EngineOptions, stats: Stats | None
) -> dict[str, float]:
    """Minimizing policy iteration; each policy is evaluated by the power
    method from the frame's start, and improved by ``_argmin_step``."""
    policy: dict[str, Removal] = {q: () for q in frame.undetermined}
    chosen: dict[str, Removal] = {}
    argmin = _argmin_step(model, budget, chosen)
    for _ in range(_POLICY_ROUNDS):
        x = _iterate(frame, _policy_step(model, frame, policy), opts, stats)
        # conservative improvement: the inner solve carries up to about an
        # epsilon of residual, so switching on smaller gains just makes
        # near-tied argmins flip forever. A removal worth exactly 0 is taken
        # at any gain: nothing can undercut it, so it never flips back
        gate = 10 * opts.epsilon
        improved = {}
        for q in frame.undetermined:
            value = argmin(q, x)
            better = value < x[q] - gate or value == 0.0 < x[q]
            improved[q] = chosen[q] if better else policy[q]
        if improved == policy:
            return x
        policy = improved
    raise ConvergenceError("policy iteration failed to stabilize")


def _optimum(
    model: Pots,
    frame: Frame,
    budget: int,
    mode: str,
    opts: EngineOptions = DEFAULT_OPTIONS,
    stats: Stats | None = None,
) -> dict[str, float]:
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    # the maximizer removes nothing: its step is the empty policy's row sums
    # under either solver, since policy iteration would run the same sweeps
    if mode == "max":
        x = _iterate(frame, _policy_step(model, frame, {}), opts, stats)
    elif frame.sweeps is None and opts.solver == "pi":
        x = _policy_iteration(model, frame, budget, opts, stats)
    else:
        x = _iterate(frame, _argmin_step(model, budget, {}), opts, stats)
    return _capped(frame, x)


def _capped(frame: Frame, x: dict[str, float]) -> dict[str, float]:
    for q in frame.undetermined:  # a float row sum can round past 1
        x[q] = min(x[q], 1.0)
    return x


# -- the five operators -----------------------------------------------------------


def prob_next(
    model: Pots,
    sat_body: frozenset[str],
    budget: int,
    mode: str,
    opts: EngineOptions = DEFAULT_OPTIONS,
    stats: Stats | None = None,
) -> dict[str, float]:
    frame = _frame(model, Next, frozenset(), sat_body)
    return _optimum(model, frame, budget, mode, opts, stats)


def prob_bounded_until(
    model: Pots,
    sat1: frozenset[str],
    sat2: frozenset[str],
    bound: int,
    budget: int,
    mode: str,
    opts: EngineOptions = DEFAULT_OPTIONS,
    stats: Stats | None = None,
) -> dict[str, float]:
    frame = _frame(model, BoundedUntil, sat1, sat2, bound)
    return _optimum(model, frame, budget, mode, opts, stats)


def prob_until(
    model: Pots,
    sat1: frozenset[str],
    sat2: frozenset[str],
    budget: int,
    mode: str,
    opts: EngineOptions = DEFAULT_OPTIONS,
    stats: Stats | None = None,
) -> dict[str, float]:
    """Least fixed point of the until step, from below."""
    return _optimum(model, _frame(model, Until, sat1, sat2), budget, mode, opts, stats)


def prob_bounded_release(
    model: Pots,
    sat1: frozenset[str],
    sat2: frozenset[str],
    bound: int,
    budget: int,
    mode: str,
    opts: EngineOptions = DEFAULT_OPTIONS,
    stats: Stats | None = None,
) -> dict[str, float]:
    frame = _frame(model, BoundedRelease, sat1, sat2, bound)
    return _optimum(model, frame, budget, mode, opts, stats)


def prob_release(
    model: Pots,
    sat1: frozenset[str],
    sat2: frozenset[str],
    budget: int,
    mode: str,
    opts: EngineOptions = DEFAULT_OPTIONS,
    stats: Stats | None = None,
) -> dict[str, float]:
    """Greatest fixed point of the release step, from above. Its sweeps
    near a zero without reaching it, so values below ``NEG_CLAMP`` are
    flushed to 0; the flush stays until release has an exact zero set."""
    x = _optimum(model, _frame(model, Release, sat1, sat2), budget, mode, opts, stats)
    return {q: 0.0 if v < NEG_CLAMP else v for q, v in x.items()}


def _dispatch_path(
    model: Pots,
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
    budget: int,
    mode: str,
    opts: EngineOptions,
    stats: Stats | None,
) -> dict[str, float]:
    if isinstance(theta, Next):
        return prob_next(model, sat2, budget, mode, opts, stats)
    if isinstance(theta, BoundedUntil):
        return prob_bounded_until(model, sat1, sat2, theta.bound, budget, mode, opts, stats)
    if isinstance(theta, Until):
        return prob_until(model, sat1, sat2, budget, mode, opts, stats)
    if isinstance(theta, BoundedRelease):
        return prob_bounded_release(model, sat1, sat2, theta.bound, budget, mode, opts, stats)
    if isinstance(theta, Release):
        return prob_release(model, sat1, sat2, budget, mode, opts, stats)
    raise TypeError(f"not a core path formula: {theta!r}")


# -- fixed-strategy evaluation and witness synthesis --------------------------------


def prob_fixed(
    model: Pots,
    strategy: MemorylessStrategy,
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
    opts: EngineOptions = DEFAULT_OPTIONS,
    stats: Stats | None = None,
) -> dict[str, float]:
    """Float values of a core path formula under one fixed strategy: each
    removed edge leaves its source's row (as in ``exact_prob``), evaluated
    by ``_policy_step`` on the formula's own frame, capped and flushed as
    the five operators report. An edge the model lacks raises ModelError."""
    removal: dict[str, set[Edge]] = {}
    for e in strategy.all_removed():
        if e not in model.prob:
            raise ModelError(f"cannot remove non-existent edge {e!r}")
        removal.setdefault(e[0], set()).add(e)
    frame = _frame(model, type(theta), sat1, sat2, getattr(theta, "bound", None))
    x = _capped(frame, _iterate(frame, _policy_step(model, frame, removal), opts, stats))
    if isinstance(theta, Release):
        return {q: 0.0 if v < NEG_CLAMP else v for q, v in x.items()}
    return x


def synthesize(
    model: Pots,
    theta: PathFormula,
    sat1: frozenset[str],
    sat2: frozenset[str],
    budget: int,
    opts: EngineOptions = DEFAULT_OPTIONS,
    stats: Stats | None = None,
) -> tuple[MemorylessStrategy, dict[str, float]]:
    """A memoryless witness and its own value. One min-mode value iteration
    runs over the frame, and its step, ``_argmin_step``, keeps the argmin
    removal at each state; the witness is each state's last kept removal
    (empty at horizon 0, where no step runs). The values are the witness's
    own, by ``prob_fixed``, which an exact re-run must reproduce."""
    frame = _frame(model, type(theta), sat1, sat2, getattr(theta, "bound", None))
    chosen: dict[str, Removal] = {}
    _iterate(frame, _argmin_step(model, budget, chosen), opts, stats)
    removal = {q: frozenset(r) for q, r in chosen.items() if r}
    strategy = MemorylessStrategy(grade=budget, removal=removal)
    values = prob_fixed(model, strategy, theta, sat1, sat2, opts, stats)
    return strategy, values


# -- transcribed qualitative backward searches (conformance artifacts) ----------------


def _qual_backward(
    model: Pots,
    seed: frozenset[str],
    grow_from: frozenset[str],
    budget: int,
    use_union: bool,
) -> frozenset[str]:
    """Transcription of the backward searches: grow the seed by states of
    ``grow_from`` that see the current set, combined (by intersection, or
    union for the release variants) with the obstruction predecessor of the
    previous set; return the complement of the result."""
    y = set(seed)
    x: set[str] | None = None
    while y != x:
        x = set(y)
        grew = {q for q in grow_from if not y.isdisjoint(model.pred(q))}
        pred = obstruct_pred(model, budget, frozenset(x))
        y |= (grew | pred) if use_union else (grew & pred)
    return frozenset(model.states) - frozenset(y)


def qual_zero_search(
    model: Pots,
    sat1: frozenset[str],
    sat2: frozenset[str],
    budget: int,
    release: bool = False,
) -> frozenset[str]:
    """Backward search for the zero-probability states, as written."""
    return _qual_backward(model, sat2, sat1, budget, release)


def qual_one_search(
    model: Pots,
    sat1: frozenset[str],
    sat2: frozenset[str],
    budget: int,
    q_no: frozenset[str],
    release: bool = False,
) -> frozenset[str]:
    """Backward search for the probability-one states, as written."""
    return _qual_backward(model, q_no, sat1 - sat2, budget, release)


# -- formula-level checking --------------------------------------------------------


@dataclass
class CheckResult:
    formula: str
    sat: frozenset[str]
    values: dict[str, float] | None
    mode: str | None
    grade: int | None
    iterations: int
    warnings: list[str]


def path_values(
    model: Pots,
    theta: PathFormula,
    budget: int,
    mode: str,
    opts: EngineOptions = DEFAULT_OPTIONS,
    stats: Stats | None = None,
) -> dict[str, float]:
    """Optimal per-state probability of a core path formula, resolving the
    operand state formulas first."""
    if stats is None:
        stats = Stats()
    sat1, sat2 = operand_sets(model, theta, opts, stats)
    return _dispatch_path(model, theta, sat1, sat2, budget, mode, opts, stats)


def operand_sets(
    model: Pots, theta: PathFormula, opts: EngineOptions, stats: Stats
) -> tuple[frozenset[str], frozenset[str]]:
    if isinstance(theta, Next):
        return frozenset(), _sat(model, theta.body, opts, stats)
    if isinstance(theta, (Until, BoundedUntil, Release, BoundedRelease)):
        return (
            _sat(model, theta.left, opts, stats),
            _sat(model, theta.right, opts, stats),
        )
    raise TypeError(f"not a core path formula: {theta!r}")


def _sat(
    model: Pots, phi: StateFormula, opts: EngineOptions, stats: Stats
) -> frozenset[str]:
    if isinstance(phi, TrueConst):
        return frozenset(model.states)
    if isinstance(phi, FalseConst):
        return frozenset()
    if isinstance(phi, Atom):
        out = frozenset(q for q, props in model.labels.items() if phi.name in props)
        if not out and phi.name not in model.alphabet():
            message = f"atom {phi.name!r} not in the model's label alphabet"
            if message not in stats.warnings:
                stats.warnings.append(message)
        return out
    if isinstance(phi, Not):
        return frozenset(model.states) - _sat(model, phi.body, opts, stats)
    if isinstance(phi, And):
        return _sat(model, phi.left, opts, stats) & _sat(model, phi.right, opts, stats)
    if isinstance(phi, Or):
        return _sat(model, phi.left, opts, stats) | _sat(model, phi.right, opts, stats)
    if isinstance(phi, Implies):
        left = _sat(model, phi.left, opts, stats)
        return (frozenset(model.states) - left) | _sat(model, phi.right, opts, stats)
    if isinstance(phi, ObstructQuery):
        _, satisfied = _decide_query(model, phi, opts, stats)
        return satisfied
    raise TypeError(f"not a state formula: {phi!r}")


def _decide_query(
    model: Pots, phi: ObstructQuery, opts: EngineOptions, stats: Stats
) -> tuple[dict[str, float], frozenset[str]]:
    sat1, sat2 = operand_sets(model, phi.body, opts, stats)
    values = _dispatch_path(model, phi.body, sat1, sat2, phi.grade, phi.mode, opts, stats)
    threshold = float(phi.threshold)
    out = set()
    near = []
    verdicts: dict[float, bool] = {}  # many states share a value
    for q, v in values.items():
        holds = verdicts.get(v)
        if holds is None:
            holds = verdicts[v] = phi.holds(v)
        if holds:
            out.add(q)
        if abs(v - threshold) < 10 * opts.epsilon:
            near.append((q, v))
    if near:
        # rendered once per query, not once per boundary state
        where = f"threshold {phi.threshold} in {print_state(phi)}"
        stats.warnings += [
            f"boundary: value {v!r} at {q} within 10*epsilon of {where}" for q, v in near
        ]
    return values, frozenset(out)


def sat(
    model: Pots, phi: StateFormula, opts: EngineOptions = DEFAULT_OPTIONS
) -> frozenset[str]:
    """Satisfaction set of a state formula."""
    return _sat(model, phi, opts, Stats())


def check(
    model: Pots, phi: StateFormula, opts: EngineOptions = DEFAULT_OPTIONS
) -> CheckResult:
    """Full query result: satisfaction set plus, when the formula itself is
    an obstruction query, the optimal probability vector it was decided by."""
    stats = Stats()
    values = None
    mode = None
    grade = None
    if isinstance(phi, ObstructQuery):
        values, satisfied = _decide_query(model, phi, opts, stats)
        mode = phi.mode
        grade = phi.grade
    else:
        satisfied = _sat(model, phi, opts, stats)
    return CheckResult(
        formula=print_state(phi),
        sat=satisfied,
        values=values,
        mode=mode,
        grade=grade,
        iterations=stats.iterations,
        warnings=stats.warnings,
    )
