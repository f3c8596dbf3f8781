"""Independent float reference for the scale workloads.

A plain step recursion over the benchmark's own formula tuples (see
``inputs``). At every state it tries each removal that
``potl.oracle.removal_options`` lists and keeps the best surviving mass;
there is no knapsack and nothing from ``potl.engine``. Unbounded operators
iterate in place until a sweep moves no value by more than
``SWEEP_TOLERANCE``, far inside the acceptance tolerance on these
forward-biased models.
"""

from __future__ import annotations

from potl.model import loads_model
from potl.oracle import removal_options

SWEEP_TOLERANCE = 1e-14
MAX_SWEEPS = 100_000
TOLERANCE = 1e-6  # the acceptance suite's tolerance


class ScaleReference:
    def __init__(self, model_text: str):
        self.model = loads_model(model_text)
        self.states = self.model.states
        self._rows: dict[int, dict[str, list[list[tuple[str, float]]]]] = {}
        self._sat: dict[tuple, frozenset[str]] = {}
        self._values: dict[tuple, dict[str, float]] = {}

    def rows(self, grade: int) -> dict[str, list[list[tuple[str, float]]]]:
        """Per state, the surviving (successor, probability) list of every
        removal the grade allows."""
        if grade not in self._rows:
            self._rows[grade] = {
                q: [self._survivors(q, removed) for removed in removal_options(self.model, q, grade)]
                for q in self.states
            }
        return self._rows[grade]

    def fixed_rows(self, removal: dict[str, list[list[str]]]):
        """Rows of one fixed strategy, given as the strategy file's
        ``removal`` object."""
        return {
            q: [self._survivors(q, [tuple(e) for e in removal.get(q, [])])]
            for q in self.states
        }

    def _survivors(self, q: str, removed) -> list[tuple[str, float]]:
        gone = set(removed)
        return [
            (r, float(self.model.prob_exact(q, r)))
            for r in self.model.succ(q)
            if (q, r) not in gone
        ]

    # -- state formulas -------------------------------------------------------

    def sat(self, f: tuple) -> frozenset[str]:
        if f not in self._sat:
            self._sat[f] = self._sat_uncached(f)
        return self._sat[f]

    def _sat_uncached(self, f: tuple) -> frozenset[str]:
        every = frozenset(self.states)
        kind = f[0]
        if kind == "true":
            return every
        if kind == "false":
            return frozenset()
        if kind == "atom":
            return frozenset(q for q in self.states if f[1] in self.model.label_of(q))
        if kind == "not":
            return every - self.sat(f[1])
        if kind == "and":
            return self.sat(f[1]) & self.sat(f[2])
        if kind == "or":
            return self.sat(f[1]) | self.sat(f[2])
        _, grade, cmp, threshold, path = f
        values = self.query_values(f)
        t = float(threshold)
        holds = {
            "<": lambda v: v < t,
            "<=": lambda v: v <= t,
            ">": lambda v: v > t,
            ">=": lambda v: v >= t,
        }[cmp]
        return frozenset(q for q, v in values.items() if holds(v))

    def query_values(self, f: tuple) -> dict[str, float]:
        _, grade, cmp, _, path = f
        key = (grade, cmp in ("<", "<="), path)
        if key not in self._values:
            pick = min if cmp in ("<", "<=") else max
            self._values[key] = self.path_values(path, self.rows(grade), pick)
        return self._values[key]

    # -- path formulas -----------------------------------------------------------

    def path_values(self, path: tuple, rows, pick) -> dict[str, float]:
        """Optimal per-state probability of a path formula over the given
        per-state removal rows."""

        def step(q: str, x: dict[str, float]) -> float:
            return pick(sum(p * x[r] for r, p in row) for row in rows[q])

        if path[0] == "X":
            body = self.sat(path[1])
            x = {q: (1.0 if q in body else 0.0) for q in self.states}
            return {q: step(q, x) for q in self.states}
        op, left, right, bound = path
        sat1, sat2 = self.sat(left), self.sat(right)
        if op == "U":
            pinned = {q: 1.0 for q in sat2}
            pinned.update({q: 0.0 for q in self.states if q not in sat1 | sat2})
            start = 0.0
        else:
            pinned = {q: 1.0 for q in sat1 & sat2}
            pinned.update({q: 0.0 for q in self.states if q not in sat2})
            start = 1.0
        free = [q for q in self.states if q not in pinned]
        if bound is not None:
            # the step-0 vector is the indicator of the right operand
            x = {q: (1.0 if q in sat2 else 0.0) for q in self.states}
            for _ in range(bound):
                x = {**pinned, **{q: step(q, x) for q in free}}
            return x
        # Gauss-Seidel sweeps from the last state back: on these
        # forward-biased models most successors are already up to date
        x = {**pinned, **{q: start for q in free}}
        free.reverse()
        for _ in range(MAX_SWEEPS):
            delta = 0.0
            for q in free:
                v = step(q, x)
                delta = max(delta, abs(v - x[q]))
                x[q] = v
            if delta < SWEEP_TOLERANCE:
                return x
        raise RuntimeError(f"reference sweep did not settle on {path!r}")

    def strategy_values(self, path: tuple, removal: dict) -> dict[str, float]:
        """Values of one fixed strategy (a synthesized witness)."""
        return self.path_values(path, self.fixed_rows(removal), max)

    def strategy_report(self, removal: dict, grade: int) -> list[str]:
        """Why a strategy is not a legal one of the grade, if it is not."""
        problems = []
        model = self.model
        for q, edges in removal.items():
            pairs = {tuple(e) for e in edges}
            own = {(q, r) for r in model.succ(q)}
            if not pairs <= own:
                problems.append(f"{q}: removes edges it does not own")
            elif pairs == own:
                problems.append(f"{q}: removes every outgoing edge")
            elif sum(model.cost_of(*e) for e in pairs) > grade:
                problems.append(f"{q}: removal costs more than grade {grade}")
        return problems


def settle_thresholds(ref: ScaleReference, f: tuple, rng) -> tuple:
    """Give every query without a threshold one drawn from the seed that
    lies more than ``TOLERANCE`` from each state's reference value, inner
    queries first."""
    kind = f[0]
    if kind in ("true", "false", "atom"):
        return f
    if kind == "not":
        return ("not", settle_thresholds(ref, f[1], rng))
    if kind in ("and", "or"):
        return (kind, settle_thresholds(ref, f[1], rng), settle_thresholds(ref, f[2], rng))
    _, grade, cmp, threshold, path = f
    if path[0] == "X":
        path = ("X", settle_thresholds(ref, path[1], rng))
    else:
        path = (
            path[0],
            settle_thresholds(ref, path[1], rng),
            settle_thresholds(ref, path[2], rng),
            path[3],
        )
    if threshold is None:
        values = ref.query_values(("query", grade, cmp, None, path)).values()
        while True:
            threshold = f"{rng.uniform(0.05, 0.95):.4f}"
            if all(abs(v - float(threshold)) > TOLERANCE for v in values):
                break
    return ("query", grade, cmp, threshold, path)
