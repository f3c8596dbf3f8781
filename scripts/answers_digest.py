#!/usr/bin/env python3
"""Print one line that identifies the engine's answers: a result count and
a sha256 over them. Two trees that print the same line give the same
answers on these inputs, bit for bit; floats enter the digest as
``float.hex``.

Covered, on ``corpus(2024, 60)`` and ``scaling_model(200)``, for X, U<=3,
U, R<=3 and R over atoms a and b, at grades {0, 1, 2, 4} in both modes:

- ``path_values`` values, iteration counts and warnings under vi and pi;
- ``check`` of the obstruction query at each comparison and at
  thresholds {0, 1/3, 1/2, 1}: sat set, values, iterations, warnings;
- ``synthesize`` strategies, values and iterations (min mode);
- ``check`` of a few nested formulas, one with an atom the model lacks;

plus ``best_removal`` on seeded star rows (degree 1 to 12, successor
values at the edges of the float range, rows wide enough for the
knapsack, huge costs, and rows whose cost range is rejected).

    PYTHONHASHSEED=0 python scripts/answers_digest.py
"""

import hashlib
import pathlib
import random
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from potl.engine import (
    EngineOptions,
    Stats,
    check,
    operand_sets,
    path_values,
    synthesize,
)
from potl.generate import corpus, scaling_model
from potl.model import Pots
from potl.obstruction import CostRangeError, best_removal
from potl.syntax import (
    Atom,
    BoundedRelease,
    BoundedUntil,
    Next,
    ObstructQuery,
    Release,
    Until,
    parse,
)

A, B = Atom("a"), Atom("b")
THETAS = [
    Next(B),
    BoundedUntil(A, B, 3),
    Until(A, B),
    BoundedRelease(A, B, 3),
    Release(A, B),
]
GRADES = [0, 1, 2, 4]
MODES = {"min": ["<", "<="], "max": [">", ">="]}
THRESHOLDS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
NESTED = [
    "<<1 < 0.5>> X (a & !c)",
    "<<2 >= 0.25>> (a U <<0 > 0.5>> X b)",
    "<<1 <= 0.9>> G (a | <<4 < 0.1>> F b)",
]
EDGE_VALUES = [0.0, 5e-324, 1e-300, 1.0000000000000002]


def vector(values):
    return tuple((q, v.hex()) for q, v in sorted(values.items()))


def engine_results(model):
    opts = {solver: EngineOptions(solver=solver) for solver in ("vi", "pi")}
    for theta in THETAS:
        for grade in GRADES:
            for mode, cmps in MODES.items():
                for solver, opt in opts.items():
                    stats = Stats()
                    values = path_values(model, theta, grade, mode, opt, stats)
                    yield ("path", solver, vector(values), stats.iterations, tuple(stats.warnings))
                for cmp in cmps:
                    for threshold in THRESHOLDS:
                        r = check(model, ObstructQuery(grade, cmp, threshold, theta))
                        yield (
                            "check", sorted(r.sat), vector(r.values), r.iterations,
                            tuple(r.warnings),
                        )
            stats = Stats()
            sat1, sat2 = operand_sets(model, theta, opts["vi"], stats)
            strategy, values = synthesize(model, theta, sat1, sat2, grade, opts["vi"], stats)
            removal = sorted((q, sorted(e)) for q, e in strategy.removal.items())
            yield ("synthesize", removal, vector(values), stats.iterations)
    for text in NESTED:
        r = check(model, parse(text))
        yield ("nested", sorted(r.sat), r.iterations, tuple(r.warnings))


def star(rng, degree, cost, value):
    states = ["hub"] + [f"t{i}" for i in range(degree)]
    weights = [rng.randint(1, 9) for _ in range(degree)]
    edges = [(f"t{i}", f"t{i}", 1, 0) for i in range(degree)] + [
        ("hub", f"t{i}", Fraction(w, sum(weights)), cost()) for i, w in enumerate(weights)
    ]
    values = {f"t{i}": value() for i in range(degree)}
    return Pots.build(states, "hub", edges), values


def removal_results(seed=2024, rows=3000):
    rng = random.Random(seed)

    def value():
        return rng.choice(EDGE_VALUES) if rng.random() < 0.2 else rng.random()

    for k in range(rows):
        if k % 100 == 99:  # huge costs: gcd scaling, the walk, or a range error
            big = 2**31
            degree, budget = rng.choice(
                [(3, 2 * big), (5, 2 * big + 1), (5, 8 * big), (21, 8 * big)]
            )
            model, values = star(rng, degree, lambda: big + rng.choice([0, 1, 2, 3]), value)
        else:
            degree = rng.randint(1, 12)
            model, values = star(rng, degree, lambda: rng.randint(0, 6), value)
            budget = rng.randint(0, 16)
        try:
            removal, surviving = best_removal(model, "hub", budget, values)
        except CostRangeError as exc:
            yield ("removal", str(exc))
        else:
            yield ("removal", removal, surviving.hex())


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    models = corpus(2024, 60) + [scaling_model(200)]
    streams = [engine_results(m) for m in models] + [removal_results()]
    for stream in streams:
        for result in stream:
            digest.update(repr(result).encode())
            digest.update(b"\n")
            count += 1
    print(f"results {count} sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
