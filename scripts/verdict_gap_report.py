#!/usr/bin/env python3
"""Count where the engine's verdict differs from the exact oracle's on a
random corpus: ROADMAP item 1's scale.

Every model is checked on each path below, at each grade and threshold,
with ``engine.check(...).sat`` against ``oracle_sat``. The script prints
the number of checks, of disagreements and of models with one, then the
disagreements by threshold and by path.

With ``--nested N`` each model is checked instead on N depth-2 formulas
from a generator seeded with ``--seed``: a query whose path formula's
operands are atoms ``a`` and ``b`` or queries over them, at grades 0 to
4 (``--grades`` sets the flat grid's only) and the thresholds below. The
script then lists each disagreement.

With ``--scale N`` it checks instead ``scaling_model(N, seed)`` for the
``--count`` seeds from ``--seed`` on, on each path below at grade 0 and
the maximizer's thresholds ``> 0``, ``>= 1`` and ``>= 1/2``, and lists
each disagreement with the first state it is at in model order and how
many more there are. Max mode is one exact solve per query, so the
oracle answers at this scale.

    python scripts/verdict_gap_report.py [--count 200] [--seed 2024] [--nested N | --scale N]

A reader that closes the pipe early (``| head``) ends the script with
status 141, as a SIGPIPE kill would, and no traceback.
"""

import argparse
import os
import pathlib
import random
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from potl.engine import check
from potl.generate import corpus, scaling_model
from potl.oracle import oracle_sat
from potl.syntax import parse

PATHS = [
    "X b", "a U<=3 b", "a U b", "a R<=3 b", "a R b", "F b",
    "G a", "G<=3 a", "F<=3 b", "!a U b", "b R a",
]
THRESHOLDS = ["< 1", "<= 0", "> 0", ">= 1", "< 1/2", ">= 1/2"]
SHAPES = ["X {}", "F {}", "G {}", "{} U {}", "{} R {}", "{} U<=3 {}"]
MAX_THRESHOLDS = ["> 0", ">= 1", ">= 1/2"]


def query(rng: random.Random, shape: str, operands: list[str]) -> str:
    return f"<<{rng.randint(0, 4)} {rng.choice(THRESHOLDS)}>> {shape.format(*operands)}"


def flat_query(rng: random.Random) -> str:
    shape = rng.choice(SHAPES)
    return query(rng, shape, [rng.choice("ab") for _ in range(shape.count("{}"))])


def nested_formula(rng: random.Random) -> str:
    """A depth-2 query: each operand of its path formula is an atom or a
    query over atoms, and at least one is a query."""
    shape = rng.choice(SHAPES)
    operands = [f"({flat_query(rng)})"]
    if shape.count("{}") == 2:
        operands.append(f"({flat_query(rng)})" if rng.random() < 0.5 else rng.choice("ab"))
        rng.shuffle(operands)
    return query(rng, shape, operands)


def nested_report(models: list, per_model: int, rng: random.Random) -> None:
    checked, wrong = 0, []
    for i, model in enumerate(models):
        for _ in range(per_model):
            formula = nested_formula(rng)
            phi = parse(formula)
            checked += 1
            if check(model, phi).sat != oracle_sat(model, phi):
                wrong.append((f"model#{i}", formula))
    print_listing(checked, wrong, len(models))


def scale_report(n_states: int, seeds: range) -> None:
    checked, wrong = 0, []
    for seed in seeds:
        model = scaling_model(n_states, seed)
        for path in PATHS:
            for threshold in MAX_THRESHOLDS:
                formula = f"<<0 {threshold}>> {path}"
                phi = parse(formula)
                checked += 1
                differ = check(model, phi).sat ^ oracle_sat(model, phi)
                if differ:
                    first = next(q for q in model.states if q in differ)
                    more = f" and {len(differ) - 1} more" if len(differ) > 1 else ""
                    wrong.append((f"seed {seed}", f"{formula} at {first}{more}"))
    print_listing(checked, wrong, len(seeds))


def print_listing(checked: int, wrong: list[tuple[str, str]], models: int) -> None:
    """The counts, then each disagreement as its model and what differs."""
    print(f"checks: {checked}")
    print(f"disagreements: {len(wrong)}")
    print(f"models with one: {len({model for model, _ in wrong})} of {models}")
    for model, line in wrong:
        print(f"  {model} {line}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--grades", type=int, nargs="+", default=[0, 1, 2, 4])
    parser.add_argument("--nested", type=int, default=0, metavar="N")
    parser.add_argument("--scale", type=int, default=0, metavar="N")
    args = parser.parse_args()
    if args.scale:
        scale_report(args.scale, range(args.seed, args.seed + args.count))
        return
    if args.nested:
        nested_report(corpus(args.seed, args.count), args.nested, random.Random(args.seed))
        return

    checked = 0
    by_threshold, by_path, models = Counter(), Counter(), set()
    for i, model in enumerate(corpus(args.seed, args.count)):
        for path in PATHS:
            for grade in args.grades:
                for threshold in THRESHOLDS:
                    phi = parse(f"<<{grade} {threshold}>> {path}")
                    checked += 1
                    if check(model, phi).sat != oracle_sat(model, phi):
                        by_threshold[threshold] += 1
                        by_path[path] += 1
                        models.add(i)

    print(f"checks: {checked}")
    print(f"disagreements: {sum(by_path.values())}")
    print(f"models with one: {len(models)} of {args.count}")
    print("by threshold:")
    for threshold, n in by_threshold.most_common():
        print(f"  {threshold:<7} {n}")
    print("by path:")
    for path, n in by_path.most_common():
        print(f"  {path:<9} {n}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
