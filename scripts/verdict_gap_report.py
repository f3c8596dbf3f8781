#!/usr/bin/env python3
"""Count where the engine's verdict differs from the exact oracle's on a
random corpus: ROADMAP item 1's scale.

Every model is checked on each path below, at each grade and threshold,
with ``engine.check(...).sat`` against ``oracle_sat``. The script prints
the number of checks, of disagreements and of models with one, then the
disagreements by threshold and by path.

    python scripts/verdict_gap_report.py [--count 200] [--seed 2024]
"""

import argparse
import pathlib
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from potl.engine import check
from potl.generate import corpus
from potl.oracle import oracle_sat
from potl.syntax import parse

PATHS = [
    "X b", "a U<=3 b", "a U b", "a R<=3 b", "a R b", "F b",
    "G a", "G<=3 a", "F<=3 b", "!a U b", "b R a",
]
THRESHOLDS = ["< 1", "<= 0", "> 0", ">= 1", "< 1/2", ">= 1/2"]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--grades", type=int, nargs="+", default=[0, 1, 2, 4])
    args = parser.parse_args()

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
    main()
