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
values at the edges of the float range, rows with more than 64 removal
sets, which take the Pareto-front knapsack, and rows of costs near
2**31: listed at degree 3 and 5, through the front at degree 21).

A second line identifies the parser's output the same way: ``repr`` of
the parsed formula, its printed form and ``formula_size`` for each of
``formula_texts()``, seeded random texts that use every path form (F, G,
W and the bounded F<=k and G<=k sugar among them), nested queries,
redundant parentheses and unparenthesized connective chains.

A third line identifies the exact oracle's answers: ``oracle_optimum``
values and witnesses for all five operators, and ``step_optimum`` values
for X, U<=3 and R<=3, on ``corpus(2024, 60)`` at grades {0, 1, 2, 4} in
both modes; ``exact_prob`` of all five operators under one seeded random
memoryless strategy per model and grade; and, on ``models/chain.json``,
``true U<=2000 goal``, whose exact values have hundreds of digits, under
``exact_prob``, ``oracle_optimum`` and ``step_optimum``. Rationals enter
as ``num/den``.

A fourth line identifies the command line: the exit code, stdout and
stderr of ``potl.cli.main`` on each argv of ``cli_argvs()``, on the
models in ``models/``. The list covers all six subcommands, human and
``--json`` output, and every exit code from 0 to 5; a temporary
directory holds the strategy and formula files, and its path enters the
digest as ``TMP``.

A fifth line identifies the model loader and ``validate``: for each
model of ``corpus(2024, 60)``, written by ``dumps_model``, and for each
of ``MODEL_MUTATIONS`` applied to that document, either the exact
``ModelError`` text of ``loads_model`` or the loaded model's fields (its
exact probabilities in file order, labels, costs, each state's row and
predecessors) with the report of ``validate``.

    PYTHONHASHSEED=0 python scripts/answers_digest.py
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import pathlib
import random
import sys
import tempfile
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from potl.cli import main as cli_main
from potl.engine import (
    EngineOptions,
    Stats,
    check,
    operand_sets,
    path_values,
    synthesize,
)
from potl.generate import corpus, scaling_model
from potl.model import (
    ModelError,
    Pots,
    dumps_model,
    fraction_to_decimal,
    load_model,
    loads_model,
    validate,
)
from potl.obstruction import CostRangeError, MemorylessStrategy, best_removal, empty_strategy
from potl.oracle import exact_prob, oracle_optimum, removal_options, step_optimum
from potl.oracle import operand_sets as oracle_operand_sets
from potl.syntax import (
    Atom,
    BoundedRelease,
    BoundedUntil,
    Next,
    ObstructQuery,
    Release,
    Until,
    formula_size,
    parse,
    parse_path_formula,
    print_state,
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


def exact(values):
    return tuple((q, str(v)) for q, v in sorted(values.items()))


def random_strategy(rng, model, grade):
    """A memoryless strategy with a seeded random removal option per state."""
    removal = {}
    for q in model.states:
        removed = rng.choice(removal_options(model, q, grade))
        if removed:
            removal[q] = frozenset(removed)
    return MemorylessStrategy(grade=grade, removal=removal)


def optimum_results(model, theta, sat1, sat2, grade, mode):
    r = oracle_optimum(model, theta, sat1, sat2, grade, mode)
    witnesses = tuple(
        (q, sorted((p, sorted(e)) for p, e in s.removal.items()))
        for q, s in sorted(r.witnesses.items())
    )
    yield ("optimum", exact(r.values), witnesses)
    if not isinstance(theta, (Until, Release)):
        yield ("step", exact(step_optimum(model, theta, sat1, sat2, grade, mode)))


def oracle_results(model, seed):
    operands = {theta: oracle_operand_sets(model, theta) for theta in THETAS}
    for theta, (sat1, sat2) in operands.items():
        for grade in GRADES:
            for mode in MODES:
                yield from optimum_results(model, theta, sat1, sat2, grade, mode)
    rng = random.Random(seed)
    for grade in GRADES:
        strategy = random_strategy(rng, model, grade)
        for theta, (sat1, sat2) in operands.items():
            yield ("fixed", exact(exact_prob(model, strategy, theta, sat1, sat2)))


def chain_results():
    """``true U<=2000 goal`` on the chain: q keeps half its mass per step."""
    chain = load_model(str(ROOT / CHAIN))
    theta = parse_path_formula("true U<=2000 goal")
    sat1, sat2 = oracle_operand_sets(chain, theta)
    yield ("fixed", exact(exact_prob(chain, empty_strategy(), theta, sat1, sat2)))
    for grade in (0, 1):
        for mode in MODES:
            yield from optimum_results(chain, theta, sat1, sat2, grade, mode)


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
        if k % 100 == 99:  # huge costs: a listed row, or 21 edges through the front
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


LEAVES = ["true", "false", "a", "b", "goal", "r2"]
THRESHOLD_TEXTS = ["0", "1", "0.5", "0.1", "0.125", "1/3", "2/7"]


def state_text(rng, depth):
    if depth <= 0 or rng.random() < 0.15:
        return rng.choice(LEAVES)
    kind = rng.randrange(3)
    if kind == 0:
        return "!" + operand_text(rng, depth - 1)
    if kind == 1:
        parts = [operand_text(rng, depth - 1)]
        for _ in range(rng.randint(1, 3)):
            parts += [rng.choice(["&", "|", "->"]), operand_text(rng, depth - 1)]
        return " ".join(parts)
    head = f"<<{rng.randint(0, 4)} {rng.choice(['<', '<=', '>', '>='])} "
    return head + f"{rng.choice(THRESHOLD_TEXTS)}>> {path_text(rng, depth - 1)}"


def operand_text(rng, depth):
    """A state formula that stands bare beside an operator: a leaf, or
    anything in parentheses."""
    text = state_text(rng, depth)
    return text if text in LEAVES and rng.random() < 0.8 else f"({text})"


def path_text(rng, depth):
    op = rng.choice(["X", "F", "G", "U", "R", "W"])
    if op != "X" and op != "W" and rng.random() < 0.5:
        op += f"<={rng.randint(0, 9)}"
    if op[0] in "XFG":
        body = state_text(rng, depth) if rng.random() < 0.3 else operand_text(rng, depth)
        text = f"{op} {body}"
    else:
        text = f"{operand_text(rng, depth)} {op} {operand_text(rng, depth)}"
    return f"({text})" if rng.random() < 0.3 else text


def formula_texts(seed=2024, count=20000):
    """Seeded random state formula texts, every one of them parseable."""
    rng = random.Random(seed)
    return [state_text(rng, rng.randint(0, 4)) for _ in range(count)]


def formula_results(texts):
    for text in texts:
        phi = parse(text)
        yield (repr(phi), print_state(phi), formula_size(phi))


CHAIN, ATTACK = "models/chain.json", "models/attack-graph.json"


def cli_argvs(tmp):
    """Command lines over the shipped models; ``tmp`` is a directory that
    holds ``phi.potl`` and receives ``s.json`` from the synthesize runs."""
    strategy, phi = f"{tmp}/s.json", f"{tmp}/phi.potl"
    check = ["check", "--model", ATTACK, "--formula"]
    return [
        check + ["<<4 < 0.1>> F (r2 | r3)"],
        check + ["<<4 < 0.1>> F (r2 | r3)", "--json"],
        check + ["<<1 <= 0.9>> G (!r3 | <<4 < 0.1>> F r2)", "--solver", "pi", "--json"],
        check + ["r2 & r3"],
        check + ["<<0 > 0.5>> X r9", "--json"],
        check + ["(("],
        check + ["<<0 < 0.5>> F r3", "--epsilon", "0"],
        check + ["<<0 < 0.5>> F r3", "--max-iterations", "1"],
        ["check", "--model", ATTACK, "--formula-file", phi, "--json"],
        ["check", "--model", CHAIN, "--formula", "<<1 < 0.5>> F<=100000000 goal",
         "--max-iterations", "5"],
        ["check", "--model", "models/README.md", "--formula", "true"],
        ["check", "--formula", "true"],
        ["prob", "--model", CHAIN, "--path", "F goal", "--grade", "1"],
        ["prob", "--model", ATTACK, "--path", "true U<=4 r3", "--mode", "max", "--json"],
        ["prob", "--model", ATTACK, "--path", "F r3", "--grade", "5", "--state", "S1"],
        ["prob", "--model", ATTACK, "--path", "F r3", "--state", "nope"],
        ["prob", "--model", ATTACK, "--path", "r3"],
        ["prob", "--model", ATTACK, "--path", "F r3", "--grade", "-1"],
        ["prob", "--model", ATTACK, "--path", "F r3", "--max-iterations", "2"],
        ["synthesize", "--model", ATTACK, "--path", "F r3", "--grade", "5", "-o", strategy],
        ["synthesize", "--model", CHAIN, "--path", "X goal", "--grade", "1", "--json"],
        ["synthesize", "--model", ATTACK, "--path", "G !r3", "--grade", "3",
         "--max-iterations", "3"],
        ["prob", "--model", ATTACK, "--path", "F r3", "--strategy", strategy, "--json"],
        ["validate", "--model", ATTACK],
        ["validate", "--model", CHAIN, "--json"],
        ["validate", "--model", "models/missing.json"],
        ["oracle", "--model", ATTACK, "--formula", "<<5 < 0.2>> F r3"],
        ["oracle", "--model", ATTACK, "--formula", "<<4 < 0.1>> F (r2 | r3)", "--json"],
        ["oracle", "--model", ATTACK, "--formula", "r2 | <<1 >= 0.5>> X (r2 | r3)", "--json"],
        ["oracle", "--model", ATTACK, "--path", "F r3", "--grade", "5"],
        ["oracle", "--model", ATTACK, "--path", "X r2", "--grade", "1", "--json"],
        ["oracle", "--model", ATTACK, "--path", "r2 R !r3", "--mode", "max", "--json"],
        ["oracle", "--model", ATTACK, "--path", "true U<=3 r3", "--grade", "3", "--json"],
        ["oracle", "--model", ATTACK, "--path", "F r3", "--strategy", strategy, "--json"],
        ["oracle", "--model", ATTACK, "--path", "F r3", "--grade", "5", "--limit", "2"],
        ["oracle", "--model", ATTACK, "--path", "F r3", "--limit", "0"],
        ["oracle", "--model", ATTACK, "--formula", "<<5 < 0.2>> F r3", "--limit", "2"],
        ["conformance", "--model", ATTACK, "--path", "true U r3", "--grade", "4"],
        ["conformance", "--model", CHAIN, "--path", "false R goal", "--grade", "1", "--json"],
        ["conformance", "--model", ATTACK, "--path", "true U<=3 r3", "--grade", "1"],
        ["conformance", "--model", ATTACK, "--path", "F r3", "--grade", "5", "--limit", "2"],
    ]


def cli_results():
    """Exit code, stdout and stderr of each of ``cli_argvs``, run in-process
    from the repository root with an 80-column usage text."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            pathlib.Path(tmp, "phi.potl").write_text("<<5 < 0.2>> F r3\n")
            for argv in cli_argvs(tmp):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli_main(argv)
                    except SystemExit as exc:  # argparse rejects the command line
                        code = exc.code
                texts = (" ".join(argv), out.getvalue(), err.getvalue())
                yield (code, *(t.replace(tmp, "TMP") for t in texts))
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def _edge(i, **changes):
    return lambda doc: doc["edges"][i].update(changes)


def _nudge(delta):
    """Move the first edge's probability by an exact ``delta``: its row then
    sums to 1 + delta, give or take the rounding of repeating decimals."""

    def mutate(doc):
        edge = doc["edges"][0]
        edge["prob"] = fraction_to_decimal(Fraction(edge["prob"]) + delta)

    return mutate


def _drop_last_row(doc):
    last = doc["states"][-1]
    doc["edges"] = [e for e in doc["edges"] if e["from"] != last]


def _zero_then_bad_cost(doc):
    doc["edges"][0]["prob"] = "0.000"
    doc["edges"][-1]["cost"] = -1


def _zeros(doc):
    prob = doc["edges"][0]["prob"]
    doc["edges"][0]["prob"] = "00" + prob + ("000" if "." in prob else ".000")


# documents that break rules of the loader or of validate, or that write
# the same model differently; ASCII only
MODEL_MUTATIONS = [
    lambda doc: None,
    lambda doc: doc["edges"].reverse(),
    lambda doc: doc.pop("labels"),
    _zeros,
    _nudge(Fraction(1, 10**9)),
    _nudge(Fraction(-1, 10**9)),
    _nudge(Fraction(2, 10**9)),
    _nudge(Fraction(-2, 10**9)),
    _edge(0, prob="1.5"),
    _edge(0, cost=2**32),
    _drop_last_row,
    _edge(0, prob="0"),
    _zero_then_bad_cost,
    _edge(-1, cost=-1),
    _edge(0, cost=True),
    _edge(0, prob=0.5),
    _edge(0, prob="1/2"),
    _edge(0, prob="5e-1"),
    _edge(-1, to="nowhere"),
    lambda doc: doc["edges"].append(dict(doc["edges"][0])),
    lambda doc: doc["edges"][0].pop("cost"),
    lambda doc: doc["edges"][0].update(weight=1),
    lambda doc: doc.update(initial="nowhere"),
    lambda doc: doc["states"].append(doc["states"][0]),
    lambda doc: doc.update(labels={"nowhere": ["a"]}),
    lambda doc: doc.update(extra=1),
]


def model_outcome(text):
    try:
        model = loads_model(text)
    except ModelError as exc:
        return ("error", str(exc))
    return (
        model.states,
        model.initial,
        [(e, f"{p.numerator}/{p.denominator}") for e, p in model.prob.items()],
        sorted((q, sorted(props)) for q, props in model.labels.items()),
        list(model.cost.items()),
        [(q, model.row(q), model.pred(q)) for q in model.states],
        validate(model),
    )


def model_results(model):
    doc = json.loads(dumps_model(model))
    for mutate in MODEL_MUTATIONS:
        mutated = copy.deepcopy(doc)
        mutate(mutated)
        yield model_outcome(json.dumps(mutated))


def digest(streams):
    """Result count and sha256 over the reprs of every result, in order."""
    sha = hashlib.sha256()
    count = 0
    for stream in streams:
        for result in stream:
            sha.update(repr(result).encode())
            sha.update(b"\n")
            count += 1
    return count, sha.hexdigest()


def main() -> None:
    models = corpus(2024, 60) + [scaling_model(200)]
    count, hexdigest = digest([engine_results(m) for m in models] + [removal_results()])
    print(f"results {count} sha256 {hexdigest}")
    count, hexdigest = digest([formula_results(formula_texts())])
    print(f"formulas {count} sha256 {hexdigest}")
    oracle_streams = [oracle_results(m, seed) for seed, m in enumerate(corpus(2024, 60))]
    count, hexdigest = digest(oracle_streams + [chain_results()])
    print(f"oracle {count} sha256 {hexdigest}")
    count, hexdigest = digest([cli_results()])
    print(f"cli {count} sha256 {hexdigest}")
    count, hexdigest = digest([model_results(m) for m in corpus(2024, 60)])
    print(f"models {count} sha256 {hexdigest}")


if __name__ == "__main__":
    main()
