"""Seeded inputs: model JSON documents and formula suites.

Everything here is the benchmark's own code. Models come out as JSON
documents in the repository's model format, with probabilities as exact
two-digit decimals so the exact oracle and the float engine see the same
numbers. Formulas are small tuples rendered to potl's concrete syntax:

    ("true",) ("false",) ("atom", name) ("not", f) ("and", f, g) ("or", f, g)
    ("query", grade, cmp, threshold, path)   threshold: decimal text or None
    path: ("X", f) | ("U", f, g, bound) | ("R", f, g, bound)   bound: int or None

A threshold of None is settled later against the reference values, so that
it sits more than the acceptance tolerance away from every state's value.
"""

from __future__ import annotations

import itertools
import random

SCALE_MODEL = {
    "block": 25,
    "max_out_degree": 3,
    "min_cost": 1,
    "max_cost": 3,
    # shares of each block labelled {a}, {b} and {a, b}: each atom on 30 %
    # of the states, independently
    "label_classes": {"a": 0.21, "b": 0.21, "ab": 0.09},
    "sweep_cap": 15,
}
CERTIFY_MODEL = {
    "max_out_degree": 3,
    "min_cost": 0,
    "max_cost": 3,
    "atoms": ["a", "b"],
    "label_prob": 0.4,
}
CERTIFY_GRADES = (0, 1, 2, 4)
# Strategy-space bands at the top grade. Which draws land in the heavy band
# sets the slowest oracle calls, so every other model of 4 or 5 states is
# redrawn into it and all others into the light band: the tail then rests
# on a fixed quarter of the corpus, not on a handful of draws.
CERTIFY_LIGHT = (1, 60)
CERTIFY_HEAVY = (61, 200)


def random_model(rng: random.Random, n_states: int, params: dict) -> dict:
    """One serial model with exactly stochastic rows, in the shape of the
    repository's seeded generator: at least three quarters of each
    non-final state's mass moves forward, the last state absorbs. Each
    state carries each atom with probability ``label_prob``."""
    states = [f"S{i}" for i in range(n_states)]
    edges = _block_edges(rng, states, params)
    labels = {}
    for q in states:
        props = [p for p in params["atoms"] if rng.random() < params["label_prob"]]
        if props:
            labels[q] = props
    return {"states": states, "initial": states[0], "labels": labels, "edges": edges}


def scale_model(rng: random.Random, n_states: int, params: dict) -> dict:
    """A model of disjoint blocks of ``params["block"]`` states, each shaped
    as ``random_model``; ``S0`` is the initial state.

    Two things keep the cost of a query nearly the same from seed to seed.
    Each block labels exactly the share of states that ``label_classes``
    gives (the rest carry no atom), so the operand sets have fixed sizes.
    And a block is redrawn while plain value iteration of an unbounded
    suite operator needs more than ``sweep_cap`` sweeps on it: the engine
    sweeps the whole model until its slowest block settles, so without the
    cap the sweep count is the maximum over the blocks, which has a long
    tail across seeds; with it that maximum sits just below the cap.
    """
    size = params["block"]
    states = [f"S{i}" for i in range(n_states)]
    edges: list[dict] = []
    labels: dict[str, list[str]] = {}
    for low in range(0, n_states, size):
        block = states[low:low + size]
        while True:
            doc = {
                "states": block,
                "edges": _block_edges(rng, block, params),
                "labels": _block_labels(rng, block, params["label_classes"]),
            }
            if max(plain_sweeps(doc, path) for path in SWEEP_PATHS) <= params["sweep_cap"]:
                break
        edges += doc["edges"]
        labels.update(doc["labels"])
    return {"states": states, "initial": states[0], "labels": labels, "edges": edges}


def _block_edges(rng: random.Random, states: list[str], params: dict) -> list[dict]:
    edges = []

    def cost() -> int:
        return rng.randint(params["min_cost"], params["max_cost"])

    n = len(states)
    for i, q in enumerate(states):
        if i == n - 1:
            edges.append({"from": q, "to": q, "prob": "1", "cost": cost()})
            continue
        degree = rng.randint(1, min(params["max_out_degree"], n))
        ahead = range(i + 1, n)
        forward = rng.sample(ahead, rng.randint(1, min(degree, len(ahead))))
        behind = range(0, i + 1)
        backward = rng.sample(behind, min(degree - len(forward), len(behind)))
        weights = {j: rng.randint(3, 9) for j in forward}
        for j in backward:
            weights[j] = 1
        deficit = 3 * len(backward) - sum(weights[j] for j in forward)
        if deficit > 0:
            weights[forward[0]] += deficit
        for j, hundredths in zip(sorted(weights), _hundredths(weights)):
            edges.append(
                {"from": q, "to": states[j], "prob": _decimal(hundredths), "cost": cost()}
            )
    return edges


def _block_labels(rng: random.Random, states: list[str], classes: dict) -> dict:
    """Exactly ``round(share * len(states))`` states of each label class,
    at seeded places."""
    order = rng.sample(states, len(states))
    labels = {}
    for atoms, share in classes.items():
        for q in order[:round(share * len(states))]:
            labels[q] = list(atoms)
        order = order[round(share * len(states)):]
    return labels


# Unbounded scale-suite operators whose sweep count the scale generator caps:
# a U b, a R b and G a (false R a).
SWEEP_PATHS = ("U", "R", "G")
SWEEP_EPSILON = 1e-10  # the engine's default epsilon


def plain_sweeps(doc: dict, path: str) -> int:
    """Jacobi sweeps of plain (no removal) value iteration until no value
    moves by ``SWEEP_EPSILON``, over the states the engine leaves
    undetermined. Removing edges only lowers the spectral radius, so this
    bounds how slowly the engine's min-mode iteration settles."""
    states = doc["states"]
    a = {q for q in states if "a" in doc["labels"].get(q, ())}
    b = {q for q in states if "b" in doc["labels"].get(q, ())}
    rows: dict[str, list[tuple[str, float]]] = {q: [] for q in states}
    for e in doc["edges"]:
        rows[e["from"]].append((e["to"], float(e["prob"])))
    if path == "U":
        reach = set(b)
        grown = True
        while grown:
            grown = False
            for q in a - b - reach:
                if any(r in reach for r, _ in rows[q]):
                    reach.add(q)
                    grown = True
        free = [q for q in states if q in reach - b]
        x = {q: float(q in b) for q in states}
    elif path == "R":
        free = [q for q in states if q in b - a]
        x = {q: float(q in b) for q in states}
    else:
        free = [q for q in states if q in a]
        x = {q: float(q in a) for q in states}
    sweeps = 0
    while True:
        sweeps += 1
        nxt = dict(x)
        for q in free:
            nxt[q] = sum(p * x[r] for r, p in rows[q])
        if max((abs(nxt[q] - x[q]) for q in free), default=0.0) < SWEEP_EPSILON:
            return sweeps
        x = nxt


def _hundredths(weights: dict[int, int]) -> list[int]:
    """Split 100 in proportion to the weights (largest remainder), every
    share at least 1, in key order."""
    keys = sorted(weights)
    total = sum(weights.values())
    exact = [100 * weights[j] / total for j in keys]
    shares = [max(1, int(x)) for x in exact]
    order = sorted(range(len(keys)), key=lambda i: shares[i] - exact[i])
    i = 0
    while sum(shares) < 100:
        shares[order[i % len(order)]] += 1
        i += 1
    while sum(shares) > 100:
        k = max(range(len(keys)), key=lambda i: shares[i])
        shares[k] -= 1
    return shares


def _decimal(hundredths: int) -> str:
    return "1" if hundredths == 100 else f"0.{hundredths:02d}"


def count_strategies(doc: dict, grade: int) -> int:
    """Number of memoryless strategies of a grade: per state, the strict
    edge subsets whose cost fits the grade."""
    rows: dict[str, list[int]] = {q: [] for q in doc["states"]}
    for edge in doc["edges"]:
        rows[edge["from"]].append(edge["cost"])
    count = 1
    for costs in rows.values():
        count *= sum(
            1
            for size in range(len(costs))
            for combo in itertools.combinations(costs, size)
            if sum(combo) <= grade
        )
    return count


def model_size(doc: dict) -> tuple[int, int]:
    return len(doc["states"]), len(doc["edges"])


# -- formulas -----------------------------------------------------------------

TRUE = ("true",)
FALSE = ("false",)
A = ("atom", "a")
B = ("atom", "b")


def render(f: tuple) -> str:
    kind = f[0]
    if kind in ("true", "false"):
        return kind
    if kind == "atom":
        return f[1]
    if kind == "not":
        return f"!{_operand(f[1])}"
    if kind == "and":
        return f"{_operand(f[1])} & {_operand(f[2])}"
    if kind == "or":
        return f"{_operand(f[1])} | {_operand(f[2])}"
    if kind == "query":
        _, grade, cmp, threshold, path = f
        return f"<<{grade} {cmp} {threshold}>> {render_path(path)}"
    raise ValueError(f"not a state formula: {f!r}")


def render_path(p: tuple) -> str:
    if p[0] == "X":
        return f"X {_operand(p[1])}"
    op, left, right, bound = p
    suffix = "" if bound is None else f"<={bound}"
    if op == "U" and left == TRUE:
        return f"F{suffix} {_operand(right)}"
    if op == "R" and left == FALSE:
        return f"G{suffix} {_operand(right)}"
    return f"{_operand(left)} {op}{suffix} {_operand(right)}"


def _operand(f: tuple) -> str:
    text = render(f)
    return text if f[0] in ("true", "false", "atom") else f"({text})"


# -- workload suites ----------------------------------------------------------------


def _q(grade: int, cmp: str, path: tuple) -> tuple:
    return ("query", grade, cmp, None, path)


def scale_suite() -> list[dict]:
    """The min-mode scale suite; ``kind`` is the engine entry point.

    A round is a mixture of query types, so its median and tail fall on
    whichever types sit at those ranks. The unbounded queries run over the
    sparse ``a`` region, where they are cheap but their sweep counts still
    depend a little on the seed (G runs under policy iteration, which
    settles in a few rounds on every seed). Those seven sit below a band of
    fourteen step-bounded queries of about equal cost that does not depend
    on the seed, and two long step-bounded queries sit above it. The median
    and the 75th percentile then both fall well inside the band, where
    samples are dense, not at an edge where a small shift of the host's
    speed moves them far; and the round time rests mostly on
    seed-independent work.
    """
    inner = _q(2, "<", ("X", A))
    return [
        # below the band
        {"name": "X", "kind": "check", "formula": _q(2, "<", ("X", B))},
        {"name": "U.vi", "kind": "check", "formula": _q(2, "<", ("U", A, B, None))},
        {"name": "U.pi", "kind": "check", "formula": _q(2, "<", ("U", A, B, None)), "solver": "pi"},
        {"name": "R.vi", "kind": "check", "formula": _q(2, "<", ("R", A, B, None))},
        {"name": "R.pi", "kind": "check", "formula": _q(2, "<", ("R", A, B, None)), "solver": "pi"},
        {"name": "synth.U", "kind": "synthesize", "grade": 2, "path": ("U", A, B, None)},
        {"name": "G.pi", "kind": "check", "formula": _q(1, "<=", ("R", FALSE, A, None)), "solver": "pi"},
        # the band
        {"name": "U<=30", "kind": "check", "formula": _q(1, "<=", ("U", A, B, 30))},
        {"name": "F<=6", "kind": "check", "formula": _q(2, "<", ("U", TRUE, B, 6))},
        {"name": "R<=25", "kind": "check", "formula": _q(2, "<=", ("R", A, B, 25))},
        {"name": "G<=8", "kind": "check", "formula": _q(1, "<", ("R", FALSE, ("not", B), 8))},
        {
            "name": "nested",
            "kind": "check",
            "formula": _q(1, "<", ("U", inner, ("and", B, inner), 6)),
        },
        {"name": "synth.U<=20", "kind": "synthesize", "grade": 2, "path": ("U", A, B, 20)},
        {"name": "R<=30", "kind": "check", "formula": _q(1, "<", ("R", A, B, 30))},
        {"name": "G<=6", "kind": "check", "formula": _q(2, "<=", ("R", FALSE, ("not", B), 6))},
        {"name": "U<=21.g2", "kind": "check", "formula": _q(2, "<", ("U", A, B, 21))},
        {"name": "F<=7.g1", "kind": "check", "formula": _q(1, "<=", ("U", TRUE, B, 7))},
        {"name": "R<=22.g2", "kind": "check", "formula": _q(2, "<=", ("R", A, B, 22))},
        {"name": "G<=8.!a", "kind": "check", "formula": _q(1, "<", ("R", FALSE, ("not", A), 8))},
        {"name": "!a.U<=10", "kind": "check", "formula": _q(1, "<", ("U", ("not", A), B, 10))},
        {"name": "a.R<=28.a|b", "kind": "check", "formula": _q(1, "<=", ("R", A, ("or", A, B), 28))},
        # above the band
        {"name": "U<=50", "kind": "check", "formula": _q(1, "<", ("U", A, B, 50))},
        {"name": "R<=50", "kind": "check", "formula": _q(2, "<", ("R", A, B, 50))},
    ]


def certify_paths() -> dict[str, tuple]:
    """The five core operators over the corpus atoms, as in the acceptance
    suite."""
    return {
        "X": ("X", B),
        "U<=4": ("U", A, B, 4),
        "U": ("U", A, B, None),
        "R<=4": ("R", A, B, 4),
        "R": ("R", A, B, None),
    }


def certify_corpus(rng: random.Random, count: int) -> list[dict]:
    """Small models of 2 to 5 states, equally many of each size, redrawn
    until their strategy space at the top grade falls in the model's
    band."""
    docs = []
    for i in range(count):
        n = 2 + i % 4
        low, high = CERTIFY_HEAVY if n >= 4 and (i // 4) % 2 == 0 else CERTIFY_LIGHT
        while True:
            doc = random_model(rng, n, CERTIFY_MODEL)
            if low <= count_strategies(doc, max(CERTIFY_GRADES)) <= high:
                break
        docs.append(doc)
    return docs


def selfloop_chain() -> dict:
    """ROADMAP item 1's second case: a chain that stays put with
    probability 0.9999, so value iteration creeps towards 1."""
    return {
        "states": ["q", "goal"],
        "initial": "q",
        "labels": {"goal": ["goal"]},
        "edges": [
            {"from": "q", "to": "q", "prob": "0.9999", "cost": 1},
            {"from": "q", "to": "goal", "prob": "0.0001", "cost": 1},
            {"from": "goal", "to": "goal", "prob": "1", "cost": 1},
        ],
    }


# Formula-level certify queries: (model key, formula text). The two
# ROADMAP item-1 cases are wrong at the seed commit and stay in on purpose.
CERTIFY_FORMULAS = [
    ("attack-graph", "<<4 < 0.1>> F (r2 | r3)"),
    ("attack-graph", "<<5 < 0.2>> F r3"),
    ("chain", "<<1 < 0.5>> F goal"),
    ("chain", "<<0 >= 1>> F goal"),
    ("selfloop", "<<0 < 0.9999995>> F goal"),
]
