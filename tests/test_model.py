import json
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potl.generate import random_pots
from potl.model import (
    MAX_COST,
    ModelError,
    Pots,
    dumps_model,
    edges_of,
    fraction_to_decimal,
    loads_model,
    prune,
    validate,
)


def two_state():
    return Pots.build(
        states=["a", "b"],
        initial="a",
        edges=[("a", "b", 1, 0), ("b", "b", 1, 0)],
        labels={"b": ["done"]},
    )


def abc_chain():
    return Pots.build(
        states=["a", "b", "c"],
        initial="a",
        edges=[("a", "b", 1, 1), ("b", "c", 1, 1), ("c", "c", 1, 1)],
    )


def _document():
    return {
        "states": ["S0", "S1", "S2"],
        "initial": "S0",
        "labels": {"S1": ["r1"]},
        "edges": [
            {"from": "S0", "to": "S1", "prob": "0.5", "cost": 1},
            {"from": "S0", "to": "S2", "prob": "0.5", "cost": 2},
            {"from": "S1", "to": "S1", "prob": "1", "cost": 0},
            {"from": "S2", "to": "S2", "prob": "1", "cost": 0},
        ],
    }


def _top(**changes):
    return lambda doc: doc.update(changes)


def _drop(key):
    return lambda doc: doc.pop(key)


def _edge(i, **changes):
    return lambda doc: doc["edges"][i].update(changes)


def _drop_edge_keys(i, *keys):
    def mutate(doc):
        for key in keys:
            del doc["edges"][i][key]
    return mutate


def _append_edge(**changes):
    return lambda doc: doc["edges"].append(dict(doc["edges"][0], **changes))


def _all(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


_DECIMAL = 'edges[{}]: prob must be a plain decimal string like "0.25", got {}'
_COST = "edges[{}]: cost must be a non-negative integer"
_ENDPOINT = "edges[{}]: endpoint not in declared states"
_ZERO = "edge ('S0', '{}'): probability must be positive (omit absent edges)"

# every contract violation of the loader with the exact text it reports;
# where a document breaks several rules, the first reported is named
LOADER_ERRORS = [
    ("unknown key", _top(extra=1), "unknown keys in model file: ['extra']"),
    ("unknown keys first", _top(zz=1, aa=2, states=5), "unknown keys in model file: ['aa', 'zz']"),
    ("missing states", _drop("states"), "model file missing key 'states'"),
    ("missing initial", _drop("initial"), "model file missing key 'initial'"),
    ("missing edges", _drop("edges"), "model file missing key 'edges'"),
    ("states not a list", _top(states="S0"), '"states" must be a list of strings'),
    ("state not a string", _top(states=["S0", 1]), '"states" must be a list of strings'),
    ("no states", _top(states=[]), "model must have at least one state"),
    ("duplicate state", _top(states=["S0", "S1", "S2", "S1"]), "duplicate entries in state list"),
    ("initial undeclared", _top(initial="S9"), "initial state 'S9' not declared"),
    ("initial not a string", _top(initial=0), "initial state 0 not declared"),
    ("labels not an object", _top(labels=[]), '"labels" must be an object'),
    ("label undeclared", _top(labels={"S9": ["x"]}), "labels reference undeclared state 'S9'"),
    ("label not a list", _top(labels={"S1": "r1"}), "labels of 'S1' must be a list of strings"),
    ("label not a string", _top(labels={"S1": [1]}), "labels of 'S1' must be a list of strings"),
    ("edges not a list", _top(edges={}), '"edges" must be a list'),
    ("edge not an object", _top(edges=[["S0", "S1"]]), "edges[0]: must be an object"),
    ("edge unknown key", _edge(1, weight=1), "edges[1]: unknown keys ['weight']"),
    ("edge missing key", _drop_edge_keys(1, "cost"), "edges[1]: missing keys ['cost']"),
    (
        "edge missing keys",
        _drop_edge_keys(0, "to", "cost"),
        "edges[0]: missing keys ['cost', 'to']",
    ),
    (
        "unknown before missing",
        _all(_drop_edge_keys(0, "cost"), _edge(0, weight=1)),
        "edges[0]: unknown keys ['weight']",
    ),
    ("source undeclared", _edge(2, **{"from": "S9"}), _ENDPOINT.format(2)),
    ("target undeclared", _edge(0, to="S9"), _ENDPOINT.format(0)),
    ("target not a string", _edge(0, to=1), _ENDPOINT.format(0)),
    ("duplicate edge", _append_edge(), "edges[4]: duplicate edge (S0, S1)"),
    ("endpoint before duplicate", _append_edge(to="S9"), _ENDPOINT.format(4)),
    ("duplicate before prob", _append_edge(prob="x"), "edges[4]: duplicate edge (S0, S1)"),
    ("prob a float", _edge(0, prob=0.5), _DECIMAL.format(0, "0.5")),
    ("prob an int", _edge(0, prob=1), _DECIMAL.format(0, "1")),
    ("prob null", _edge(0, prob=None), _DECIMAL.format(0, "None")),
    ("prob a ratio", _edge(0, prob="1/2"), _DECIMAL.format(0, "'1/2'")),
    ("prob an exponent", _edge(0, prob="5e-1"), _DECIMAL.format(0, "'5e-1'")),
    ("prob negative", _edge(0, prob="-0.5"), _DECIMAL.format(0, "'-0.5'")),
    ("prob signed", _edge(0, prob="+0.5"), _DECIMAL.format(0, "'+0.5'")),
    ("prob without whole part", _edge(0, prob=".5"), _DECIMAL.format(0, "'.5'")),
    ("prob without fraction part", _edge(0, prob="1."), _DECIMAL.format(0, "'1.'")),
    ("prob with a space", _edge(0, prob=" 0.5"), _DECIMAL.format(0, "' 0.5'")),
    ("prob with a newline", _edge(0, prob="0.5\n"), _DECIMAL.format(0, "'0.5\\n'")),
    ("prob with an underscore", _edge(0, prob="0.5_0"), _DECIMAL.format(0, "'0.5_0'")),
    ("prob empty", _edge(0, prob=""), _DECIMAL.format(0, "''")),
    ("prob before cost", _edge(0, prob="x", cost=-1), _DECIMAL.format(0, "'x'")),
    ("cost negative", _edge(1, cost=-1), _COST.format(1)),
    ("cost a bool", _edge(1, cost=True), _COST.format(1)),
    ("cost a float", _edge(1, cost=1.0), _COST.format(1)),
    ("cost a string", _edge(1, cost="1"), _COST.format(1)),
    ("cost null", _edge(1, cost=None), _COST.format(1)),
    ("zero prob", _edge(0, prob="0"), _ZERO.format("S1")),
    ("zero prob with decimals", _edge(1, prob="0.000"), _ZERO.format("S2")),
    ("first zero prob", _all(_edge(0, prob="0"), _edge(1, prob="0.0")), _ZERO.format("S1")),
    ("cost after a zero prob", _all(_edge(0, prob="0"), _edge(3, cost=-1)), _COST.format(3)),
    (
        "prob after a zero prob",
        _all(_edge(0, prob="0"), _edge(3, prob="1/1")),
        _DECIMAL.format(3, "'1/1'"),
    ),
    (
        "duplicate after a zero prob",
        _all(_edge(0, prob="0"), _append_edge()),
        "edges[4]: duplicate edge (S0, S1)",
    ),
    (
        "endpoint after a zero prob",
        _all(_edge(0, prob="0"), _edge(3, to="S9")),
        _ENDPOINT.format(3),
    ),
]


class TestValidate:
    def test_well_formed_model_has_empty_report(self):
        assert validate(two_state()) == []

    def test_substochastic_row_reports_stochasticity(self):
        m = Pots.build(
            ["q", "r"], "q", [("q", "r", Fraction(9, 10), 0), ("r", "r", 1, 0)]
        )
        report = validate(m)
        assert any("stochasticity at q" in line for line in report)

    def test_state_without_successor_reports_seriality(self):
        m = Pots.build(["q", "r"], "q", [("q", "r", 1, 0)])
        report = validate(m)
        assert any("seriality at r" in line for line in report)

    def test_oversized_cost_reported(self):
        m = Pots.build(["q"], "q", [("q", "q", 1, 2**32)])
        assert any("cost out of range" in line for line in validate(m))

    @pytest.mark.parametrize("cost", [2.9, True, False, Fraction(2), "2"])
    def test_non_integer_cost_reported(self, cost):
        m = Pots(
            states=("q",),
            initial="q",
            prob={("q", "q"): Fraction(1)},
            labels={},
            cost={("q", "q"): cost},
        )
        assert validate(m) == [f"cost not an integer on edge (q, q): {cost!r}"]

    @pytest.mark.parametrize("cost", [2.9, 2.0, True, False, Fraction(2), "2", None])
    def test_build_rejects_a_non_integer_cost(self, cost):
        with pytest.raises(ModelError, match="cost must be an int"):
            Pots.build(["q"], "q", [("q", "q", 1, cost)])

    def test_validate_is_side_effect_free(self):
        m = two_state()
        first = validate(m)
        assert validate(m) == first == []

    def test_tolerance_accepts_tiny_row_error(self):
        m = Pots.build(
            ["q"], "q", [("q", "q", Fraction(10**9 - 1, 10**9), 0)]
        )
        assert validate(m) == []


TOL = Fraction(1, 10**9)
TINY = Fraction(1, 10**30)


def reference_report(model):
    """What validate reports, stated over Fraction sums of each row."""
    report = []
    if model.initial not in model.states:
        report.append(f"initial state {model.initial!r} not in state set")
    for (q, r), p in model.prob.items():
        if not (0 <= p <= 1):
            report.append(f"probability out of [0,1] on edge ({q}, {r}): {p}")
    for (q, r), c in model.cost.items():
        if not (0 <= c <= MAX_COST):
            report.append(f"cost out of range on edge ({q}, {r}): {c}")
    for q in model.states:
        ps = [model.prob[e] for e in model.row(q).edges]
        row = sum(ps, Fraction(0))
        if abs(row - 1) > TOL:
            report.append(f"stochasticity at {q}: row sums to {float(row)!r}")
        if not any(p > 0 for p in ps):
            report.append(f"seriality at {q}: no positive-probability successor")
    return report


def one_row(*probs):
    """State s with one edge per probability, to absorbing states."""
    targets = [f"t{i}" for i in range(len(probs))]
    prob = {("s", t): Fraction(p) for t, p in zip(targets, probs)}
    prob.update({(t, t): Fraction(1) for t in targets})
    return Pots(
        states=("s", *targets), initial="s", prob=prob, labels={},
        cost={e: 0 for e in prob},
    )


def random_rows_model(rng):
    """Rows of random rationals: sums at 1, at 1 +- 1e-9 and just past it,
    empty rows, zero, negative and above-one probabilities, and costs at
    and past their range."""
    states = [f"s{i}" for i in range(rng.randint(1, 5))]
    deltas = [0, TOL, -TOL, TOL - TINY, -TOL + TINY, TOL + TINY, -TOL - TINY, 3 * TOL]
    dens = [1, 2, 3, 7, 10, 10**9, 2**40, 3 * 10**12 + 1]
    prob, cost = {}, {}
    for q in states:
        targets = rng.sample(states, rng.randint(0, len(states)))
        if targets and rng.random() < 0.7:
            weights = [rng.randint(1, 9) for _ in targets]
            total = Fraction(1 + rng.choice(deltas), sum(weights))
            ps = [w * total for w in weights]
        else:
            ps = [Fraction(rng.randint(0, 15), rng.choice(dens)) for _ in targets]
        if ps and rng.random() < 0.1:
            ps[0] = -ps[0]
        for r, p in zip(targets, ps):
            prob[(q, r)] = p
            cost[(q, r)] = rng.choice([0, 3, MAX_COST, MAX_COST + 1, -1])
    initial = rng.choice(states + ["ghost"])
    return Pots(states=tuple(states), initial=initial, prob=prob, labels={}, cost=cost)


class TestValidateExactRowSums:
    @pytest.mark.parametrize(
        "probs, stochastic",
        [
            ([1], True),
            ([1 - TOL], True),
            ([1 + TOL], True),
            ([1 - TOL - TINY], False),
            ([1 + TOL + TINY], False),
            ([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) - TOL], True),
            ([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) + TOL + TINY], False),
            ([Fraction(1, 7), Fraction(3, 10**9), 1 - Fraction(1, 7)], False),
            ([Fraction(1, 7), Fraction(1, 10**9), 1 - Fraction(1, 7)], True),
            ([Fraction(3, 2), Fraction(-1, 2)], True),
            ([], False),
        ],
    )
    def test_row_sums_at_the_tolerance(self, probs, stochastic):
        m = one_row(*probs)
        report = validate(m)
        assert report == reference_report(m)
        assert (not any("stochasticity at s:" in line for line in report)) == stochastic

    def test_out_of_range_and_empty_rows_are_reported(self):
        m = one_row(Fraction(3, 2), Fraction(-1, 2))
        assert validate(m) == [
            "probability out of [0,1] on edge (s, t0): 3/2",
            "probability out of [0,1] on edge (s, t1): -1/2",
        ]
        assert validate(one_row()) == [
            "stochasticity at s: row sums to 0.0",
            "seriality at s: no positive-probability successor",
        ]

    def test_random_rows_match_the_fraction_reference(self):
        rng = random.Random(20261018)
        reported = set()
        for _ in range(2000):
            m = random_rows_model(rng)
            report = validate(m)
            assert report == reference_report(m)
            reported.update(line.split(" ")[0] for line in report)
        assert reported == {"initial", "probability", "cost", "stochasticity", "seriality"}


class TestAdjacency:
    def test_chain_pre_and_post(self):
        m = abc_chain()
        assert set(m.pred("b")) == {"a"}
        assert set(m.succ("b")) == {"c"}

    def test_self_loop_is_its_own_neighbourhood(self):
        m = Pots.build(["s"], "s", [("s", "s", 1, 0)])
        assert set(m.pred("s")) == set(m.succ("s")) == {"s"}

    def test_edges_follow_state_order(self):
        m = Pots.build(
            ["q", "z", "a"],
            "q",
            [("q", "a", Fraction(1, 2), 0), ("q", "z", Fraction(1, 2), 0), ("z", "z", 1, 0), ("a", "a", 1, 0)],
        )
        assert edges_of(m, "q") == (("q", "z"), ("q", "a"))

    def test_row_holds_edges_costs_and_exact_float_ratios(self):
        m = Pots.build(
            ["q", "z", "a"],
            "q",
            [("q", "a", Fraction(1, 3), 4), ("q", "z", Fraction(2, 3), 1), ("z", "z", 1, 0), ("a", "a", 1, 0)],
        )
        row = m.row("q")
        assert row.edges == edges_of(m, "q") == (("q", "z"), ("q", "a"))
        assert row.succ == m.succ("q") == ("z", "a")
        assert row.costs == (1, 4)
        for r, p in zip(row.succ, row.probs):
            exact = m.prob[("q", r)]
            assert p.hex() == (exact.numerator / exact.denominator).hex()

    def test_unknown_state_rejected(self):
        with pytest.raises(ModelError):
            two_state().pred("nope")
        with pytest.raises(ModelError):
            two_state().row("nope")

    def test_label_on_undeclared_state_rejected(self):
        with pytest.raises(ModelError, match="label for unknown state 'ghost'"):
            Pots(
                states=("a",),
                initial="a",
                prob={("a", "a"): Fraction(1)},
                labels={"a": frozenset({"p"}), "ghost": frozenset({"p"})},
                cost={("a", "a"): 0},
            )
        with pytest.raises(ModelError, match="label for unknown state 'ghost'"):
            Pots.build(["a"], "a", [("a", "a", 1, 0)], {"ghost": ["p"]})

    def test_attack_graph_successors(self, attack_graph):
        assert {"S2", "S3"} <= set(attack_graph.succ("S1"))


class TestPrune:
    def test_empty_removal_is_identity(self):
        m = two_state()
        assert prune(m, []) == m

    def test_removed_mass_leaves_row(self):
        m = Pots.build(
            ["q", "a", "b"],
            "q",
            [
                ("q", "a", Fraction(3, 5), 1),
                ("q", "b", Fraction(2, 5), 1),
                ("a", "a", 1, 0),
                ("b", "b", 1, 0),
            ],
        )
        view = prune(m, [("q", "a")])
        assert view.prob_exact("q", "a") == 0
        assert sum(view.prob_exact("q", r) for r in view.succ("q")) == Fraction(2, 5)
        # original untouched
        assert m.prob_exact("q", "a") == Fraction(3, 5)

    def test_removing_every_outgoing_edge_is_permitted_here(self):
        m = two_state()
        view = prune(m, [("a", "b")])
        assert view.succ("a") == ()

    def test_removing_missing_edge_rejected(self):
        with pytest.raises(ModelError):
            prune(two_state(), [("a", "a")])

    @settings(max_examples=60)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_row_sum_drops_by_exactly_the_removed_mass(self, seed, data):
        m = random_pots(random.Random(seed), n_states=4)
        all_edges = sorted(m.prob)
        removal = data.draw(st.sets(st.sampled_from(all_edges)))
        view = prune(m, removal)
        for q in m.states:
            removed = sum(
                (m.prob_exact(*e) for e in removal if e[0] == q), Fraction(0)
            )
            row = sum(
                (view.prob_exact(q, r) for r in view.succ(q)), Fraction(0)
            )
            assert row == 1 - removed


class TestFileFormat:
    def test_round_trip_exact_for_terminating_probabilities(self):
        # Fraction(0.1) terminates after 55 decimal places, and the second
        # model's edge has 45 digits: both are longer than any fixed cap
        tenth = Fraction(0.1)
        long = "0." + "3" * 44 + "5"
        doc = _document()
        _edge(0, prob=long)(doc)
        _edge(1, prob=fraction_to_decimal(1 - Fraction(long)))(doc)
        models = [
            two_state(),
            Pots.build(
                ["s", "t"],
                "s",
                [("s", "t", tenth, 1), ("s", "s", 1 - tenth, 1), ("t", "t", 1, 0)],
            ),
            loads_model(json.dumps(doc)),
        ]
        for m in models:
            assert validate(m) == []
            again = loads_model(dumps_model(m))
            assert again == m

    def test_round_trip_close_for_repeating_probabilities(self):
        m = Pots.build(
            ["q", "r"],
            "q",
            [
                ("q", "q", Fraction(1, 3), 2),
                ("q", "r", Fraction(2, 3), 5),
                ("r", "r", 1, 0),
            ],
            labels={"r": ["far"]},
        )
        again = loads_model(dumps_model(m))
        assert again.cost == m.cost
        assert again.labels == m.labels
        for e, p in m.prob.items():
            assert abs(again.prob_exact(*e) - p) <= Fraction(1, 10**12)

    @pytest.mark.parametrize("num", [1, 2])
    def test_round_trip_within_rounding_of_zero_and_one(self, num):
        # num/(3*10**20) rounds to 0 at 17 places, and its complement to 1
        tiny = Fraction(num, 3 * 10**20)
        m = Pots.build(
            ["q", "r"], "q", [("q", "r", tiny, 0), ("q", "q", 1 - tiny, 0), ("r", "r", 1, 0)]
        )
        assert validate(m) == []
        again = loads_model(dumps_model(m))
        assert validate(again) == []
        for e, p in m.prob.items():
            assert abs(again.prob_exact(*e) - p) <= p / 10**16

    def test_documented_format_loads(self):
        text = json.dumps(
            {
                "states": ["S0", "S1"],
                "initial": "S0",
                "labels": {"S1": ["r1"]},
                "edges": [
                    {"from": "S0", "to": "S1", "prob": "0.95", "cost": 5},
                    {"from": "S0", "to": "S0", "prob": "0.05", "cost": 0},
                    {"from": "S1", "to": "S1", "prob": "1", "cost": 0},
                ],
            }
        )
        m = loads_model(text)
        assert m.prob_exact("S0", "S1") == Fraction(19, 20)
        assert m.cost_of("S0", "S1") == 5
        assert m.label_of("S1") == {"r1"}

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(extra=1),
            lambda d: d["edges"].append(dict(d["edges"][0])),
            lambda d: d["edges"][0].update({"to": "S9"}),
            lambda d: d["labels"].update({"S9": ["x"]}),
            lambda d: d["edges"][0].update({"prob": 0.5}),
            lambda d: d["edges"][0].update({"prob": "1/2"}),
            lambda d: d["edges"][0].update({"prob": "5e-1"}),
            lambda d: d["edges"][0].update({"prob": "-0.5"}),
            lambda d: d["edges"][0].update({"cost": -1}),
            lambda d: d["edges"][0].update({"cost": True}),
            lambda d: d.pop("initial"),
            lambda d: d["edges"][0].pop("cost"),
        ],
    )
    def test_contract_violations_rejected(self, mutate):
        doc = {
            "states": ["S0", "S1"],
            "initial": "S0",
            "labels": {},
            "edges": [
                {"from": "S0", "to": "S1", "prob": "1", "cost": 1},
                {"from": "S1", "to": "S1", "prob": "1", "cost": 0},
            ],
        }
        mutate(doc)
        with pytest.raises(ModelError):
            loads_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "mutate, message",
        [pytest.param(m, text, id=name) for name, m, text in LOADER_ERRORS],
    )
    def test_loader_reports_the_exact_error(self, mutate, message):
        doc = _document()
        mutate(doc)
        with pytest.raises(ModelError) as exc:
            loads_model(json.dumps(doc))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "{",
                "model file is not valid JSON: Expecting property name enclosed "
                "in double quotes: line 1 column 2 (char 1)",
            ),
            ("[]", "model file must contain a JSON object"),
            ('"S0"', "model file must contain a JSON object"),
            (
                "[" * 100000,
                "model file nests too deeply: maximum recursion depth exceeded "
                "while decoding a JSON array from a unicode string",
            ),
        ],
        ids=["not JSON", "a list", "a string", "too deep"],
    )
    def test_loader_reports_the_exact_document_error(self, text, message):
        with pytest.raises(ModelError) as exc:
            loads_model(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("decimal", ["\u0661", "\u0660.\u0665", "\uff11", "0.\u0665"])
    def test_non_ascii_digits_rejected(self, decimal):
        # int() and Fraction() read any Unicode decimal digit; the format
        # takes ASCII only, so dumps_model writes back what was read
        doc = _document()
        _edge(0, prob=decimal)(doc)
        with pytest.raises(ModelError) as exc:
            loads_model(json.dumps(doc))
        assert str(exc.value) == _DECIMAL.format(0, repr(decimal))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_edge(0, to=["S1"]), _ENDPOINT.format(0)),
            (_edge(1, **{"from": {"S0": 1}}), _ENDPOINT.format(1)),
            (_top(initial=["S0"]), "initial state ['S0'] not declared"),
        ],
        ids=["list target", "object source", "list initial"],
    )
    def test_unhashable_values_rejected(self, mutate, message):
        doc = _document()
        mutate(doc)
        with pytest.raises(ModelError) as exc:
            loads_model(json.dumps(doc))
        assert str(exc.value) == message

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit")
    def test_prob_longer_than_the_digit_limit_names_the_edge(self):
        limit = sys.get_int_max_str_digits()
        doc = _document()
        _edge(1, prob="0." + "0" * limit + "1")(doc)
        with pytest.raises(ModelError) as exc:
            loads_model(json.dumps(doc))
        assert str(exc.value) == (
            f"edges[1]: prob has {limit + 2} digits, more than the "
            f"interpreter's limit of {limit}"
        )

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit")
    def test_prob_at_the_digit_limit_loads_exactly(self):
        limit = sys.get_int_max_str_digits()
        doc = _document()
        _edge(1, prob="0." + "0" * (limit - 2) + "1")(doc)
        model = loads_model(json.dumps(doc))
        assert model.prob[("S0", "S2")] == Fraction(1, 10 ** (limit - 1))

    def test_zero_probability_edge_rejected(self):
        with pytest.raises(ModelError):
            Pots.build(["q"], "q", [("q", "q", 0, 0)])

    def test_float_probability_rejected(self):
        with pytest.raises(ModelError):
            Pots.build(["q"], "q", [("q", "q", 0.5, 0)])


def test_fraction_to_decimal_exact_cases():
    assert fraction_to_decimal(Fraction(297, 4000)) == "0.07425"
    assert fraction_to_decimal(Fraction(1)) == "1"
    assert fraction_to_decimal(Fraction(0)) == "0"
    assert fraction_to_decimal(Fraction(1, 2)) == "0.5"


@pytest.mark.parametrize("places", [41, 10_000])
def test_fraction_to_decimal_writes_every_digit_of_a_long_expansion(places):
    # 5**10_000 has about 7,000 digits, more than str(int) converts by default
    for value in (Fraction(1, 2**places), Fraction(3, 5**places)):
        text = fraction_to_decimal(value)
        assert len(text) == places + 2
        assert Fraction(Decimal(text)) == value
