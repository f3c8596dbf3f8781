import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potl.generate import random_pots
from potl.model import (
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

    def test_validate_is_side_effect_free(self):
        m = two_state()
        first = validate(m)
        assert validate(m) == first == []

    def test_tolerance_accepts_tiny_row_error(self):
        m = Pots.build(
            ["q"], "q", [("q", "q", Fraction(10**9 - 1, 10**9), 0)]
        )
        assert validate(m) == []


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
        for r, (num, den) in zip(row.succ, row.ratios):
            assert den & (den - 1) == 0
            assert Fraction(num, den) == Fraction(m.trans("q", r))

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
        m = two_state()
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
