import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylinder import cylinder_measure
from potl import oracle
from potl.engine import check
from potl.generate import corpus, random_pots, scaling_model
from potl.model import ModelError, Pots, dumps_model, edges_of, loads_model, prune
from potl.obstruction import MemorylessStrategy, empty_strategy
from potl.oracle import (
    EnumerationLimit,
    count_strategies,
    enumerate_strategies,
    exact_bounded_by_paths,
    exact_prob,
    oracle_optimum,
    oracle_query_values,
    oracle_sat,
    removal_options,
    step_optimum,
)
from potl.syntax import (
    FALSE,
    TRUE,
    Atom,
    BoundedRelease,
    BoundedUntil,
    Next,
    Release,
    Until,
    parse,
)
from test_acceptance import TOLERANCE


def label_sets(model):
    return (
        frozenset(q for q in model.states if "a" in model.label_of(q)),
        frozenset(q for q in model.states if "b" in model.label_of(q)),
    )


class TestCylinder:
    def test_single_state_prefix_has_full_measure(self, chain):
        assert cylinder_measure(chain, ["q"]) == 1

    def test_one_step(self, chain):
        assert cylinder_measure(chain, ["q", "goal"]) == Fraction(1, 2)

    def test_two_steps(self, chain):
        assert cylinder_measure(chain, ["q", "q", "goal"]) == Fraction(1, 4)

    def test_invalid_step_rejected(self, chain):
        with pytest.raises(ModelError):
            cylinder_measure(chain, ["goal", "q"])

    def test_empty_prefix_rejected(self, chain):
        with pytest.raises(ModelError):
            cylinder_measure(chain, [])


class TestEnumeration:
    def test_single_successor_states_admit_one_strategy(self):
        m = Pots.build(
            ["a", "b"], "a", [("a", "b", 1, 1), ("b", "b", 1, 1)]
        )
        assert list(enumerate_strategies(m, 5)) == [
            MemorylessStrategy(grade=5, removal={})
        ]

    def test_chain_grade_one_has_three_strategies(self, chain):
        strategies = list(enumerate_strategies(chain, 1))
        assert len(strategies) == 3
        removals = {frozenset(s.all_removed()) for s in strategies}
        assert removals == {
            frozenset(),
            frozenset({("q", "q")}),
            frozenset({("q", "goal")}),
        }

    def test_zero_budget_with_positive_costs_is_single(self, chain):
        assert len(list(enumerate_strategies(chain, 0))) == 1

    def test_limit_enforced_before_enumeration(self):
        rng = random.Random(5)
        m = random_pots(rng, n_states=6, max_cost=0)
        with pytest.raises(EnumerationLimit):
            list(enumerate_strategies(m, 4, limit=10))

    def test_removal_options_start_with_empty(self, chain):
        assert removal_options(chain, "q", 1)[0] == ()


def all_subsets_within(model, q, budget):
    """Every strict subset of the row, filtered by cost afterwards."""
    row = model.row(q)
    return [
        tuple(row.edges[i] for i in combo)
        for size in range(len(row.edges))
        for combo in itertools.combinations(range(len(row.edges)), size)
        if sum(row.costs[i] for i in combo) <= budget
    ]


def fan(degree, cost):
    """A hub with ``degree`` equally likely edges of one cost, each into a
    self-looping state; the first is the goal."""
    targets = [f"t{i}" for i in range(degree)]
    return Pots.build(
        ["hub"] + targets,
        "hub",
        [("hub", t, Fraction(1, degree), cost) for t in targets]
        + [(t, t, 1, 0) for t in targets],
        labels={"t0": ["goal"]},
    )


class TestRemovalOptions:
    def test_only_affordable_sets_are_walked(self):
        model = fan(30, 5)
        start = time.perf_counter()
        assert removal_options(model, "hub", 0) == [()]
        result = oracle_optimum(
            model, Until(TRUE, Atom("goal")), frozenset(model.states),
            frozenset({"t0"}), 0, "min",
        )
        assert time.perf_counter() - start < 0.5
        assert result.values["hub"] == Fraction(1, 30)
        assert len(removal_options(model, "hub", 10)) == 1 + 30 + 435

    def test_order_and_sets_are_those_of_the_unpruned_list(self):
        rng = random.Random(17)
        models = corpus(2024, 200) + [
            random_pots(rng, n_states=9, max_out_degree=8) for _ in range(10)
        ]
        for model in models:
            for q in model.states:
                for budget in (0, 1, 2, 4, 7):
                    assert removal_options(model, q, budget) == all_subsets_within(
                        model, q, budget
                    )


def free_goal(degree):
    """s splits between goal and a sink; goal, pinned to 1 for ``F goal``,
    has ``degree`` free edges into self-looping states."""
    targets = [f"t{i}" for i in range(degree)]
    return Pots.build(
        ["s", "goal", *targets],
        "s",
        [("s", "goal", Fraction(1, 2), 1), ("s", "t0", Fraction(1, 2), 1)]
        + [("goal", t, Fraction(1, degree), 0) for t in targets]
        + [(t, t, 1, 0) for t in targets],
        labels={"goal": ["goal"]},
    )


class TestOptionCounts:
    def test_pinned_state_options_are_counted_not_listed(self):
        model = free_goal(18)
        start = time.perf_counter()
        result = oracle_optimum(
            model, Until(TRUE, Atom("goal")), frozenset(model.states),
            frozenset({"goal"}), 0, "min",
        )
        assert time.perf_counter() - start < 0.1
        assert result.values["s"] == Fraction(1, 2)
        assert count_strategies(model, 0) == 2**18 - 1

    def test_limit_still_counts_the_full_product(self):
        model = free_goal(20)
        start = time.perf_counter()
        with pytest.raises(EnumerationLimit) as exc:
            oracle_optimum(
                model, Until(TRUE, Atom("goal")), frozenset(model.states),
                frozenset({"goal"}), 0, "min",
            )
        assert time.perf_counter() - start < 0.1
        assert str(exc.value) == (
            "1048575 strategies exceed the enumeration limit of 1000000"
        )

    def test_counts_equal_the_listed_options(self):
        rng = random.Random(23)
        models = corpus(2024, 200) + [
            random_pots(rng, n_states=9, max_out_degree=8) for _ in range(10)
        ]
        # a state without edges keeps its one option
        first = models[0]
        models.append(prune(first, edges_of(first, first.states[0])))
        for model in models:
            for budget in (0, 1, 2, 4, 7):
                assert count_strategies(model, budget) == math.prod(
                    len(removal_options(model, q, budget)) for q in model.states
                )


class TestExactProb:
    def test_geometric_chain_reaches_goal_surely(self, chain):
        values = exact_prob(
            chain,
            empty_strategy(),
            Until(TRUE, Atom("goal")),
            frozenset(chain.states),
            frozenset({"goal"}),
        )
        assert values["q"] == 1
        assert values["goal"] == 1

    def test_severed_goal_edge_gives_exact_zero(self, chain):
        cut = MemorylessStrategy(grade=1, removal={"q": frozenset({("q", "goal")})})
        values = exact_prob(
            chain, cut, Until(TRUE, Atom("goal")),
            frozenset(chain.states), frozenset({"goal"}),
        )
        assert values["q"] == 0

    def test_globally_true_has_full_measure_unpruned(self, chain):
        values = exact_prob(
            chain, empty_strategy(), Release(FALSE, TRUE),
            frozenset(), frozenset(chain.states),
        )
        assert values == {"q": 1, "goal": 1}

    def test_globally_true_loses_pruned_mass(self, chain):
        cut = MemorylessStrategy(grade=1, removal={"q": frozenset({("q", "goal")})})
        values = exact_prob(
            chain, cut, Release(FALSE, TRUE), frozenset(), frozenset(chain.states)
        )
        assert values["q"] == 0  # the self-loop mass thins out forever
        cut = MemorylessStrategy(grade=1, removal={"q": frozenset({("q", "q")})})
        values = exact_prob(
            chain, cut, Release(FALSE, TRUE), frozenset(), frozenset(chain.states)
        )
        assert values["q"] == Fraction(1, 2)

    def test_bounded_until_counts_prefixes(self, chain):
        values = exact_prob(
            chain, empty_strategy(), BoundedUntil(TRUE, Atom("goal"), 2),
            frozenset(chain.states), frozenset({"goal"}),
        )
        assert values["q"] == Fraction(3, 4)

    def test_release_with_reachable_left_operand(self):
        # q sits in sat2 only; r satisfies both; s breaks out of sat2
        m = Pots.build(
            ["q", "r", "s"],
            "q",
            [
                ("q", "r", Fraction(1, 2), 1),
                ("q", "s", Fraction(1, 4), 1),
                ("q", "q", Fraction(1, 4), 1),
                ("r", "r", 1, 0),
                ("s", "s", 1, 0),
            ],
        )
        values = exact_prob(
            m, empty_strategy(), Release(Atom("both"), Atom("ok")),
            frozenset({"r"}), frozenset({"q", "r"}),
        )
        # from q: geometric sum of (1/4)^k * 1/2 = 2/3
        assert values["q"] == Fraction(2, 3)
        assert values["r"] == 1
        assert values["s"] == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_bounded_recursions_match_path_enumeration(self, seed):
        rng = random.Random(seed)
        model = random_pots(rng, n_states=rng.randint(2, 4))
        sat1, sat2 = label_sets(model)
        strategies = list(enumerate_strategies(model, 2, limit=10**5))
        strategy = rng.choice(strategies)
        for theta in (
            Next(Atom("b")),
            BoundedUntil(Atom("a"), Atom("b"), 3),
            BoundedRelease(Atom("a"), Atom("b"), 3),
        ):
            values = exact_prob(model, strategy, theta, sat1, sat2)
            for q in model.states:
                direct = exact_bounded_by_paths(model, strategy, theta, sat1, sat2, q)
                assert values[q] == direct

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_unbounded_release_is_limit_of_bounded(self, seed):
        rng = random.Random(seed)
        model = random_pots(rng, n_states=3)
        sat1, sat2 = label_sets(model)
        strategy = rng.choice(list(enumerate_strategies(model, 1, limit=500)))
        exact = exact_prob(model, strategy, Release(Atom("a"), Atom("b")), sat1, sat2)
        approx = exact_prob(
            model, strategy, BoundedRelease(Atom("a"), Atom("b"), 300), sat1, sat2
        )
        for q in model.states:
            assert abs(exact[q] - approx[q]) < Fraction(1, 10**6)

    def test_goal_many_hops_away_is_reached(self):
        line = [f"s{i}" for i in range(8)]
        m = Pots.build(
            line + ["goal"],
            "s0",
            [(q, q, "0.5", 0) for q in line]
            + [(q, r, "0.5", 0) for q, r in zip(line, line[1:] + ["goal"])]
            + [("goal", "goal", 1, 0)],
        )
        values = exact_prob(
            m, empty_strategy(), Until(TRUE, Atom("goal")),
            frozenset(m.states), frozenset({"goal"}),
        )
        assert values == {q: 1 for q in m.states}

    def test_removing_a_missing_edge_rejected(self, chain):
        ghost = MemorylessStrategy(
            grade=1, removal={"goal": frozenset({("goal", "q")})}
        )
        with pytest.raises(ModelError, match="non-existent edge"):
            exact_prob(
                chain, ghost, Until(TRUE, Atom("goal")),
                frozenset(chain.states), frozenset({"goal"}),
            )

    def test_values_stay_in_unit_interval_and_canonical(self, chain):
        values = exact_prob(
            chain, empty_strategy(), Until(TRUE, Atom("goal")),
            frozenset(chain.states), frozenset({"goal"}),
        )
        for v in values.values():
            assert 0 <= v <= 1
            assert v.denominator > 0


class TestOptima:
    def test_single_strategy_instance_equals_exact_prob(self):
        m = Pots.build(["a", "b"], "a", [("a", "b", 1, 1), ("b", "b", 1, 1)])
        theta = Until(TRUE, Atom("done"))
        sat2 = frozenset({"b"})
        result = oracle_optimum(m, theta, frozenset(m.states), sat2, 0, "min")
        direct = exact_prob(m, empty_strategy(), theta, frozenset(m.states), sat2)
        assert dict(result.values) == direct

    def test_chain_min_reaches_zero_with_budget_one(self, chain):
        theta = Until(TRUE, Atom("goal"))
        result = oracle_optimum(
            chain, theta, frozenset(chain.states), frozenset({"goal"}), 1, "min"
        )
        assert result.values["q"] == 0
        witness = result.witnesses["q"]
        assert witness.removed("q") == {("q", "goal")}

    def test_max_is_attained_by_the_empty_strategy(self, chain):
        theta = Until(TRUE, Atom("goal"))
        result = oracle_optimum(
            chain, theta, frozenset(chain.states), frozenset({"goal"}), 1, "max"
        )
        empty = exact_prob(
            chain, empty_strategy(), theta, frozenset(chain.states), frozenset({"goal"})
        )
        assert dict(result.values) == empty

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_optimum_sandwich(self, seed):
        rng = random.Random(seed)
        model = random_pots(rng, n_states=3)
        sat1, sat2 = label_sets(model)
        theta = Until(Atom("a"), Atom("b"))
        strategies = list(enumerate_strategies(model, 2, limit=500))
        lo = oracle_optimum(model, theta, sat1, sat2, 2, "min").values
        hi = oracle_optimum(model, theta, sat1, sat2, 2, "max").values
        for strategy in strategies:
            mid = exact_prob(model, strategy, theta, sat1, sat2)
            for q in model.states:
                assert lo[q] <= mid[q] <= hi[q]

    def test_step_optimum_next_matches_enumeration(self, chain):
        sat2 = frozenset({"goal"})
        stepped = step_optimum(chain, Next(Atom("goal")), frozenset(), sat2, 1, "min")
        enumerated = oracle_optimum(
            chain, Next(Atom("goal")), frozenset(), sat2, 1, "min"
        ).values
        assert stepped == dict(enumerated)

    def test_rechoosing_per_step_can_beat_every_stationary_strategy(self):
        # q can afford to cut only one of its two expensive edges; the best
        # cut flips between horizons (a pays immediately, b pays one step
        # later), so the per-step optimum undercuts every single memoryless
        # choice; bounded engine values follow the per-step semantics
        m = Pots.build(
            ["q", "a", "b", "d"],
            "q",
            [
                ("q", "a", Fraction(45, 100), 2),
                ("q", "b", Fraction(50, 100), 2),
                ("q", "q", Fraction(5, 100), 3),
                ("a", "a", 1, 9),
                ("b", "d", 1, 9),
                ("d", "d", 1, 9),
            ],
        )
        sat1 = frozenset({"q", "b"})
        sat2 = frozenset({"a", "d"})
        theta = BoundedUntil(Atom("l"), Atom("r"), 2)
        stepped = step_optimum(m, theta, sat1, sat2, 2, "min")
        stationary = oracle_optimum(m, theta, sat1, sat2, 2, "min").values
        assert stepped["q"] == Fraction(45, 100)
        assert stationary["q"] == Fraction(4725, 10000)
        assert stepped["q"] < stationary["q"]


VIEW_THETAS = (
    Next(Atom("b")),
    BoundedUntil(Atom("a"), Atom("b"), 3),
    Until(Atom("a"), Atom("b")),
    BoundedRelease(Atom("a"), Atom("b"), 3),
    Release(Atom("a"), Atom("b")),
)
# four models of 4-5 states, each labelling states with a, b and both;
# 9 to 126 strategies at grade 4
VIEW_MODELS = corpus(271, 4, min_states=3)
# at grade 1, cutting q's edge to g1 or to g2 leaves X b worth 1/3 either
# way, and cutting s ties the empty removal's 2/3: each optimum keeps the
# first of its two tied rows (VIEW_MODELS has such ties at X too)
TIED_MODEL = Pots.build(
    ["q", "g1", "g2", "s"],
    "q",
    [("q", r, Fraction(1, 3), 1) for r in ("g1", "g2", "s")]
    + [(r, r, 1, 0) for r in ("g1", "g2", "s")],
    labels={"g1": ["b"], "g2": ["b"]},
)


class TestSurvivorRows:
    """The oracle evaluates strategies on per-state surviving rows; these
    pin it to the pruned model and to the plain pointwise enumeration."""

    @pytest.mark.parametrize("model", VIEW_MODELS)
    def test_rows_match_the_pruned_model(self, model):
        sat1, sat2 = label_sets(model)
        for grade in (0, 1, 2, 4):
            for strategy in enumerate_strategies(model, grade):
                pruned = prune(model, strategy.all_removed())
                for theta in VIEW_THETAS:
                    assert exact_prob(model, strategy, theta, sat1, sat2) == exact_prob(
                        pruned, empty_strategy(), theta, sat1, sat2
                    )

    @pytest.mark.parametrize("model", [*VIEW_MODELS, TIED_MODEL])
    def test_optimum_is_the_first_attaining_pointwise_loop(self, model):
        sat1, sat2 = label_sets(model)
        for grade in (0, 1, 2, 4):
            for mode in ("min", "max"):
                for theta in VIEW_THETAS:
                    best, witness = first_attaining(model, theta, sat1, sat2, grade, mode)
                    result = oracle_optimum(model, theta, sat1, sat2, grade, mode)
                    assert dict(result.values) == best
                    assert dict(result.witnesses) == witness


def first_attaining(model, theta, sat1, sat2, grade, mode):
    """The pointwise optimum over the full enumeration, each state's
    witness the first strategy to attain it."""
    better = (lambda v, w: v < w) if mode == "min" else (lambda v, w: v > w)
    best, witness = {}, {}
    for strategy in enumerate_strategies(model, grade):
        values = exact_prob(model, strategy, theta, sat1, sat2)
        for q, v in values.items():
            if q not in best or better(v, best[q]):
                best[q] = v
                witness[q] = strategy
    return best, witness


# s0 and s1 carry a, g and h carry b, w carries both and x neither, so the
# until frame is {s0, s1} and the release frame {g, h}. From grade 1 on,
# every state has two to seven removal options; x's edges are free, so it
# has three even at grade 0.
FRAME_MODEL = Pots.build(
    ["s0", "s1", "g", "h", "w", "x"],
    "s0",
    [
        ("s0", "s1", Fraction(1, 2), 1),
        ("s0", "g", Fraction(1, 4), 2),
        ("s0", "x", Fraction(1, 4), 1),
        ("s1", "s0", Fraction(1, 3), 1),
        ("s1", "h", Fraction(2, 3), 1),
        ("g", "h", Fraction(1, 2), 1),
        ("g", "w", Fraction(1, 2), 2),
        ("h", "g", Fraction(1, 2), 1),
        ("h", "h", Fraction(1, 2), 2),
        ("w", "w", Fraction(1, 2), 1),
        ("w", "s1", Fraction(1, 2), 1),
        ("x", "x", Fraction(1, 2), 0),
        ("x", "s0", Fraction(1, 2), 0),
    ],
    labels={"s0": ["a"], "s1": ["a"], "g": ["b"], "h": ["b"], "w": ["a", "b"]},
)
FRAMES = {
    Until(Atom("a"), Atom("b")): ("s0", "s1"),
    Release(Atom("a"), Atom("b")): ("g", "h"),
}


class TestFrameWalk:
    """A minimum walks only the removal options of its frame's
    undetermined states; the others keep the empty removal. A maximum
    walks none."""

    @pytest.mark.parametrize("theta", FRAMES, ids=("U", "R"))
    def test_one_evaluation_per_choice_inside_the_frame(self, theta, monkeypatch):
        calls = []
        evaluate = oracle._fixed_values
        monkeypatch.setattr(
            oracle, "_fixed_values", lambda *args: calls.append(1) or evaluate(*args)
        )
        sat1, sat2 = label_sets(FRAME_MODEL)
        for grade in (0, 1, 2, 4):
            calls.clear()
            oracle_optimum(FRAME_MODEL, theta, sat1, sat2, grade, "min")
            assert len(calls) == math.prod(
                len(removal_options(FRAME_MODEL, q, grade)) for q in FRAMES[theta]
            )
            assert len(calls) < count_strategies(FRAME_MODEL, grade)
            calls.clear()
            oracle_optimum(FRAME_MODEL, theta, sat1, sat2, grade, "max")
            assert len(calls) == 1

    @pytest.mark.parametrize("theta", FRAMES, ids=("U", "R"))
    def test_optimum_is_that_of_the_full_enumeration(self, theta):
        sat1, sat2 = label_sets(FRAME_MODEL)
        for grade in (0, 1, 2, 4):
            for mode in ("min", "max"):
                best, witness = first_attaining(FRAME_MODEL, theta, sat1, sat2, grade, mode)
                result = oracle_optimum(FRAME_MODEL, theta, sat1, sat2, grade, mode)
                assert dict(result.values) == best
                assert dict(result.witnesses) == witness
                for strategy in result.witnesses.values():
                    assert set(strategy.removal) <= set(FRAMES[theta])


class TestNextStateByState:
    """Next is optimized state by state, with no strategy product and no
    limit; until and release check the limit before listing any option."""

    def test_next_walks_no_product(self, monkeypatch):
        model = loads_model(dumps_model(scaling_model(40)))
        assert count_strategies(model, 2) > oracle.DEFAULT_LIMIT
        calls = []
        evaluate = oracle._fixed_values
        monkeypatch.setattr(
            oracle, "_fixed_values", lambda *args: calls.append(1) or evaluate(*args)
        )
        sat1, sat2 = label_sets(model)
        theta = Next(Atom("b"))
        for mode in ("min", "max"):
            result = oracle_optimum(model, theta, sat1, sat2, 2, mode)
            assert dict(result.values) == step_optimum(model, theta, sat1, sat2, 2, mode)
            for q, strategy in result.witnesses.items():
                assert set(strategy.removal) <= {q}
        assert calls == []

    def test_limit_is_checked_before_options_are_listed(self):
        # h's 20 free edges lead to states that reach goal: h is in the
        # frame with 2**20 - 1 removal options
        targets = [f"t{i}" for i in range(20)]
        edges = [("h", t, Fraction(1, 20), 0) for t in targets]
        edges += [(t, "goal", 1, 1) for t in targets] + [("goal", "goal", 1, 1)]
        model = Pots.build(["h", *targets, "goal"], "h", edges, labels={"goal": ["goal"]})
        sat1, sat2 = frozenset(model.states), frozenset({"goal"})
        start = time.perf_counter()
        with pytest.raises(EnumerationLimit):
            oracle_optimum(model, Until(TRUE, Atom("goal")), sat1, sat2, 0, "min")
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "optimum, theta",
        [
            (oracle_optimum, Next(Atom("b"))),
            (step_optimum, Next(Atom("b"))),
            (step_optimum, BoundedUntil(Atom("a"), Atom("b"), 2)),
        ],
        ids=["X", "step-X", "step-U<=2"],
    )
    def test_a_state_by_state_limit_names_the_first_state_in_model_order(self, optimum, theta):
        # each of s0..s7 has 15 free removal options; the walk over them
        # follows the model's state order, not the frame set's hash order
        sources = [f"s{i}" for i in range(8)]
        targets = ["goal", "t0", "t1", "t2"]
        edges = [(s, t, Fraction(1, 4), 0) for s in sources for t in targets]
        edges += [(t, t, 1, 0) for t in targets]
        labels = {"goal": ["b"], **{s: ["a"] for s in sources}}
        model = Pots.build([*sources, *targets], "s0", edges, labels=labels)
        sat1, sat2 = label_sets(model)
        with pytest.raises(EnumerationLimit, match="options at s0 exceed"):
            optimum(model, theta, sat1, sat2, 0, "min", limit=2)


class TestRowsOnlyForTheFrame:
    """Survivor rows are built for the frame's undetermined states only."""

    @pytest.fixture
    def rows_built(self, monkeypatch):
        built = []
        survivors = oracle._survivors

        def recording(model, q, removed, den):
            built.append(q)
            return survivors(model, q, removed, den)

        monkeypatch.setattr(oracle, "_survivors", recording)
        return built

    @pytest.mark.parametrize("theta", VIEW_THETAS, ids=("X", "U<=3", "U", "R<=3", "R"))
    def test_rows_lie_inside_the_frame(self, theta, rows_built):
        for model in corpus(2024, 40):
            sat1, sat2 = label_sets(model)
            frame = oracle._frame(model.states, theta, sat1, sat2, None)
            for grade in (0, 2):
                rows_built.clear()
                result = oracle_optimum(model, theta, sat1, sat2, grade, "min")
                assert set(rows_built) <= set(frame.undetermined)
                for strategy in [empty_strategy(grade), *result.witnesses.values()]:
                    rows_built.clear()
                    exact_prob(model, strategy, theta, sat1, sat2)
                    assert set(rows_built) <= set(frame.undetermined)


def rescanned_reachable(rows, targets, through):
    """States with a path to ``targets`` whose intermediate states lie in
    ``through``, by definition: rescan ``through`` until no state joins."""
    reached = set(targets)
    while True:
        new = {q for q in through - reached if any(r in reached for r, _ in rows[q])}
        if not new:
            return reached
        reached |= new


def rescanned_core(rows, den, region):
    """The largest subset of ``region`` that keeps all its mass, by
    definition: drop every leaking state until none leaks."""
    core = set(region)
    while True:
        leaking = {q for q in core if sum(p for r, p in rows[q] if r in core) != den}
        if not leaking:
            return frozenset(core)
        core -= leaking


def reference_fixed_point(states, rows, den, within, ones, greatest):
    """``oracle._fixed_point`` the way it was solved before: the states of
    ``within`` that reach the targets by a graph pass, one ``Fraction``
    solve over them, and for the greatest fixed point the no-leak core of
    ``within`` added to the targets."""
    targets = ones | rescanned_core(rows, den, within) if greatest else ones
    reach = rescanned_reachable(rows, targets, within)
    unknowns = [q for q in states if q in reach and q not in targets]
    index = {q: i for i, q in enumerate(unknowns)}
    matrix = [[Fraction(i == j) for j in range(len(unknowns))] for i in range(len(unknowns))]
    rhs = [Fraction(0)] * len(unknowns)
    for q in unknowns:
        for r, p in rows[q]:
            if r in targets:
                rhs[index[q]] += Fraction(p, den)
            elif r in index:
                matrix[index[q]][index[r]] -= Fraction(p, den)
    values = {q: Fraction(q in targets) for q in states}
    if unknowns:
        values.update(zip(unknowns, rational_gauss_jordan(matrix, rhs)))
    return values


def seeded_rows(rng, states, den):
    """One survivor row per state, with one to three successors; a fifth
    of the rows lose an edge, as under a removal, and keep less than den."""
    rows = {}
    for q in states:
        succ = rng.sample(states, rng.randint(1, min(3, len(states))))
        cuts = sorted(rng.randint(0, den) for _ in succ[1:])
        nums = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
        if rng.random() < 0.2:
            succ, nums = succ[:-1], nums[:-1]
        rows[q] = tuple((r, p) for r, p in zip(succ, nums) if p)
    return rows


class TestFixedPoint:
    """State elimination gives each least and greatest fixed point the
    values of a graph pass plus a rational solve."""

    @staticmethod
    def both(rows, den, within, ones):
        states = sorted({*rows, *(r for row in rows.values() for r, _ in row)})
        within, ones = frozenset(within), frozenset(ones)
        return tuple(
            oracle._fixed_point(states, rows, den, within, ones, greatest)
            for greatest in (False, True)
        )

    def test_seeded_systems_match_the_reference(self):
        rng = random.Random(2024)
        den = 12
        closed = 0
        for _ in range(300):
            states = [f"s{i}" for i in range(rng.randint(1, 12))]
            rows = seeded_rows(rng, states, den)
            within = frozenset(q for q in states if rng.random() < 0.7)
            ones = frozenset(q for q in states if q not in within and rng.random() < 0.4)
            closed += bool(rescanned_core(rows, den, within))
            for greatest in (False, True):
                assert oracle._fixed_point(states, rows, den, within, ones, greatest) == (
                    reference_fixed_point(states, rows, den, within, ones, greatest)
                )
        assert closed > 50

    def test_values_do_not_depend_on_the_order_of_states(self):
        # model order only breaks ties between pivots, so any order gives
        # the same exact values
        rng = random.Random(7)
        den = 12
        for _ in range(100):
            states = [f"s{i}" for i in range(rng.randint(2, 12))]
            rows = seeded_rows(rng, states, den)
            within = frozenset(q for q in states if rng.random() < 0.7)
            ones = frozenset(q for q in states if q not in within and rng.random() < 0.4)
            shuffled = rng.sample(states, len(states))
            for greatest in (False, True):
                assert oracle._fixed_point(states, rows, den, within, ones, greatest) == (
                    oracle._fixed_point(shuffled, rows, den, within, ones, greatest)
                )

    def test_a_large_prime_denominator_stays_exact(self):
        rng = random.Random(11)
        den = 1009
        for _ in range(40):
            states = [f"s{i}" for i in range(rng.randint(10, 25))]
            rows = seeded_rows(rng, states, den)
            within = frozenset(q for q in states if rng.random() < 0.8)
            ones = frozenset(q for q in states if q not in within)
            for greatest in (False, True):
                assert oracle._fixed_point(states, rows, den, within, ones, greatest) == (
                    reference_fixed_point(states, rows, den, within, ones, greatest)
                )

    def test_a_dead_end_is_zero_in_both_fixed_points(self):
        # every edge of d is removed, and e's only edge leaves within
        rows = {"a": (("d", 2), ("g", 2)), "d": (), "e": (("z", 4),)}
        least, greatest = self.both(rows, 4, "ade", "g")
        assert least == greatest == {"a": Fraction(1, 2), "d": 0, "e": 0, "g": 1, "z": 0}

    def test_a_leak_drains_the_chain_behind_it(self):
        rows = {"a": (("b", 4),), "b": (("c", 4),), "c": (("c", 1), ("o", 3))}
        for within in ("abc", "ab"):
            least, greatest = self.both(rows, 4, within, "")
            assert set(least.values()) == set(greatest.values()) == {0}
            least, greatest = self.both(rows, 4, within, "o")
            assert least == greatest
            assert least["a"] == (1 if within == "abc" else 0)

    def test_a_self_loop_is_a_closed_class(self):
        rows = {"a": (("a", 1), ("b", 2), ("z", 1)), "b": (("b", 4),)}
        least, greatest = self.both(rows, 4, "ab", "")
        assert least == {"a": 0, "b": 0, "z": 0}
        assert greatest == {"a": Fraction(2, 3), "b": 1, "z": 0}

    def test_a_cycle_closes_once_one_of_its_states_is_eliminated(self):
        # neither a nor b loops on itself: b's pivot is 0 only after a's
        # equation is substituted into it, or a's after b's
        rows = {"a": (("b", 4),), "b": (("a", 4),), "c": (("a", 2), ("g", 2))}
        least, greatest = self.both(rows, 4, "abc", "g")
        assert least == {"a": 0, "b": 0, "c": Fraction(1, 2), "g": 1}
        assert greatest == {"a": 1, "b": 1, "c": 1, "g": 1}

    def test_a_state_reaching_a_target_and_a_closed_class(self):
        rows = {"s": (("g", 1), ("s", 1), ("t", 1), ("z", 1)), "t": (("t", 4),)}
        least, greatest = self.both(rows, 4, "st", "g")
        assert (least["s"], least["t"]) == (Fraction(1, 3), 0)
        assert (greatest["s"], greatest["t"]) == (Fraction(2, 3), 1)


class TestAtScale:
    """A maximum is one exact solve, so the oracle checks the engine on a
    1,000-state model."""

    @pytest.fixture(scope="class")
    def model(self):
        return scaling_model(1000)

    @pytest.mark.parametrize("path", ["a U b", "F b", "a R b", "G a"])
    def test_max_mode_values_match_the_engine(self, model, path):
        phi = parse(f"<<0 >= 1/2>> {path}")
        exact = oracle_query_values(model, phi)
        values = check(model, phi).values
        assert max(abs(values[q] - exact[q]) for q in model.states) <= TOLERANCE


class TestFormulaLevel:
    def test_attack_graph_matches_golden_file(self, attack_graph, golden_path):
        golden = json.loads(golden_path.read_text())
        for entry in golden["queries"]:
            phi = parse(entry["formula"])
            satisfied = oracle_sat(attack_graph, phi)
            assert sorted(satisfied) == entry["sat"]
            assert (attack_graph.initial in satisfied) == entry["satisfied"]

    def test_boolean_layer(self, chain):
        assert oracle_sat(chain, parse("goal | !goal")) == frozenset(chain.states)
        assert oracle_sat(chain, parse("goal & !goal")) == frozenset()
        assert oracle_sat(chain, parse("goal -> goal")) == frozenset(chain.states)


def rational_gauss_jordan(matrix, rhs):
    """Gauss-Jordan elimination over ``Fraction``, pivoting on the first
    nonzero entry at or below the diagonal: the reference for the oracle's
    state elimination."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular")
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def reference_reach(pruned, through, targets):
    """Probability of reaching ``targets`` through ``through`` only, on a
    pruned model, solved over ``Fraction``."""
    can = set(targets)
    changed = True
    while changed:
        changed = False
        for q in through:
            if q not in can and any(r in can for r in pruned.succ(q)):
                can.add(q)
                changed = True
    unknowns = [q for q in pruned.states if q in can and q not in targets]
    index = {q: i for i, q in enumerate(unknowns)}
    matrix = [[Fraction(i == j) for j in range(len(unknowns))] for i in range(len(unknowns))]
    rhs = [Fraction(0)] * len(unknowns)
    for q in unknowns:
        for r in pruned.succ(q):
            p = pruned.prob_exact(q, r)
            if r in targets:
                rhs[index[q]] += p
            elif r in index:
                matrix[index[q]][index[r]] -= p
    values = {q: Fraction(q in targets) for q in pruned.states}
    if unknowns:
        values.update(zip(unknowns, rational_gauss_jordan(matrix, rhs)))
    return values


def reference_unbounded(model, strategy, theta, sat1, sat2):
    """Until and release under a fixed strategy, over ``Fraction`` on the
    pruned model: reach ``sat2`` through ``sat1 - sat2``; for release,
    reach ``sat1 & sat2`` or the no-leak core of ``sat2 - sat1``."""
    pruned = prune(model, strategy.all_removed())
    if isinstance(theta, Until):
        return reference_reach(pruned, sat1 - sat2, sat2)
    within = sat2 - sat1
    values = reference_reach(pruned, within, sat1 & sat2)
    core = set(within)
    while any(
        sum((pruned.prob_exact(q, r) for r in pruned.succ(q) if r in core), Fraction(0)) != 1
        for q in core
    ):
        core = {
            q for q in core
            if sum((pruned.prob_exact(q, r) for r in pruned.succ(q) if r in core), Fraction(0)) == 1
        }
    if core:
        forever = reference_reach(pruned, within, frozenset(core))
        for q in within:
            values[q] += forever[q]
    return values


def seeded_strategy(rng, model, grade):
    """A memoryless strategy with a seeded random removal option per state."""
    removal = {}
    for q in model.states:
        removed = rng.choice(removal_options(model, q, grade))
        if removed:
            removal[q] = frozenset(removed)
    return MemorylessStrategy(grade=grade, removal=removal)


# den = lcm(7, 11, 13) = 1001. Until(a, b) solves the 2-state cycle {s, t};
# release(a, b) runs through {u, x}, where x is the no-leak core.
COPRIME = Pots.build(
    ["s", "t", "u", "goal", "x", "z"],
    "s",
    [
        ("s", "t", Fraction(3, 7), 1),
        ("s", "s", Fraction(1, 7), 1),
        ("s", "z", Fraction(3, 7), 2),
        ("t", "s", Fraction(5, 11), 1),
        ("t", "u", Fraction(4, 11), 2),
        ("t", "t", Fraction(2, 11), 1),
        ("u", "u", Fraction(1, 13), 1),
        ("u", "goal", Fraction(5, 13), 2),
        ("u", "t", Fraction(4, 13), 1),
        ("u", "x", Fraction(3, 13), 1),
        ("goal", "goal", 1, 0),
        ("x", "x", 1, 0),
        ("z", "z", 1, 0),
    ],
    labels={"s": ["a"], "t": ["a"], "u": ["b"], "goal": ["a", "b"], "x": ["b"]},
)


def reference_step_optimum(model, theta, sat1, sat2, grade, mode):
    """Backward induction over ``Fraction`` on pruned models, re-choosing
    the removal at every step."""
    pick = min if mode == "min" else max
    frame = sat1 - sat2 if isinstance(theta, BoundedUntil) else sat2 - sat1
    pruned = {
        q: [prune(model, removed) for removed in removal_options(model, q, grade)]
        for q in frame
    }
    x = {q: Fraction(q in sat2) for q in model.states}
    for _ in range(theta.bound):
        x = {
            q: pick(
                sum((m.prob_exact(q, r) * x[r] for r in m.succ(q)), Fraction(0))
                for m in pruned[q]
            )
            if q in frame
            else x[q]
            for q in model.states
        }
    return x


# corpus(2024, 200) x grades {0, 1, 2, 4}, the 779 of 800 instances whose
# full enumeration is at most 200 strategies
SMALL_INSTANCES = [
    (model, grade)
    for model in corpus(2024, 200)
    for grade in (0, 1, 2, 4)
    if count_strategies(model, grade) <= 200
]


class TestMaximizerRemovesNothing:
    """The maximizer reads the empty removal alone; the full enumeration
    agrees with it, values and witnesses."""

    def test_memoryless_maximum_is_that_of_the_enumeration(self):
        assert len(SMALL_INSTANCES) == 779
        for model, grade in SMALL_INSTANCES:
            sat1, sat2 = label_sets(model)
            for theta in (
                Next(Atom("b")),
                Until(Atom("a"), Atom("b")),
                Release(Atom("a"), Atom("b")),
            ):
                best, witness = first_attaining(model, theta, sat1, sat2, grade, "max")
                result = oracle_optimum(model, theta, sat1, sat2, grade, "max")
                assert dict(result.values) == best
                assert dict(result.witnesses) == witness

    def test_step_maximum_is_that_of_the_enumeration(self):
        for model, grade in SMALL_INSTANCES:
            sat1, sat2 = label_sets(model)
            for theta in (
                BoundedUntil(Atom("a"), Atom("b"), 3),
                BoundedRelease(Atom("a"), Atom("b"), 3),
            ):
                assert step_optimum(model, theta, sat1, sat2, grade, "max") == (
                    reference_step_optimum(model, theta, sat1, sat2, grade, "max")
                )


class TestIntegerArithmetic:
    """The oracle computes over integer numerators of one common
    denominator; these check it against references over ``Fraction``."""

    def test_unbounded_values_match_the_rational_reference(self):
        rng = random.Random(2024)
        for model in corpus(2024, 40):
            sat1, sat2 = label_sets(model)
            for grade in (0, 1, 2, 4):
                strategy = seeded_strategy(rng, model, grade)
                for theta in (Until(Atom("a"), Atom("b")), Release(Atom("a"), Atom("b"))):
                    assert exact_prob(model, strategy, theta, sat1, sat2) == (
                        reference_unbounded(model, strategy, theta, sat1, sat2)
                    )

    def test_coprime_denominators(self):
        assert oracle._denominator(COPRIME, COPRIME.states) == 1001
        sat1, sat2 = label_sets(COPRIME)
        strategies = list(enumerate_strategies(COPRIME, 2))
        assert len(strategies) > 50
        for strategy in strategies:
            for theta in (Until(Atom("a"), Atom("b")), Release(Atom("a"), Atom("b"))):
                assert exact_prob(COPRIME, strategy, theta, sat1, sat2) == (
                    reference_unbounded(COPRIME, strategy, theta, sat1, sat2)
                )
            for theta in (
                Next(Atom("b")),
                BoundedUntil(Atom("a"), Atom("b"), 4),
                BoundedRelease(Atom("a"), Atom("b"), 4),
            ):
                values = exact_prob(COPRIME, strategy, theta, sat1, sat2)
                for q in COPRIME.states:
                    assert values[q] == exact_bounded_by_paths(
                        COPRIME, strategy, theta, sat1, sat2, q
                    )

    def test_coprime_values_are_not_trivial(self):
        sat1, sat2 = label_sets(COPRIME)
        until = exact_prob(COPRIME, empty_strategy(), Until(Atom("a"), Atom("b")), sat1, sat2)
        release = exact_prob(
            COPRIME, empty_strategy(), Release(Atom("a"), Atom("b")), sat1, sat2
        )
        # s = 1/7 s + 3/7 t and t = 5/11 s + 2/11 t + 4/11
        assert until["s"] == Fraction(4, 13) and until["t"] == Fraction(8, 13)
        # u = 1/13 u + 5/13 + 3/13, through goal or into the core x
        assert release["u"] == Fraction(2, 3) and release["x"] == 1

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_coprime_optima(self, mode):
        sat1, sat2 = label_sets(COPRIME)
        for grade in (0, 1, 2, 4):
            for theta in VIEW_THETAS:
                best, witness = first_attaining(COPRIME, theta, sat1, sat2, grade, mode)
                result = oracle_optimum(COPRIME, theta, sat1, sat2, grade, mode)
                assert dict(result.values) == best
                assert dict(result.witnesses) == witness
            for theta in (
                BoundedUntil(Atom("a"), Atom("b"), 5),
                BoundedRelease(Atom("a"), Atom("b"), 5),
            ):
                assert step_optimum(COPRIME, theta, sat1, sat2, grade, mode) == (
                    reference_step_optimum(COPRIME, theta, sat1, sat2, grade, mode)
                )
