import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import potl.obstruction
from potl.generate import random_pots
from potl.engine import check
from potl.model import Pots, edges_of, loads_model, prune
from potl.obstruction import (
    CostRangeError,
    MemorylessStrategy,
    _merge,
    _options,
    best_removal,
    can_cut,
    empty_strategy,
    obstruct_pred,
    pre_set,
    strategy_from_json,
    strategy_to_json,
    validate_strategy,
)
from potl.oracle import oracle_optimum, removal_options
from potl.syntax import parse


def star(costs_values):
    """One hub with an edge to each satellite: (cost, value) pairs in."""
    n = len(costs_values)
    states = ["hub"] + [f"t{i}" for i in range(n)]
    weights = [Fraction(w) for _, _, w in costs_values]
    total = sum(weights)
    edges = [
        (f"t{i}", f"t{i}", 1, 0) for i in range(n)
    ] + [
        ("hub", f"t{i}", weights[i] / total, cost)
        for i, (cost, _, _) in enumerate(costs_values)
    ]
    values = {f"t{i}": v for i, (_, v, _) in enumerate(costs_values)}
    values["hub"] = 0.0
    m = Pots.build(states, "hub", edges)
    return m, values


# successor values at the edges of the float range: zero, the smallest
# subnormal, a tiny normal and the float just above one
EDGE_VALUES = [0.0, 5e-324, 1e-300, 1.0000000000000002]


def enumerate_best(model, q, budget, value):
    """Reference optimum: every strict subset, exact arithmetic, ties to
    the lexicographically smallest index tuple."""
    edges = edges_of(model, q)
    weights = [Fraction(float(model.prob[e])) * Fraction(value[e[1]]) for e in edges]
    costs = [model.cost_of(*e) for e in edges]
    total = sum(weights, Fraction(0))
    best = None
    for size in range(len(edges)):
        for combo in itertools.combinations(range(len(edges)), size):
            if sum(costs[i] for i in combo) > budget:
                continue
            surviving = total - sum((weights[i] for i in combo), Fraction(0))
            key = (surviving, combo)
            if best is None or key < best:
                best = key
    surviving, combo = best
    return tuple(edges[i] for i in combo), surviving


def affordable_best(model, q, budget, value):
    """Reference optimum over ``oracle.removal_options``, which lists only
    the strict removal sets within the budget: exact ``Fraction`` weights,
    summed as integers over their common denominator, and ties to the
    lexicographically smallest index tuple."""
    edges = edges_of(model, q)
    weights = [Fraction(float(model.prob[e])) * Fraction(value[e[1]]) for e in edges]
    den = math.lcm(*(w.denominator for w in weights))
    num = {e: int(w * den) for e, w in zip(edges, weights)}
    position = {e: i for i, e in enumerate(edges)}
    removed, combo = min(
        (-sum(map(num.__getitem__, option)), tuple(map(position.__getitem__, option)))
        for option in removal_options(model, q, budget)
    )
    return tuple(edges[i] for i in combo), Fraction(sum(num.values()) + removed, den)


def superincreasing_star(degree):
    """Edge i costs 2**i and leads, with probability proportional to 2**i,
    to a state of value 1: every strict removal set is on the knapsack's
    Pareto front."""
    return star([(2**i, 1.0, 2**i) for i in range(degree)])


class TestSetOperators:
    def test_pre_set_of_empty_is_empty(self, chain):
        assert pre_set(chain, frozenset()) == frozenset()

    def test_pre_set_on_chain(self):
        m = Pots.build(
            ["a", "b", "c"], "a", [("a", "b", 1, 0), ("b", "c", 1, 0), ("c", "c", 1, 0)]
        )
        assert pre_set(m, {"c"}) == {"b", "c"}
        assert pre_set(m, {"b"}) == {"a"}

    def test_pre_set_of_everything_is_everything_on_serial_models(self):
        m = Pots.build(
            ["src", "mid", "end"],
            "src",
            [("src", "mid", 1, 0), ("mid", "end", 1, 0), ("end", "end", 1, 0)],
        )
        assert pre_set(m, set(m.states)) == set(m.states)

    def test_pre_set_of_everything_excludes_dead_states(self):
        # seriality violated at "dead" on purpose: no outgoing edge
        m = Pots.build(["src", "dead"], "src", [("src", "dead", 1, 0)])
        assert pre_set(m, set(m.states)) == {"src"}

    def test_can_cut_within_and_over_budget(self):
        m = Pots.build(
            ["q", "a", "b"],
            "q",
            [
                ("q", "a", Fraction(1, 2), 1),
                ("q", "b", Fraction(1, 2), 5),
                ("a", "a", 1, 0),
                ("b", "b", 1, 0),
            ],
        )
        assert can_cut(m, "q", 1, {"a"})
        assert not can_cut(m, "q", 5, {"a", "b"})
        assert can_cut(m, "q", 6, {"a", "b"})

    def test_can_cut_empty_target_always_true(self, chain):
        for q in chain.states:
            assert can_cut(chain, q, 0, frozenset())

    def test_obstruct_pred_full_set_is_pre_set(self, chain):
        full = frozenset(chain.states)
        assert obstruct_pred(chain, 0, full) == pre_set(chain, full)

    def test_obstruct_pred_empty_set_is_empty(self, chain):
        assert obstruct_pred(chain, 99, frozenset()) == frozenset()

    def test_obstruct_pred_respects_budget(self):
        m = Pots.build(
            ["q", "a", "b"],
            "q",
            [
                ("q", "a", Fraction(1, 2), 2),
                ("q", "b", Fraction(1, 2), 3),
                ("a", "a", 1, 0),
                ("b", "b", 1, 0),
            ],
        )
        assert "q" in obstruct_pred(m, 3, {"a"})
        assert "q" not in obstruct_pred(m, 2, {"a"})

    @settings(max_examples=60)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_monotone_in_budget_and_definitional_identity(self, seed, data):
        m = random_pots(random.Random(seed), n_states=4)
        targets = data.draw(st.frozensets(st.sampled_from(sorted(m.states))))
        lo = data.draw(st.integers(0, 6))
        hi = data.draw(st.integers(lo, 8))
        assert obstruct_pred(m, lo, targets) <= obstruct_pred(m, hi, targets)
        rest = frozenset(m.states) - targets
        expected = frozenset(
            q for q in pre_set(m, targets) if can_cut(m, q, lo, rest)
        )
        assert obstruct_pred(m, lo, targets) == expected


class TestBestRemoval:
    def test_documented_example(self):
        m, values = star([(2, 1.0, 5), (2, 1.0, 3), (1, 1.0, 2)])
        removal, surviving = best_removal(m, "hub", 3, values)
        assert removal == (("hub", "t0"), ("hub", "t2"))
        assert surviving == pytest.approx(0.3)

    def test_zero_budget_keeps_everything(self):
        m, values = star([(2, 1.0, 5), (2, 1.0, 3), (1, 1.0, 2)])
        removal, surviving = best_removal(m, "hub", 0, values)
        assert removal == ()
        assert surviving == pytest.approx(1.0)

    def test_zero_values_prefer_removing_nothing(self):
        m, values = star([(0, 0.0, 1), (0, 0.0, 1)])
        removal, surviving = best_removal(m, "hub", 5, values)
        assert removal == ()
        assert surviving == 0.0

    def test_strictness_keeps_one_edge(self):
        m, values = star([(0, 1.0, 1), (0, 0.5, 1)])
        removal, surviving = best_removal(m, "hub", 10, values)
        assert removal == (("hub", "t0"),)
        assert surviving == pytest.approx(0.25)

    def test_single_edge_cannot_be_removed(self, chain):
        removal, surviving = best_removal(
            chain, "goal", 99, {q: 1.0 for q in chain.states}
        )
        assert removal == ()
        assert surviving == pytest.approx(1.0)

    @settings(max_examples=160, deadline=None)
    @given(seed=st.integers(0, 10**9), zero_one=st.booleans())
    def test_matches_exhaustive_enumeration(self, seed, zero_one):
        # asked twice: with zero_one, every value is 0 or 1, and the second
        # call is answered from the memo
        rng = random.Random(seed)
        degree = rng.randint(1, 8)
        profile = [
            (
                rng.randint(0, 5),
                float(rng.random() < 0.5) if zero_one
                else rng.random() if rng.random() < 0.8 else rng.choice(EDGE_VALUES),
                rng.randint(1, 9),
            )
            for _ in range(degree)
        ]
        m, values = star(profile)
        budget = rng.randint(0, 10)
        expected_removal, expected_surviving = enumerate_best(m, "hub", budget, values)
        for _ in range(2):
            removal, surviving = best_removal(m, "hub", budget, values)
            assert removal == expected_removal
            assert surviving == float(expected_surviving)
        if degree > 1:
            stored = all(v in (0.0, 1.0) for v in values.values())
            assert len(m._plans["hub", budget][-1]) == stored

    @pytest.mark.parametrize(
        "profile, budget",
        [
            # weights [5/7, 0, 0], everything affordable: the smallest
            # optimum removes the heavy edge alone
            ([(1, 1.0, 5), (1, 0.0, 1), (1, 0.0, 1)], 3),
            # every edge affordable, so strictness decides; in
            # the second row two lightest edges tie and keeping the later
            # one gives the smaller removal set
            ([(1, 0.25, 1), (1, 0.75, 2), (1, 0.5, 3)], 3),
            ([(0, 1.0, 1), (0, 1.0, 1), (0, 1.0, 5)], 0),
            ([(0, v, 1) for v in EDGE_VALUES], 0),
            ([(1, v, 1) for v in EDGE_VALUES], 2),
            ([(1, v, 1) for v in reversed(EDGE_VALUES)], 4),
            ([(0, 5e-324, 3), (0, 5e-324, 1)], 0),
            ([(2, 1e-300, 7), (1, 1.0000000000000002, 2), (1, 0.1, 5)], 2),
        ],
        ids=[
            "zero-weight-tie",
            "strictness-retry",
            "strictness-retry-tie",
            "edge-values-free",
            "edge-values-priced",
            "edge-values-reversed",
            "subnormal-pair",
            "mixed-scales",
        ],
    )
    def test_exact_on_fixed_rows(self, profile, budget):
        # asked twice: rows of values 0 and 1 are answered from the memo
        m, values = star(profile)
        expected_removal, expected_surviving = enumerate_best(m, "hub", budget, values)
        for _ in range(2):
            removal, surviving = best_removal(m, "hub", budget, values)
            assert removal == expected_removal
            assert surviving == float(expected_surviving)

    # at 2.9e-308 the product of 1/3 is subnormal, where rounding twice
    # (a product, then a division) loses the correctly rounded result
    @pytest.mark.parametrize("prob", [Fraction(1), Fraction(1, 3), Fraction(1, 10)])
    @pytest.mark.parametrize("value", EDGE_VALUES + [2.9e-308])
    def test_lone_edge_keeps_the_exact_product(self, prob, value):
        # the row need not be stochastic for the optimizer
        m = Pots.build(["hub", "t0"], "hub", [("hub", "t0", prob, 0), ("t0", "t0", 1, 0)])
        values = {"hub": 0.0, "t0": value}
        removal, surviving = best_removal(m, "hub", 5, values)
        expected_removal, expected_surviving = enumerate_best(m, "hub", 5, values)
        assert removal == expected_removal == ()
        assert surviving == float(expected_surviving)

    @pytest.mark.parametrize("value", EDGE_VALUES + [2.9e-308])
    def test_unaffordable_row_keeps_the_exact_sum_without_a_scan(self, monkeypatch, value):
        # every edge costs more than the budget: the empty removal is the
        # only option, and its surviving mass is the exactly rounded sum
        monkeypatch.setattr(potl.obstruction, "_heaviest", None)
        m, values = star([(3, value, 1), (4, 0.7, 2), (5, 1e-300, 3)])
        assert _options(m.row("hub").costs, 2) == ((),)
        removal, surviving = best_removal(m, "hub", 2, values)
        expected_removal, expected_surviving = enumerate_best(m, "hub", 2, values)
        assert removal == expected_removal == ()
        assert surviving == float(expected_surviving)

    @pytest.mark.parametrize("budget, listed", [(2, True), (3, False), (8, False)])
    def test_both_sides_of_the_option_list_bound(self, budget, listed):
        # eight edges of cost 1: 37 strict removal sets within budget 2,
        # 93 within 3, and strictness decides at 8
        edge_values = [0.3, 0.9, 0.05, 0.9, 0.6, 1e-300, 0.1, 0.7]
        m, values = star([(1, v, w) for w, v in enumerate(edge_values, 1)])
        assert (_options(m.row("hub").costs, budget) is not None) == listed
        removal, surviving = best_removal(m, "hub", budget, values)
        expected_removal, expected_surviving = enumerate_best(m, "hub", budget, values)
        assert removal == expected_removal
        assert surviving == float(expected_surviving)

    def test_wide_row_with_few_options_is_answered(self):
        # 21 edges with a cost range too wide for the table, but only the
        # empty set, the singletons and one pair fit the budget
        big = 2**31
        m, values = star([(big + i, (i % 7) / 7, i + 1) for i in range(21)])
        removal, surviving = best_removal(m, "hub", 2 * big + 1, values)
        edges = edges_of(m, "hub")
        weights = [Fraction(float(m.prob[e])) * Fraction(values[e[1]]) for e in edges]
        total = sum(weights)
        best = min(
            (total - sum(weights[i] for i in combo), combo)
            for size in range(3)
            for combo in itertools.combinations(range(21), size)
            if sum(m.cost_of(*edges[i]) for i in combo) <= 2 * big + 1
        )
        assert removal == tuple(edges[i] for i in best[1])
        assert surviving == float(best[0])

    def test_zero_weight_tie_removes_heavy_edge_alone(self):
        m, values = star([(0, 1.0, 5), (0, 0.0, 1), (0, 0.0, 1)])
        assert best_removal(m, "hub", 0, values) == ((("hub", "t0"),), 0.0)

    def test_huge_divisible_costs_reach_the_front(self):
        # nine edges of cost 2**31: 256 strict removal sets within four of them
        big = 2**31
        m, values = star([(big, v, w) for w, v in enumerate([1.0, 0.5, 0.25] * 3, 1)])
        assert _options(m.row("hub").costs, 4 * big) is None
        removal, surviving = best_removal(m, "hub", 4 * big, values)
        want_removal, want_surviving = enumerate_best(m, "hub", 4 * big, values)
        assert removal == want_removal
        assert surviving == float(want_surviving)

    def test_huge_coprime_costs_reach_the_front(self):
        # ten edges of cost near 2**31 with no common divisor: past the
        # option list within three of them plus a little
        big = 2**31
        costs = [big, big + 1, big + 3, big + 2, big, big + 3, big + 1, big, big + 2, big + 3]
        m, values = star([(c, i / 10, 10 - i) for i, c in enumerate(costs)])
        budget = 3 * big + 5
        assert _options(m.row("hub").costs, budget) is None
        removal, surviving = best_removal(m, "hub", budget, values)
        want_removal, want_surviving = enumerate_best(m, "hub", budget, values)
        assert removal == want_removal
        assert surviving == float(want_surviving)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9), huge=st.booleans())
    def test_matches_enumeration_past_the_option_list(self, seed, huge):
        rng = random.Random(seed)
        degree = rng.randint(9, 13)
        big = 2**31 if huge else 0
        costs = [big + rng.randint(0, 3) for _ in range(degree)]
        # any four edges fit, so there are at least 256 strict removal sets
        budget = rng.randint(4 * (big + 3), max(sum(costs), 4 * (big + 3)) + 3)
        profile = [
            (c, rng.random() if rng.random() < 0.7 else rng.choice(EDGE_VALUES), rng.randint(1, 9))
            for c in costs
        ]
        m, values = star(profile)
        assert _options(m.row("hub").costs, budget) is None
        removal, surviving = best_removal(m, "hub", budget, values)
        expected_removal, expected_surviving = enumerate_best(m, "hub", budget, values)
        assert removal == expected_removal
        assert surviving == float(expected_surviving)

    def test_wide_cost_spread_is_answered(self):
        # 21 edges of odd cost near 2**31, any seven of which fit the budget
        spread = [(2**31 + 2 * k + 1, 1.0, 1) for k in range(21)]
        m, values = star(spread)
        removal, surviving = best_removal(m, "hub", 2**34, values)
        want_removal, want_surviving = affordable_best(m, "hub", 2**34, values)
        assert len(removal) == 7
        assert removal == want_removal
        assert surviving == float(want_surviving)

    @pytest.mark.parametrize("degree", [8, 16])
    def test_superincreasing_row_within_the_cap_is_answered(self, degree):
        # a suffix of k edges has 2**k - 1 strict subsets, all on its front
        m, values = superincreasing_star(degree)
        removal, surviving = best_removal(m, "hub", 2**degree, values)
        # everything but the cheapest, lightest edge
        assert removal == tuple(edges_of(m, "hub")[1:])
        assert surviving == float(Fraction(1, 2**degree - 1))

    def test_free_edges_share_one_front_pair(self):
        # 22 free edges, each heavier than all later ones together: every
        # strict subset removes a weight of its own, but at budget 0 a
        # front keeps only the heaviest pair of cost 0
        m, values = star([(0, 1.0, 2 ** (21 - i)) for i in range(22)])
        assert _options(m.row("hub").costs, 0) is None
        removal, surviving = best_removal(m, "hub", 0, values)
        assert removal == tuple(e for e in edges_of(m, "hub") if e != ("hub", "t21"))
        assert surviving == float(Fraction(1, 2**22 - 1))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_merge_is_a_front(self, seed):
        # two cost-ordered lists with tied costs and weights merge into
        # pairs rising in both, which remove as much within every budget
        rng = random.Random(seed)
        lists = [
            sorted(((rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(0, 9))),
                   key=lambda pair: pair[0])
            for _ in range(2)
        ]
        (ac, aw), (bc, bw) = ([[c for c, _ in l], [w for _, w in l]] for l in lists)
        oc, ow = _merge(ac, aw, bc, bw)
        assert all(x < y for x, y in zip(oc, oc[1:]))
        assert all(x < y for x, y in zip(ow, ow[1:]))
        for b in range(-1, 8):
            within = [w for pairs in lists for c, w in pairs if c <= b]
            k = bisect_right(oc, b)
            assert (ow[k - 1] if k else None) == max(within, default=None)

    def test_unmanageable_cost_spread_rejected(self):
        m, values = superincreasing_star(22)
        with pytest.raises(
            CostRangeError,
            match=r"^cost range too wide for the removal optimizer "
            r"\(a front of up to 2097151 pairs, degree 22\)$",
        ):
            best_removal(m, "hub", 2**22, values)

    def test_one_model_answers_every_budget(self):
        # a plan holds the removal sets and the memo of one budget: calls
        # that move between budgets on one model must not answer from another's
        m, _ = star([(1, 1.0, 3), (2, 1.0, 1), (3, 1.0, 4), (1, 1.0, 1), (4, 1.0, 5)])
        rng = random.Random(24)
        for budget in [1, 4, 1, 0, 4, 10, 2, 7, 0, 3, 10, 5, 1, 6, 8, 9, 2, 5]:
            for values in (
                {q: rng.random() for q in m.states},
                {q: float(rng.random() < 0.6) for q in m.states},
            ):
                removal, surviving = best_removal(m, "hub", budget, values)
                want_removal, want_surviving = enumerate_best(m, "hub", budget, values)
                assert removal == want_removal
                assert surviving == float(want_surviving)
        assert len(m._plans) == 11

    def test_answering_leaves_equality_and_repr_alone(self, attack_graph_path):
        with open(attack_graph_path, encoding="utf-8") as handle:
            text = handle.read()
        used, fresh = loads_model(text), loads_model(text)
        before = repr(used)
        check(used, parse("<<4 < 0.1>> F (r2 | r3)"))
        assert used._plans
        assert used == fresh
        assert repr(used) == before == repr(fresh)

    @pytest.mark.parametrize("fraction", [0.5, 5e-324, 0.9999999999999999, 1.0000000000000002])
    def test_fractional_values_are_not_stored(self, fraction):
        m, values = star([(1, 1.0, 3), (1, 0.0, 1), (1, fraction, 2)])
        best_removal(m, "hub", 2, values)
        assert m._plans["hub", 2][-1] == {}
        values["t2"] = 1.0
        best_removal(m, "hub", 2, values)
        assert list(m._plans["hub", 2][-1]) == [(1.0, 0.0, 1.0)]

    def test_negative_zero_keys_and_answers_as_zero(self):
        m, values = star([(1, -0.0, 3), (1, 1.0, 1), (1, -0.0, 2)])
        want = enumerate_best(m, "hub", 1, values)
        removal, surviving = best_removal(m, "hub", 1, values)
        assert (removal, surviving) == (want[0], float(want[1]))
        positive = dict(values, t0=0.0, t2=0.0)
        assert best_removal(m, "hub", 1, positive) == (removal, surviving)
        assert m._plans["hub", 1][-1] == {(0.0, 1.0, 0.0): (removal, surviving)}
        # the same with every value -0.0: the surviving mass is +0.0
        removal, surviving = best_removal(m, "hub", 1, dict(values, t1=-0.0))
        assert (removal, math.copysign(1.0, surviving)) == ((), 1.0)
        assert best_removal(m, "hub", 1, dict(positive, t1=0.0)) == ((), 0.0)
        assert len(m._plans["hub", 1][-1]) == 2

    def test_edgeless_state_keeps_nothing(self):
        # an unvalidated model: q has no edge, so nothing survives at q
        m = Pots.build(["q", "g"], "q", [("g", "g", 1, 0)], {"g": ["g"]})
        for budget in range(4):
            removal, surviving = best_removal(m, "q", budget, {"q": 1.0, "g": 1.0})
            assert (removal, surviving.hex()) == ((), (0.0).hex())
        phi = parse("<<1 < 0.5>> X g")
        exact = oracle_optimum(m, phi.body, frozenset(), frozenset({"g"}), 1, "min")
        result = check(m, phi)
        assert result.values == {q: float(v) for q, v in exact.values.items()}
        assert result.sat == {"q"}

    def test_pruned_model_starts_without_plans(self):
        m, values = star([(1, 0.2, 1), (1, 0.9, 2), (2, 0.5, 3)])
        best_removal(m, "hub", 2, values)
        assert m._plans
        pruned = prune(m, [("hub", "t1")])
        assert pruned._plans == pruned._terms == {}
        removal, surviving = best_removal(pruned, "hub", 2, values)
        want_removal, want_surviving = enumerate_best(pruned, "hub", 2, values)
        assert removal == want_removal == (("hub", "t2"),)
        assert surviving == float(want_surviving)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_surviving_value_antitone_in_budget(self, seed):
        rng = random.Random(seed)
        profile = [
            (rng.randint(0, 4), rng.random(), rng.randint(1, 9)) for _ in range(5)
        ]
        m, values = star(profile)
        survivals = [best_removal(m, "hub", n, values)[1] for n in range(8)]
        assert all(a >= b for a, b in zip(survivals, survivals[1:]))


class TestStrategyValidation:
    def test_valid_strategy(self, chain):
        s = MemorylessStrategy(grade=1, removal={"q": frozenset({("q", "goal")})})
        assert validate_strategy(chain, s) == []

    def test_strictness_violation_at_single_successor_state(self, chain):
        s = MemorylessStrategy(grade=5, removal={"goal": frozenset({("goal", "goal")})})
        assert any("strictness at goal" in line for line in validate_strategy(chain, s))

    def test_budget_violation(self):
        m = Pots.build(
            ["q", "a", "b", "c"],
            "q",
            [
                ("q", "a", Fraction(1, 3), 2),
                ("q", "b", Fraction(1, 3), 2),
                ("q", "c", Fraction(1, 3), 0),
                ("a", "a", 1, 0),
                ("b", "b", 1, 0),
                ("c", "c", 1, 0),
            ],
        )
        s = MemorylessStrategy(
            grade=3, removal={"q": frozenset({("q", "a"), ("q", "b")})}
        )
        assert any("budget at q" in line for line in validate_strategy(m, s))

    def test_unknown_state_and_foreign_edge_reported(self, chain):
        s = MemorylessStrategy(grade=1, removal={"nope": frozenset()})
        assert any("unknown state" in line for line in validate_strategy(chain, s))
        s = MemorylessStrategy(grade=1, removal={"q": frozenset({("q", "nowhere")})})
        assert any("non-edges" in line for line in validate_strategy(chain, s))

    def test_empty_strategy_always_valid(self, chain):
        assert validate_strategy(chain, empty_strategy(0)) == []


class TestStrategyFormat:
    def test_round_trip(self):
        s = MemorylessStrategy(
            grade=4,
            removal={"S1": frozenset({("S1", "S3"), ("S1", "S2")})},
        )
        assert strategy_from_json(strategy_to_json(s)) == s

    def test_states_absent_from_removal_remove_nothing(self):
        s = strategy_from_json('{ "grade": 4, "removal": { "S1": [["S1","S3"]] } }')
        assert s.removed("S0") == frozenset()
        assert s.removed("S1") == {("S1", "S3")}

    @pytest.mark.parametrize(
        "text",
        [
            '{"grade": -1, "removal": {}}',
            '{"grade": "x", "removal": {}}',
            '{"grade": 1, "removal": {"q": [["r", "s"]]}}',
            '{"grade": 1, "removal": {"q": ["qs"]}}',
            '{"grade": 1, "removal": {}, "extra": 0}',
            "not json",
        ],
    )
    def test_malformed_strategy_rejected(self, text):
        from potl.model import ModelError

        with pytest.raises(ModelError):
            strategy_from_json(text)
