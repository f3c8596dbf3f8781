import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import potl.obstruction
from potl import engine
from potl.engine import (
    ConvergenceError,
    EngineOptions,
    check,
    operand_sets,
    path_values,
    prob_bounded_release,
    prob_bounded_until,
    prob_fixed,
    prob_next,
    prob_release,
    prob_until,
    qual_one_search,
    qual_zero_search,
    sat,
    synthesize,
    Stats,
)
from potl.generate import corpus, random_pots, scaling_model
from potl.model import Pots, dumps_model, load_model, loads_model
from potl.obstruction import MemorylessStrategy, validate_strategy
from potl.oracle import exact_prob, oracle_optimum, oracle_sat
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
    print_state,
)

ALL_OPS = [
    Next(Atom("b")),
    BoundedUntil(Atom("a"), Atom("b"), 0),
    BoundedUntil(Atom("a"), Atom("b"), 3),
    Until(Atom("a"), Atom("b")),
    BoundedRelease(Atom("a"), Atom("b"), 0),
    BoundedRelease(Atom("a"), Atom("b"), 3),
    Release(Atom("a"), Atom("b")),
]


def label_sets(model):
    return (
        frozenset(q for q in model.states if "a" in model.label_of(q)),
        frozenset(q for q in model.states if "b" in model.label_of(q)),
    )


def fork():
    """q splits 0.6/0.4 between two absorbing states; costs 1 and 2."""
    return Pots.build(
        ["q", "a", "b"],
        "q",
        [
            ("q", "a", Fraction(3, 5), 1),
            ("q", "b", Fraction(2, 5), 2),
            ("a", "a", 1, 1),
            ("b", "b", 1, 1),
        ],
    )


class TestNext:
    def test_min_zero_budget_keeps_mass(self):
        values = prob_next(fork(), frozenset({"a"}), 0, "min")
        assert values["q"] == pytest.approx(0.6)

    def test_min_budget_one_cuts_the_target_edge(self):
        values = prob_next(fork(), frozenset({"a"}), 1, "min")
        assert values["q"] == 0.0

    def test_max_ignores_budget(self):
        for budget in (0, 1, 5):
            values = prob_next(fork(), frozenset({"a"}), budget, "max")
            assert values["q"] == pytest.approx(0.6)

    def test_full_target_with_unaffordable_costs_is_one(self, chain):
        values_min = prob_next(chain, frozenset(chain.states), 0, "min")
        values_max = prob_next(chain, frozenset(chain.states), 0, "max")
        assert values_min == values_max == {q: 1.0 for q in chain.states}

    def test_empty_target_is_zero(self, chain):
        for mode in ("min", "max"):
            assert prob_next(chain, frozenset(), 3, mode) == {
                q: 0.0 for q in chain.states
            }


class TestBoundedUntil:
    def test_target_states_pinned_to_one(self, chain):
        for bound in (0, 1, 4):
            for budget in (0, 2):
                for mode in ("min", "max"):
                    values = prob_bounded_until(
                        chain, frozenset(), frozenset({"goal"}), bound, budget, mode
                    )
                    assert values["goal"] == 1.0

    def test_two_step_chain_mass(self, chain):
        values = prob_bounded_until(
            chain, frozenset({"q"}), frozenset({"goal"}), 2, 0, "min"
        )
        assert values["q"] == pytest.approx(0.75)

    def test_demon_cuts_goal_edge(self, chain):
        for bound in (1, 3):
            values = prob_bounded_until(
                chain, frozenset({"q"}), frozenset({"goal"}), bound, 1, "min"
            )
            assert values["q"] == 0.0

    def test_states_outside_both_operands_are_zero(self, chain):
        values = prob_bounded_until(
            chain, frozenset(), frozenset(), 3, 0, "min"
        )
        assert values == {q: 0.0 for q in chain.states}

    def test_minimum_follows_per_step_rechoice_semantics(self):
        # companion to the oracle's stationary-gap regression: the sweep
        # re-chooses removals every step, so it tracks the per-step optimum
        # (0.45 here), not the best single stationary choice (0.4725)
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
        values = prob_bounded_until(
            m, frozenset({"q", "b"}), frozenset({"a", "d"}), 2, 2, "min"
        )
        assert values["q"] == pytest.approx(0.45)


class TestUntil:
    def test_geometric_chain_converges_to_one(self, chain):
        values = prob_until(chain, frozenset(chain.states), frozenset({"goal"}), 0, "min")
        assert values["q"] == pytest.approx(1.0, abs=1e-9)

    def test_demon_zeroes_reachability(self, chain):
        values = prob_until(chain, frozenset(chain.states), frozenset({"goal"}), 1, "min")
        assert values["q"] == 0.0

    def test_empty_target_is_zero_everywhere(self, chain):
        values = prob_until(chain, frozenset(chain.states), frozenset(), 4, "max")
        assert values == {q: 0.0 for q in chain.states}

    def test_non_convergence_raises(self, chain):
        with pytest.raises(ConvergenceError):
            prob_until(
                chain,
                frozenset(chain.states),
                frozenset({"goal"}),
                0,
                "min",
                EngineOptions(max_iterations=1),
            )


class TestBoundedRelease:
    def make(self):
        # q in sat2 only; r in sat1 & sat2
        m = Pots.build(
            ["q", "r"],
            "q",
            [
                ("q", "r", Fraction(1, 2), 1),
                ("q", "q", Fraction(1, 2), 1),
                ("r", "r", 1, 1),
            ],
        )
        return m, frozenset({"r"}), frozenset({"q", "r"})

    def test_both_operands_pinned_to_one(self):
        m, sat1, sat2 = self.make()
        for bound in (0, 2):
            for budget in (0, 3):
                values = prob_bounded_release(m, sat1, sat2, bound, budget, "min")
                assert values["r"] == 1.0

    def test_outside_right_operand_is_zero(self):
        m, sat1, _ = self.make()
        values = prob_bounded_release(m, sat1, frozenset({"r"}), 3, 0, "min")
        assert values["q"] == 0.0

    def test_one_step_values(self):
        m, sat1, sat2 = self.make()
        assert prob_bounded_release(m, sat1, sat2, 1, 0, "min")["q"] == pytest.approx(1.0)
        assert prob_bounded_release(m, sat1, sat2, 1, 1, "min")["q"] == pytest.approx(0.5)


class TestRelease:
    def test_globally_true_without_budget_is_one(self, chain):
        values = prob_release(chain, frozenset(), frozenset(chain.states), 0, "min")
        assert values == {q: 1.0 for q in chain.states}

    def test_both_everywhere_is_one(self, chain):
        full = frozenset(chain.states)
        values = prob_release(chain, full, full, 5, "min")
        assert values == {q: 1.0 for q in chain.states}

    def test_leaked_mass_drops_globally_below_one(self, chain):
        values = prob_release(chain, frozenset(), frozenset(chain.states), 1, "min")
        exact = oracle_optimum(
            chain, Release(FALSE, TRUE), frozenset(), frozenset(chain.states), 1, "min"
        ).values
        assert exact["q"] == 0
        assert values["q"] == pytest.approx(float(exact["q"]), abs=1e-6)


class TestQualArtifacts:
    def test_full_right_operand_grows_to_everything(self, chain):
        full = frozenset(chain.states)
        zero = qual_zero_search(chain, frozenset(), full, 0)
        assert zero == frozenset()

    def test_empty_right_operand_stays_empty(self, chain):
        zero = qual_zero_search(chain, frozenset(chain.states), frozenset(), 0)
        assert zero == frozenset(chain.states)

    def test_three_state_instance_hand_executed(self):
        # w -> m -> t, plus w self-loop; cutting (m, t) costs 1
        m = Pots.build(
            ["w", "m", "t"],
            "w",
            [
                ("w", "m", Fraction(1, 2), 0),
                ("w", "w", Fraction(1, 2), 0),
                ("m", "t", Fraction(1), 1),
                ("t", "t", Fraction(1), 0),
            ],
        )
        sat1 = frozenset({"w", "m"})
        sat2 = frozenset({"t"})
        # hand execution at budget 0, growth reads P(q', q) > 0 for q' in Y
        # as written: Y0 = {t}; only t itself sees Y, so the left operand
        # contributes nothing and Y never grows; R = {w, m}
        q_no = qual_zero_search(m, sat1, sat2, 0)
        assert q_no == frozenset({"w", "m"})
        # one-set search seeded from {w, m}: w sees Y (self-loop) and m is
        # seen from w, and the obstruction predecessor of {w, m} is {w}
        # (w's escape into {t} costs 0); Y fixes at {w, m}, R = {t}
        assert qual_one_search(m, sat1, sat2, 0, q_no) == frozenset({"t"})
        # the exact optimum disagrees at m (the transcription is reported,
        # not trusted): the obstructor can cut w->m for free, so only w has
        # minimal probability 0, and m keeps probability 1
        exact = oracle_optimum(m, Until(Atom("l"), Atom("r")), sat1, sat2, 0, "min")
        assert {q for q, v in exact.values.items() if v == 0} == {"w"}
        assert {q for q, v in exact.values.items() if v == 1} == {"m", "t"}

    def test_release_variant_uses_union(self, chain):
        # with union the growth step always includes the obstruction
        # predecessor, so the search reaches everything reachable
        zero_union = qual_zero_search(
            chain, frozenset(), frozenset({"goal"}), 0, release=True
        )
        zero_inter = qual_zero_search(
            chain, frozenset(), frozenset({"goal"}), 0, release=False
        )
        assert zero_union <= zero_inter


class TestSatLayer:
    def test_true_and_complement(self, chain):
        assert sat(chain, TRUE) == frozenset(chain.states)
        assert sat(chain, parse("!goal")) == frozenset({"q"})

    def test_conjunction_intersects(self, chain):
        assert sat(chain, parse("goal & !goal")) == frozenset()

    def test_disjunction_and_implication(self, chain):
        assert sat(chain, parse("goal | !goal")) == frozenset(chain.states)
        assert sat(chain, parse("goal -> goal")) == frozenset(chain.states)

    def test_unknown_atom_warns_and_is_empty(self, chain):
        result = check(chain, parse("ghost"))
        assert result.sat == frozenset()
        assert result.warnings == ["atom 'ghost' not in the model's label alphabet"]
        assert check(chain, parse("goal & ghost | ghost")).warnings == result.warnings
        assert check(chain, parse("goal")).warnings == []

    def test_desugar_coherence_eventually(self, chain):
        assert sat(chain, parse("<<1 <= 0.5>> F goal")) == sat(
            chain, parse("<<1 <= 0.5>> true U goal")
        )

    def test_desugar_coherence_globally(self, chain):
        assert sat(chain, parse("<<1 < 1>> G goal")) == sat(
            chain, parse("<<1 < 1>> false R goal")
        )

    def test_threshold_comparison_is_exact(self, chain):
        # min probability at q is exactly 0; goal pinned at exactly 1
        assert sat(chain, parse("<<1 <= 0>> F goal")) == frozenset({"q"})
        assert sat(chain, parse("<<1 < 0>> F goal")) == frozenset()

    def test_boundary_warning_emitted(self, chain):
        result = check(chain, parse("<<0 >= 1>> F goal"))
        assert any("boundary" in w for w in result.warnings)

    def test_boundary_warnings_render_the_query_once(self, monkeypatch):
        # G true is worth 1, up to rounding, at every state, so threshold 1
        # puts all 200 states on the boundary; their warnings share one
        # rendering
        model = scaling_model(200)
        phi = parse("<<0 >= 1>> G true")
        rendered = []
        monkeypatch.setattr(
            engine, "print_state", lambda f: rendered.append(f) or print_state(f)
        )
        result = check(model, phi)
        assert rendered == [phi, phi]  # the result's formula, then the warnings'
        assert result.warnings == [
            f"boundary: value {v!r} at {q} within 10*epsilon of threshold 1 in "
            "<<0 >= 1>> false R true"
            for q, v in result.values.items()
        ]
        assert len(result.warnings) == len(model.states) == 200

    def test_check_reports_query_metadata(self, chain):
        result = check(chain, parse("<<1 < 0.1>> F goal"))
        assert result.mode == "min"
        assert result.grade == 1
        assert result.values is not None
        assert result.sat == frozenset({"q"})

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_sat_agrees_with_oracle_outside_the_boundary_band(self, seed):
        # a random model can put a state's optimum exactly on the
        # threshold; there the float engine decides by comparison and
        # flags the state, so agreement is only promised off the band
        rng = random.Random(seed)
        model = random_pots(rng, n_states=3)
        texts = [
            "<<1 < 0.5>> a U b",
            "<<2 >= 0.25>> X b",
            "<<0 <= 0.75>> a R b",
            "<<1 > 0.5>> (a | b) U<=2 (a & b)",
            "<<3 < 1/3>> G b",
        ]
        phi = parse(rng.choice(texts))
        result = check(model, phi)
        exact = oracle_sat(model, phi)
        band = 10 * EngineOptions().epsilon
        for q in model.states:
            if abs(result.values[q] - float(phi.threshold)) >= band:
                assert (q in result.sat) == (q in exact)
            else:
                assert any("boundary" in w for w in result.warnings)


class TestSolvers:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_policy_iteration_matches_value_iteration(self, seed):
        rng = random.Random(seed)
        model = random_pots(rng, n_states=4)
        sat1, sat2 = label_sets(model)
        pi = EngineOptions(solver="pi")
        for theta in (Until(Atom("a"), Atom("b")), Release(Atom("a"), Atom("b"))):
            for budget in (0, 2):
                for mode in ("min", "max"):
                    a = path_values(model, theta, budget, mode)
                    b = path_values(model, theta, budget, mode, pi)
                    for q in model.states:
                        assert a[q] == pytest.approx(b[q], abs=1e-7)


class TestModes:
    @pytest.mark.parametrize("mode", ["Min", "bogus"])
    def test_unknown_mode_is_rejected(self, chain, mode):
        with pytest.raises(ValueError) as by_path:
            path_values(chain, Until(TRUE, Atom("goal")), 1, mode)
        with pytest.raises(ValueError) as by_operator:
            prob_next(chain, frozenset({"goal"}), 1, mode)
        message = f"mode must be 'min' or 'max', got {mode!r}"
        assert str(by_path.value) == str(by_operator.value) == message


class TestInvariantProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_min_below_max_in_unit_interval(self, seed):
        # min and max converge through separate iterations, so an exact tie
        # can land either way within the stopping residual
        rng = random.Random(seed)
        model = random_pots(rng, n_states=4)
        for theta in ALL_OPS:
            lo = path_values(model, theta, 2, "min")
            hi = path_values(model, theta, 2, "max")
            for q in model.states:
                assert 0.0 <= lo[q] <= hi[q] + 1e-9
                assert hi[q] <= 1.0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_grade_antitonicity(self, seed):
        rng = random.Random(seed)
        model = random_pots(rng, n_states=4)
        for theta in ALL_OPS:
            previous = None
            for budget in (0, 1, 2, 4):
                current = path_values(model, theta, budget, "min")
                if previous is not None:
                    for q in model.states:
                        assert current[q] <= previous[q] + 1e-9
                previous = current

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_bound_monotone_and_convergent(self, seed):
        rng = random.Random(seed)
        model = random_pots(rng, n_states=4)
        sat1, sat2 = label_sets(model)
        for mode in ("min", "max"):
            unbounded = prob_until(model, sat1, sat2, 1, mode)
            previous = None
            for bound in (0, 1, 2, 4, 64):
                current = prob_bounded_until(model, sat1, sat2, bound, 1, mode)
                if previous is not None:
                    for q in model.states:
                        assert previous[q] <= current[q] + 1e-12
                previous = current
            for q in model.states:
                assert abs(previous[q] - unbounded[q]) <= 2e-10 + 1e-9


def last_sweeps(model, undetermined):
    """Each undetermined state's last sweep that can change its value, as
    the greatest fixed point of last(q) = 1 + max(last of its undetermined
    successors, 0 if none), iterated down from infinity: states on a
    cycle of undetermined states, or upstream of one, stay infinite."""
    inside = set(undetermined)
    last = dict.fromkeys(undetermined, math.inf)
    changed = True
    while changed:
        changed = False
        for q in undetermined:
            v = 1 + max((last[r] for r in model.row(q).succ if r in inside), default=0)
            if v < last[q]:
                last[q] = v
                changed = True
    return last


def cycle_model():
    """s0 -> s1 -> s2 -> s0, each state also stepping to goal."""
    states = ["s0", "s1", "s2", "goal"]
    edges = [(q, r, Fraction(1, 2), 1) for q, r in zip(states[:3], ["s1", "s2", "s0"])]
    edges += [(q, "goal", Fraction(1, 2), 1) for q in states[:3]]
    edges.append(("goal", "goal", 1, 1))
    return Pots.build(states, "s0", edges, {"goal": ["b"]})


def chain_of(n):
    """s0 -> s1 -> ... -> s{n-1} -> goal, each step losing half to sink."""
    states = [f"s{i}" for i in range(n)]
    edges = []
    for q, r in zip(states, states[1:] + ["goal"]):
        edges += [(q, r, Fraction(1, 2), 1), (q, "sink", Fraction(1, 2), 2)]
    edges += [("goal", "goal", 1, 1), ("sink", "sink", 1, 1)]
    return Pots.build(states + ["goal", "sink"], "s0", edges, {"goal": ["b"]})


@pytest.fixture
def counted(monkeypatch):
    """The states the engine's optimizer is called at, in call order."""
    calls = []
    original = engine.best_removal

    def counting(model, q, budget, value):
        calls.append(q)
        return original(model, q, budget, value)

    monkeypatch.setattr(engine, "best_removal", counting)
    return calls


class TestSweepContract:
    """A min-mode sweep calls the optimizer once for each undetermined state
    it can still change, up to that state's last sweep, and no sweep writes
    the frame's start values."""

    @pytest.mark.parametrize("op", [BoundedUntil, BoundedRelease])
    @pytest.mark.parametrize("bound", [1, 2, 7])
    def test_one_call_per_state_up_to_its_last_sweep(self, counted, op, bound):
        model = scaling_model(200)
        sat1, sat2 = label_sets(model)
        undetermined = engine._frame(model, op, sat1, sat2, bound).undetermined
        assert undetermined
        last = last_sweeps(model, undetermined)
        assert 1 in last.values()
        path_values(model, op(Atom("a"), Atom("b"), bound), 2, "min")
        assert Counter(counted) == {q: min(bound, last[q]) for q in undetermined}

    # at grade 0 and bound 200 the cycle's floats stop moving at sweep 55;
    # every state is still stepped in each of the 200 sweeps
    @pytest.mark.parametrize("grade, bound", [(1, 5), (0, 200)])
    def test_a_cycle_is_swept_every_time(self, counted, grade, bound):
        model = cycle_model()
        every, goal = frozenset(model.states), frozenset({"goal"})
        frame = engine._frame(model, BoundedUntil, every, goal, bound)
        assert frame.undetermined == ["s0", "s1", "s2"]
        path_values(model, BoundedUntil(TRUE, Atom("b"), bound), grade, "min")
        assert Counter(counted) == {"s0": bound, "s1": bound, "s2": bound}

    @pytest.mark.parametrize("bound", [2, 3, 6, None])
    def test_a_chain_drops_out_state_by_state(self, counted, bound):
        model = chain_of(4)
        theta = Until(TRUE, Atom("b")) if bound is None else BoundedUntil(TRUE, Atom("b"), bound)
        stats = Stats()
        values = path_values(model, theta, 0, "min", stats=stats)
        # s0 settles at sweep 4, so the fixed point stops after sweep 5
        horizon = 5 if bound is None else bound
        assert stats.iterations == horizon
        assert Counter(counted) == {f"s{i}": min(horizon, 4 - i) for i in range(4)}
        assert [values[f"s{i}"] for i in range(4)] == [
            0.5 ** (4 - i) if horizon >= 4 - i else 0.0 for i in range(4)
        ]

    @pytest.mark.parametrize("op", [BoundedUntil, Until, Release])
    def test_sweeps_leave_the_start_values_alone(self, op):
        model = scaling_model(200)
        sat1, sat2 = label_sets(model)
        frame = engine._frame(model, op, sat1, sat2, 6 if op is BoundedUntil else None)
        before = dict(frame.start)
        step = engine._argmin_step(model, 2, {})
        x = engine._iterate(frame, step, EngineOptions(), None)
        assert frame.start == before
        assert x != before
        if frame.sweeps is None:
            y = engine._policy_iteration(model, frame, 2, EngineOptions(solver="pi"), None)
            assert frame.start == before
            assert max(abs(x[q] - y[q]) for q in model.states) < 1e-8


class TestPolicyImprovement:
    """Policy iteration calls the optimizer only in its improvement scans,
    once per undetermined state in each round, in the frame's order."""

    @pytest.mark.parametrize("op", [Until, Release])
    def test_each_round_calls_the_optimizer_once_per_undetermined_state(
        self, counted, monkeypatch, op
    ):
        model = scaling_model(200)
        sat1, sat2 = label_sets(model)
        undetermined = engine._frame(model, op, sat1, sat2).undetermined
        assert undetermined
        rounds = []  # each round evaluates its policy with a new _policy_step
        policy_step = engine._policy_step

        def evaluating(model, policy):
            rounds.append(policy)
            return policy_step(model, policy)

        monkeypatch.setattr(engine, "_policy_step", evaluating)
        path_values(model, op(Atom("a"), Atom("b")), 2, "min", EngineOptions(solver="pi"))
        assert len(rounds) > 1
        assert counted == undetermined * len(rounds)


def planned_answers(model, solver):
    """Values as ``float.hex`` and iteration counts of every path operator
    at grades {0, 1, 2, 4} in both modes, and the min-mode witnesses."""
    opts = EngineOptions(solver=solver)
    sat1, sat2 = label_sets(model)
    out = []
    for theta in (
        Next(Atom("b")),
        BoundedUntil(Atom("a"), Atom("b"), 4),
        Until(Atom("a"), Atom("b")),
        BoundedRelease(Atom("a"), Atom("b"), 4),
        Release(Atom("a"), Atom("b")),
    ):
        for grade in (0, 1, 2, 4):
            for mode in ("min", "max"):
                stats = Stats()
                values = path_values(model, theta, grade, mode, opts, stats)
                out.append(({q: v.hex() for q, v in values.items()}, stats.iterations))
            stats = Stats()
            strategy, values = synthesize(model, theta, sat1, sat2, grade, opts, stats)
            out.append((strategy, {q: v.hex() for q, v in values.items()}, stats.iterations))
    return out


class TestSweepPlanIsExact:
    @pytest.mark.parametrize("solver", ["vi", "pi"])
    def test_same_bits_as_sweeping_every_state(self, monkeypatch, solver):
        models = corpus(2024, 40)
        frames = [
            engine._frame(m, op, *label_sets(m), 4)
            for m in models
            for op in (BoundedUntil, Until, BoundedRelease, Release)
        ]
        # frames where some state can drop out of a sweep
        assert sum(not all(f.succ.values()) for f in frames) > 20
        with_plan = [planned_answers(m, solver) for m in models]
        frame = engine._frame
        monkeypatch.setattr(
            engine, "_frame", lambda *args: frame(*args)._replace(succ=None)
        )
        assert [planned_answers(m, solver) for m in models] == with_plan


class TestQualitativeMemo:
    @pytest.mark.parametrize("solver", ["vi", "pi"])
    def test_answers_again_as_a_fresh_model_and_without_the_memo(self, monkeypatch, solver):
        # the second pass reads answers the first stored for successor
        # values all 0 or 1; a third model runs with a memo that stores nothing
        text = dumps_model(scaling_model(200))
        formulas = [parse(f"<<{g} < 0.5>> {p}") for g in (0, 1, 2, 4) for p in ("a U b", "a R b")]

        def answers(model):
            checks = [check(model, phi, EngineOptions(solver=solver)) for phi in formulas]
            verdicts = [(r.sat, {q: v.hex() for q, v in r.values.items()}) for r in checks]
            return planned_answers(model, solver), verdicts

        used = loads_model(text)
        first = answers(used)
        stored = sum(len(plan[-1]) for plan in used._plans.values() if len(plan) == 3)
        assert stored > 100
        heaviest = potl.obstruction._heaviest
        scans = []

        def counted(*args):
            scans.append(args)
            return heaviest(*args)

        monkeypatch.setattr(potl.obstruction, "_heaviest", counted)
        again = answers(used)
        rescans = len(scans)
        fresh = answers(loads_model(text))
        assert rescans < len(scans) - rescans

        class Forgetful(dict):
            def __setitem__(self, key, answer):
                pass

        plan = potl.obstruction._plan

        def forgetful_plan(*args):
            made = plan(*args)
            return made if len(made) == 2 else (*made[:-1], Forgetful())

        monkeypatch.setattr(potl.obstruction, "_plan", forgetful_plan)
        unmemoized = loads_model(text)
        assert answers(unmemoized) == first == again == fresh
        assert all(not p[-1] for p in unmemoized._plans.values() if len(p) == 3)


class TestSharedModel:
    FORMULAS = [
        "<<2 < 0.5>> a U b",
        "<<1 <= 0.9>> a R b",
        "<<0 >= 0.2>> X b",
        "<<2 < 0.4>> a U<=12 b",
        "<<4 > 0.1>> a R<=9 b",
        "<<1 < 0.3>> true U<=6 (a & <<2 < 0.5>> X b)",
    ]

    def test_concurrent_checks_equal_a_sequential_run(self):
        # the optimizer's plans fill in as the threads run, unlocked
        text = dumps_model(scaling_model(200))
        formulas = [parse(f) for f in self.FORMULAS]
        sequential = loads_model(text)
        expected = [check(sequential, phi) for phi in formulas]
        shared = loads_model(text)
        start = threading.Barrier(4, timeout=60)
        results = [None] * 4

        def run(i):
            start.wait()
            # each thread starts at another formula, so plans for one
            # budget are made while others are read
            order = [*range(i, len(formulas)), *range(i)]
            results[i] = {k: check(shared, formulas[k]) for k in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [dict(enumerate(expected))] * 4
        assert shared._plans == sequential._plans


class TestFixedAndSynthesis:
    def test_prob_fixed_matches_oracle(self, chain):
        cut = MemorylessStrategy(grade=1, removal={"q": frozenset({("q", "q")})})
        theta = Until(TRUE, Atom("goal"))
        sat1, sat2 = frozenset(chain.states), frozenset({"goal"})
        got = prob_fixed(chain, cut, theta, sat1, sat2)
        want = exact_prob(chain, cut, theta, sat1, sat2)
        for q in chain.states:
            assert got[q] == pytest.approx(float(want[q]), abs=1e-9)

    def test_chain_witness_cuts_goal_edge(self, chain):
        theta = Until(TRUE, Atom("goal"))
        sat1, sat2 = frozenset(chain.states), frozenset({"goal"})
        strategy, values = synthesize(chain, theta, sat1, sat2, 1)
        assert strategy.removal == {"q": frozenset({("q", "goal")})}
        assert values["q"] == 0.0
        assert validate_strategy(chain, strategy) == []

    def test_zero_budget_witness_is_empty(self, chain):
        theta = Until(TRUE, Atom("goal"))
        sat1, sat2 = frozenset(chain.states), frozenset({"goal"})
        strategy, values = synthesize(chain, theta, sat1, sat2, 0)
        assert strategy.removal == {}
        assert values["q"] == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_witness_is_valid_and_reproducible_by_the_oracle(self, seed):
        rng = random.Random(seed)
        model = random_pots(rng, n_states=4)
        sat1, sat2 = label_sets(model)
        for theta in (
            Next(Atom("b")),
            Until(Atom("a"), Atom("b")),
            Release(Atom("a"), Atom("b")),
            BoundedUntil(Atom("a"), Atom("b"), 2),
            BoundedRelease(Atom("a"), Atom("b"), 2),
        ):
            strategy, values = synthesize(model, theta, sat1, sat2, 2)
            assert validate_strategy(model, strategy) == []
            exact = exact_prob(model, strategy, theta, sat1, sat2)
            for q in model.states:
                assert values[q] == pytest.approx(float(exact[q]), abs=1e-6)

    def test_attack_graph_witness_beats_threshold(self, attack_graph):
        phi = parse("<<5 < 0.2>> F r3")
        theta = phi.body
        stats = Stats()
        sat1, sat2 = operand_sets(attack_graph, theta, EngineOptions(), stats)
        strategy, values = synthesize(attack_graph, theta, sat1, sat2, 5)
        assert validate_strategy(attack_graph, strategy) == []
        exact = exact_prob(attack_graph, strategy, theta, sat1, sat2)
        satisfied = sat(attack_graph, phi)
        assert ("S0" in satisfied) == (exact["S0"] < Fraction(1, 5))

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bounded_witness_is_the_argmin_at_the_last_sweeps_inputs(self, k):
        """The witness of a k-step operator is the argmin at the values of
        sweep k - 1: the decision taken with the full horizon ahead."""
        for model in corpus(2024, 40):
            sat1, sat2 = label_sets(model)
            for theta in (
                Next(Atom("b")),
                BoundedUntil(Atom("a"), Atom("b"), k),
                BoundedRelease(Atom("a"), Atom("b"), k),
            ):
                bound = getattr(theta, "bound", 1)
                frame = engine._frame(model, type(theta), sat1, sat2, bound)
                for grade in (0, 1, 2, 4):
                    step = engine._argmin_step(model, grade, {})
                    x = engine._iterate(
                        frame._replace(sweeps=bound - 1), step, EngineOptions(), None
                    )
                    want = {}
                    for q in frame.undetermined:
                        removed, _ = engine.best_removal(model, q, grade, x)
                        if removed:
                            want[q] = frozenset(removed)
                    strategy, _ = synthesize(model, theta, sat1, sat2, grade)
                    assert strategy.removal == want

    @pytest.mark.parametrize(
        "theta",
        [
            Next(Atom("b")),
            BoundedUntil(Atom("a"), Atom("b"), 4),
            Until(Atom("a"), Atom("b")),
            Release(Atom("a"), Atom("b")),
        ],
        ids=("X", "U<=4", "U", "R"),
    )
    def test_as_many_optimizer_calls_as_the_min_solve(self, counted, theta):
        for model in [*corpus(2024, 6), scaling_model(200)]:
            sat1, sat2 = label_sets(model)
            for grade in (1, 2):
                counted.clear()
                path_values(model, theta, grade, "min")
                solve = len(counted)
                counted.clear()
                synthesize(model, theta, sat1, sat2, grade)
                assert len(counted) == solve

    def test_horizon_zero_witness_is_empty(self, chain):
        theta = BoundedUntil(TRUE, Atom("goal"), 0)
        sat1, sat2 = frozenset(chain.states), frozenset({"goal"})
        stats = Stats()
        strategy, values = synthesize(chain, theta, sat1, sat2, 1, stats=stats)
        assert strategy.removal == {}
        assert values == {"q": 0.0, "goal": 1.0}
        assert stats.iterations == 0

    @pytest.mark.parametrize(
        "theta", [Until(Atom("a"), Atom("b")), Release(Atom("a"), Atom("b"))], ids=("U", "R")
    )
    def test_synthesis_solves_by_value_iteration_under_either_solver(self, theta):
        for model in [*corpus(2024, 10), scaling_model(200)]:
            sat1, sat2 = label_sets(model)
            for grade in (0, 1, 2, 4):
                answers = []
                for solver in ("vi", "pi"):
                    stats = Stats()
                    opts = EngineOptions(solver=solver)
                    strategy, values = synthesize(model, theta, sat1, sat2, grade, opts, stats)
                    answers.append((strategy, values, stats.iterations))
                assert answers[0] == answers[1]



def leaving_q(**succ):
    """q steps to each named successor with the given decimal probability,
    at cost 1; every other state is absorbing, and goal is labelled."""
    states = ["q", *sorted(set(succ) - {"q"})]
    edges = [("q", r, p, 1) for r, p in succ.items()]
    edges += [(r, r, 1, 1) for r in states[1:]]
    return Pots.build(states, "q", edges, labels={"goal": ["goal"]})


class TestKnownWrongVerdicts:
    """Verdicts that still rest on a stopping rule that cannot bound its
    error, or on float rounding (ROADMAP item 1). Each case disagrees with
    the exact oracle today; the fix turns each into a passing test."""

    @pytest.mark.xfail(strict=True, reason="the engine's verdict is not the oracle's")
    @pytest.mark.parametrize(
        "model, formula",
        [
            ("chain.json", "<<0 >= 1>> F goal"),
            (leaving_q(q="0.9999", goal="0.0001"), "<<0 < 0.9999995>> F goal"),
            (leaving_q(goal="0.1", sink="0.9"), "<<0 > 0.1>> X goal"),
        ],
        ids=["chain-one", "slow-self-loop", "float-tie"],
    )
    def test_verdict_matches_the_oracle(self, model, formula, chain_path):
        if model == "chain.json":
            model = load_model(chain_path)
        phi = parse(formula)
        assert check(model, phi).sat == oracle_sat(model, phi)

    # policy iteration stops with 8.936727253014514e-12 left at S1, whose
    # exact value is 0, and drops S1; value iteration keeps it
    @pytest.mark.xfail(strict=True, reason="policy iteration's release leaves a positive zero")
    @pytest.mark.parametrize("formula", ["<<1 <= 0>> G a", "<<2 <= 0>> G a"])
    def test_policy_iteration_release_matches_the_oracle(self, formula):
        model = corpus(2024, 200)[184]
        phi = parse(formula)
        assert check(model, phi, EngineOptions(solver="pi")).sat == oracle_sat(model, phi)


class TestValuesAsComputed:
    """Next and until reach their zeros exactly, value iteration by its
    argmin removal and policy iteration by switching to any removal worth
    exactly 0, so the engine reports a tiny positive value as it computed
    it, and caps only what a float row sum pushes past 1."""

    @pytest.mark.parametrize(
        "formula", ["<<0 > 0>> F goal", "<<0 > 0>> X goal"], ids=["until", "next"]
    )
    def test_a_tiny_value_is_kept(self, formula):
        model = leaving_q(goal="0.0000000000001", sink="0.9999999999999")
        phi = parse(formula)
        assert check(model, phi).sat == oracle_sat(model, phi)

    @pytest.mark.parametrize("solver", ["vi", "pi"])
    def test_a_tiny_value_is_removed_to_zero(self, solver):
        # the empty policy leaves 1e-13 at q, far below policy iteration's
        # improvement gate; cutting the goal edge is worth exactly 0
        model = leaving_q(goal="0.0000000000001", sink="0.9999999999999")
        phi = parse("<<1 <= 0>> F goal")
        sat = check(model, phi, EngineOptions(solver=solver)).sat
        assert sat == oracle_sat(model, phi)

    def test_a_row_sum_past_one_is_capped(self):
        # left to right, 0.33 + 0.56 + 0.11 is 1.0000000000000002
        edges = [("q", "a", "0.33", 1), ("q", "b", "0.56", 1), ("q", "c", "0.11", 1)]
        edges += [(r, r, 1, 1) for r in "abc"]
        model = Pots.build(["q", "a", "b", "c"], "q", edges)
        assert check(model, parse("<<0 > 1>> X true")).sat == frozenset()


class TestFlushedReleaseVerdicts:
    """Release verdicts at threshold 0 on ``corpus(2024, 200)`` that agree
    with the oracle only because ``prob_release`` flushes the engine's value
    at a state to 0: 7.4e-19 at S2 of model 16, 7.3e-13 at S1 and 5.7e-14
    at S2 of model 184. The flush keeps these verdicts until release has an
    exact zero set (ROADMAP item 1)."""

    @pytest.mark.parametrize(
        "index, formula",
        [(16, "<<1 <= 0>> G a"), (184, "<<1 <= 0>> G a"), (184, "<<2 <= 0>> G a")],
    )
    def test_verdict_matches_the_oracle(self, index, formula):
        model = corpus(2024, 200)[index]
        phi = parse(formula)
        assert check(model, phi).sat == oracle_sat(model, phi)
