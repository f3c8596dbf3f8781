import dataclasses
import math
import operator
import pathlib
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astgen import random_state
from potl.syntax import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoundedRelease,
    BoundedUntil,
    Implies,
    Next,
    Not,
    ObstructQuery,
    Or,
    ParseError,
    PathFormula,
    Release,
    StateFormula,
    Until,
    _Parser,
    formula_size,
    parse,
    parse_path_formula,
    print_state,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))
from answers_digest import formula_texts  # noqa: E402

CORE_PATHS = (Next, Until, BoundedUntil, Release, BoundedRelease)


def path_nodes(phi):
    """Every path formula inside a formula."""
    if isinstance(phi, PathFormula):
        yield phi
    for field in dataclasses.fields(phi):
        value = getattr(phi, field.name)
        if isinstance(value, (StateFormula, PathFormula)):
            yield from path_nodes(value)


class TestParse:
    def test_threshold_query_with_eventually(self):
        phi = parse("<<4 < 0.1>> F (r2 | r3)")
        assert phi == ObstructQuery(
            4, "<", Fraction(1, 10), Until(TRUE, Or(Atom("r2"), Atom("r3")))
        )

    def test_true_literal(self):
        assert parse("true") == TRUE

    def test_bounded_until_query(self):
        phi = parse("<<2 >= 0.5>> (a U<=3 b)")
        assert phi == ObstructQuery(
            2, ">=", Fraction(1, 2), BoundedUntil(Atom("a"), Atom("b"), 3)
        )

    def test_fraction_threshold_is_exact(self):
        assert parse("<<1 < 1/3>> X a").threshold == Fraction(1, 3)

    def test_decimal_threshold_is_exact(self):
        assert parse("<<1 < 0.1>> X a").threshold == Fraction(1, 10)

    def test_precedence_not_and_or_implies(self):
        phi = parse("!p & q | r -> s")
        assert phi == Implies(Or(And(Not(Atom("p")), Atom("q")), Atom("r")), Atom("s"))

    def test_implies_right_associative(self):
        assert parse("a -> b -> c") == Implies(Atom("a"), Implies(Atom("b"), Atom("c")))

    def test_and_left_associative(self):
        assert parse("a & b & c") == And(And(Atom("a"), Atom("b")), Atom("c"))

    def test_parenthesized_path_formula(self):
        assert parse("<<1 < 0.5>> ((a | b) U c)") == ObstructQuery(
            1, "<", Fraction(1, 2), Until(Or(Atom("a"), Atom("b")), Atom("c"))
        )

    def test_path_formula_entry_point(self):
        assert parse_path_formula("F goal") == Until(TRUE, Atom("goal"))

    def test_weak_until_desugared_at_parse(self):
        phi = parse("<<1 < 0.5>> a W b")
        assert phi.body == Release(Atom("b"), Or(Atom("a"), Atom("b")))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(",
            "a &",
            "a | | b",
            "<<",
            "<<x < 0.5>> X a",
            "<<1 0.5>> X a",
            "<<1 < 1.5>> X a",
            "<<1 < 2/1>> X a",
            "<<1 < 1/0>> X a",
            "<<1 < 0.5>>",
            "<<1 < 0.5>> a",
            "<<1 < 0.5>> a U",
            "<<1 < 0.5>> U a",
            "<<1 < 0.5>> a W<=3 b",
            "a U b",
            "true true",
            "!",
            "# nope",
            "<<1 < 0.5>> X a extra",
        ],
    )
    def test_malformed_inputs_raise_positioned_errors(self, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position >= 0
        assert "position" in str(err.value)

    def test_keywords_are_not_atoms(self):
        with pytest.raises(ParseError):
            parse("U")


_LIMIT = sys.get_int_max_str_digits()
_LONG = "9" * (_LIMIT + 1)


@pytest.mark.skipif(_LIMIT == 0, reason="no digit limit")
class TestNumbersPastTheDigitLimit:
    """A numeral longer than int() converts from text is a positioned
    ParseError, wherever it stands."""

    @pytest.mark.parametrize(
        "text, position, digits",
        [
            (f"<<{_LONG} < 0.5>> X a", 2, _LIMIT + 1),
            (f"<<0 < {_LONG}/{_LONG}>> X a", 6, _LIMIT + 1),
            (f"<<0 < 1/{_LONG}>> X a", 8, _LIMIT + 1),
            (f"<<0 < 0.{_LONG}>> X a", 6, _LIMIT + 2),
            (f"<<0 < 0.5>> a U<={_LONG} b", 17, _LIMIT + 1),
            (f"<<0 < 0.5>> F<={_LONG} b", 15, _LIMIT + 1),
        ],
        ids=["grade", "numerator", "denominator", "decimal", "until-bound", "eventually-bound"],
    )
    def test_state_formula(self, text, position, digits):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position
        assert f"number has {digits} digits" in str(err.value)

    @pytest.mark.parametrize("op", ["U", "R"])
    def test_path_formula_bound(self, op):
        with pytest.raises(ParseError) as err:
            parse_path_formula(f"a {op}<={_LONG} b")
        assert err.value.position == 5
        assert f"number has {_LIMIT + 1} digits" in str(err.value)

    def test_numbers_at_the_limit_parse_exactly(self):
        nines = "9" * _LIMIT
        phi = parse(f"<<{nines} < 1/{nines}>> a U<={nines} b")
        assert phi.grade == phi.body.bound == int(nines)
        assert phi.threshold == Fraction(1, int(nines))
        decimal = "0" + "9" * (_LIMIT - 1)
        assert parse(f"<<0 <= 0.{decimal[1:]}>> X a").threshold == Fraction(
            int(decimal), 10 ** (_LIMIT - 1)
        )


class _Forgetful(dict):
    """A parse memo that never stores: every operand is parsed afresh."""

    def __setitem__(self, key, value):
        pass


def parse_without_memo(text):
    parser = _Parser(text)
    parser.memo = _Forgetful()
    formula = parser.parse_state()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return formula


def outcome(parse_fn, text):
    try:
        return repr(parse_fn(text))
    except ParseError as exc:
        return str(exc)


def nested_operands(level, inner="a"):
    """``<<1 < 0.5>> (q) U b`` wrapped ``level`` times around ``inner``:
    each level's operand is parenthesized, so the parenthesis back-off in
    ``parse_path`` meets it once per enclosing level."""
    text, tree = inner, Atom("a")
    for _ in range(level):
        text = f"<<1 < 0.5>> ({text}) U b"
        tree = ObstructQuery(1, "<", Fraction(1, 2), Until(tree, Atom("b")))
    return text, tree


class TestBackOff:
    """The parser tries a parenthesis as a path formula first and backs off
    to a state operand; each operand is parsed once per start token."""

    def test_deep_parenthesized_operands_parse_at_once(self):
        text, tree = nested_operands(40)
        start = time.perf_counter()
        phi = parse(text)
        assert time.perf_counter() - start < 0.5
        assert repr(phi) == repr(tree)

    def test_deep_malformed_operands_fail_at_once(self):
        text, _ = nested_operands(40, "a U")
        start = time.perf_counter()
        with pytest.raises(ParseError, match="position 522"):
            parse(text)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("level", range(1, 9))
    def test_memo_gives_the_unmemoized_parse(self, level):
        text, _ = nested_operands(level)
        assert repr(parse(text)) == repr(parse_without_memo(text))

    @pytest.mark.parametrize(
        "text",
        [
            nested_operands(6, "a U")[0],
            nested_operands(6, "(a)) U (b")[0],
            nested_operands(6, "((a U b))")[0],
            nested_operands(6)[0] + " extra",
            "<<1 < 0.5>> ((((a)))) U b",
            "<<1 < 0.5>> ((((a U b))))",
            "((((a U b))))",
            "<<1 < 0.5>> (a -> (b) U c",
        ],
    )
    def test_memo_gives_the_unmemoized_outcome(self, text):
        assert outcome(parse, text) == outcome(parse_without_memo, text)

    def test_memo_keeps_every_outcome_on_the_digest_texts(self):
        for text in formula_texts(seed=7, count=300):
            assert repr(parse(text)) == repr(parse_without_memo(text))


class TestDesugar:
    """Parsing reads F, G, W and their bounded forms straight into the five
    core path constructors, inside nested queries too."""

    def test_globally_becomes_release(self):
        assert parse("<<1 < 0.5>> G p").body == Release(FALSE, Atom("p"))

    def test_weak_until_becomes_release(self):
        left, right = And(Atom("a"), Atom("c")), Not(Atom("b"))
        assert parse_path_formula("(a & c) W !b") == Release(right, Or(left, right))

    def test_eventually_becomes_until(self):
        phi = parse("<<1 < 0.5>> F <<0 > 0.5>> G p")
        inner = ObstructQuery(0, ">", Fraction(1, 2), Release(FALSE, Atom("p")))
        assert phi.body == Until(TRUE, inner)

    def test_bounded_sugar(self):
        phi = parse("<<1 < 0.5>> F<=3 p")
        assert phi.body == BoundedUntil(TRUE, Atom("p"), 3)
        phi = parse("<<1 < 0.5>> G<=3 p")
        assert phi.body == BoundedRelease(FALSE, Atom("p"), 3)

    def test_size_counts_the_core_form(self):
        assert formula_size(parse("<<1 < 0.5>> a W b")) == 3  # query, R, |
        assert formula_size(parse("!a & <<0 > 0.1>> F<=2 b")) == 4

    def test_core_formula_unchanged(self):
        phi = parse("<<1 < 0.5>> a U b & c")
        assert phi == ObstructQuery(
            1, "<", Fraction(1, 2), Until(Atom("a"), And(Atom("b"), Atom("c")))
        )
        assert print_state(phi) == "<<1 < 0.5>> a U (b & c)"

    @settings(max_examples=50)
    @given(seed=st.integers(0, 10**9))
    def test_idempotent_and_core_only(self, seed):
        for text in formula_texts(seed, 20):
            phi = parse(text)
            assert all(isinstance(theta, CORE_PATHS) for theta in path_nodes(phi)), text
            assert parse(print_state(phi)) == phi, text


class TestPrint:
    @pytest.mark.parametrize(
        "text",
        [
            "<<4 < 0.1>> F (r2 | r3)",
            "true",
            "<<2 >= 0.5>> (a U<=3 b)",
            "!p & (q | r)",
            "<<0 <= 1>> X (a -> b)",
            "<<3 > 1/3>> (a & b) R<=7 !c",
        ],
    )
    def test_round_trip_examples(self, text):
        phi = parse(text)
        assert parse(print_state(phi)) == phi

    def test_print_is_idempotent_through_parse(self):
        phi = parse("<<4 < 0.1>> F (r2 | r3)")
        assert print_state(parse(print_state(phi))) == print_state(phi)

    @settings(max_examples=300)
    @given(seed=st.integers(0, 10**9), depth=st.integers(0, 6))
    def test_round_trip_random_asts(self, seed, depth):
        phi = random_state(random.Random(seed), depth)
        assert parse(print_state(phi)) == phi


class TestHolds:
    @pytest.mark.parametrize("cmp", ["<", "<=", ">", ">="])
    @pytest.mark.parametrize(
        "threshold",
        [Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(1)],
    )
    def test_float_verdict_is_the_exact_one(self, cmp, threshold):
        phi = ObstructQuery(1, cmp, threshold, Until(Atom("a"), Atom("b")))
        exact = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
        for v in [0.0, 0.1, math.nextafter(0.1, 0), 0.5, 5e-324, 1.0]:
            assert phi.holds(v) == phi.holds(Fraction(v)), v
            assert phi.holds(v) == exact[cmp](Fraction(v), threshold), v
