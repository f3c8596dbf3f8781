"""Formula syntax: AST, lexer, recursive-descent parser, printer.

State layer: true | false | atoms | ! & | -> | <<n CMP k>> path.
Path layer: the five core constructors X, U, R, U<=k and R<=k. The parser
reads the F / G / W sugar straight into them: F p = true U p,
G p = false R p, p W q = q R (p | q), and likewise for F<=k and G<=k.
Thresholds are exact rationals; no parse-time rounding.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .model import decimal_terminates, fraction_to_decimal


class ParseError(ValueError):
    """Lexical or syntactic error, with the offset where it occurred."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- AST -------------------------------------------------------------------


class StateFormula:
    __slots__ = ()


class PathFormula:
    __slots__ = ()


@dataclass(frozen=True)
class TrueConst(StateFormula):
    pass


@dataclass(frozen=True)
class FalseConst(StateFormula):
    pass


@dataclass(frozen=True)
class Atom(StateFormula):
    name: str


@dataclass(frozen=True)
class Not(StateFormula):
    body: StateFormula


@dataclass(frozen=True)
class And(StateFormula):
    left: StateFormula
    right: StateFormula


@dataclass(frozen=True)
class Or(StateFormula):
    left: StateFormula
    right: StateFormula


@dataclass(frozen=True)
class Implies(StateFormula):
    left: StateFormula
    right: StateFormula


@dataclass(frozen=True)
class ObstructQuery(StateFormula):
    """<<grade cmp threshold>> body: some removal strategy within the cost
    budget ``grade`` drives the body's probability into relation with the
    threshold."""

    grade: int
    cmp: str  # one of < <= > >=
    threshold: Fraction
    body: PathFormula

    def __post_init__(self):
        if self.grade < 0:
            raise ValueError("grade must be non-negative")
        if self.cmp not in ("<", "<=", ">", ">="):
            raise ValueError(f"bad comparison {self.cmp!r}")
        if not (0 <= self.threshold <= 1):
            raise ValueError("threshold must lie in [0, 1]")

    @property
    def mode(self) -> str:
        """The obstructor the query is decided against: the minimizer for
        ``<``/``<=``, the maximizer for ``>``/``>=``."""
        return "min" if self.cmp in ("<", "<=") else "max"

    def holds(self, value: float | Fraction) -> bool:
        """Whether a probability, a float or an exact rational, satisfies the
        comparison, decided exactly by one integer cross-multiplication."""
        num, den = value.as_integer_ratio()
        threshold = self.threshold
        return _COMPARISONS[self.cmp](
            num * threshold.denominator, threshold.numerator * den
        )


_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Next(PathFormula):
    body: StateFormula


@dataclass(frozen=True)
class Until(PathFormula):
    left: StateFormula
    right: StateFormula


@dataclass(frozen=True)
class BoundedUntil(PathFormula):
    left: StateFormula
    right: StateFormula
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be non-negative")


@dataclass(frozen=True)
class Release(PathFormula):
    left: StateFormula
    right: StateFormula


@dataclass(frozen=True)
class BoundedRelease(PathFormula):
    left: StateFormula
    right: StateFormula
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be non-negative")


TRUE = TrueConst()
FALSE = FalseConst()

KEYWORDS = {"true", "false", "X", "F", "G", "U", "R", "W"}


# -- lexer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<langle>\<\<) | (?P<rangle>\>\>)
  | (?P<le>\<=) | (?P<ge>\>=) | (?P<arrow>-\>)
  | (?P<lt>\<) | (?P<gt>\>)
  | (?P<decimal>\d+\.\d+)
  | (?P<nat>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[!&|()/])
""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            value = match.group()
            if kind == "name" and value in KEYWORDS:
                kind = value
            elif kind == "punct":
                kind = value
            tokens.append(Token(kind, value, pos))
        pos = match.end()
    tokens.append(Token("eof", "", len(text)))
    return tokens


def _integer(tok: Token) -> int:
    """The digits of a numeral token, a decimal's point dropped, as an int."""
    digits = tok.text.replace(".", "")
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts from text
        raise ParseError(
            f"number has {len(digits)} digits, more than the interpreter's "
            f"limit of {sys.get_int_max_str_digits()}",
            tok.pos,
        ) from None


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        # parse_state's outcome per start token: (formula or ParseError, end)
        self.memo: dict[int, tuple[StateFormula | ParseError, int]] = {}

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what or kind}, found {tok.text or 'end of input'!r}",
                tok.pos,
            )
        return self.advance()

    # state := implies ; implies := or ('->' implies)? ; or := and ('|' and)*
    # and := unary ('&' unary)* ; unary := '!' unary | primary

    def parse_state(self) -> StateFormula:
        # memoized by start token, failures too: the parenthesis back-off in
        # parse_path reads the same operand again, once per enclosing level
        start = self.i
        if start in self.memo:
            outcome, self.i = self.memo[start]
            if isinstance(outcome, ParseError):
                raise outcome
            return outcome
        try:
            out = self.parse_or()
            if self.peek().kind == "arrow":
                self.advance()
                out = Implies(out, self.parse_state())
        except ParseError as exc:
            self.memo[start] = (exc, start)
            raise
        self.memo[start] = (out, self.i)
        return out

    def parse_or(self) -> StateFormula:
        out = self.parse_and()
        while self.peek().kind == "|":
            self.advance()
            out = Or(out, self.parse_and())
        return out

    def parse_and(self) -> StateFormula:
        out = self.parse_unary()
        while self.peek().kind == "&":
            self.advance()
            out = And(out, self.parse_unary())
        return out

    def parse_unary(self) -> StateFormula:
        tok = self.peek()
        if tok.kind == "!":
            self.advance()
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> StateFormula:
        tok = self.peek()
        if tok.kind == "true":
            self.advance()
            return TRUE
        if tok.kind == "false":
            self.advance()
            return FALSE
        if tok.kind == "name":
            self.advance()
            return Atom(tok.text)
        if tok.kind == "(":
            self.advance()
            inner = self.parse_state()
            self.expect(")")
            return inner
        if tok.kind == "langle":
            return self.parse_query()
        raise ParseError(
            f"expected a formula, found {tok.text or 'end of input'!r}", tok.pos
        )

    def parse_query(self) -> StateFormula:
        self.expect("langle")
        grade_tok = self.expect("nat", "grade")
        cmp_tok = self.peek()
        if cmp_tok.kind not in ("lt", "le", "gt", "ge"):
            raise ParseError(
                f"expected a comparison, found {cmp_tok.text!r}", cmp_tok.pos
            )
        self.advance()
        cmp = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}[cmp_tok.kind]
        threshold = self.parse_prob()
        self.expect("rangle", "'>>'")
        body = self.parse_path()
        return ObstructQuery(_integer(grade_tok), cmp, threshold, body)

    def parse_prob(self) -> Fraction:
        tok = self.peek()
        if tok.kind == "decimal":
            self.advance()
            digits = tok.text.partition(".")[2]
            value = Fraction(_integer(tok), 10 ** len(digits))
        elif tok.kind == "nat":
            self.advance()
            value = Fraction(_integer(tok))
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("nat", "denominator")
                denominator = _integer(den)
                if denominator == 0:
                    raise ParseError("zero denominator", den.pos)
                value /= denominator
        else:
            raise ParseError(
                f"expected a probability, found {tok.text or 'end of input'!r}",
                tok.pos,
            )
        if not (0 <= value <= 1):
            raise ParseError(f"threshold {value} out of [0, 1]", tok.pos)
        return value

    def parse_bound(self) -> int:
        self.expect("le", "'<='")
        return _integer(self.expect("nat", "step bound"))

    def parse_path(self) -> PathFormula:
        tok = self.peek()
        if tok.kind == "X":
            self.advance()
            return Next(self.parse_state())
        if tok.kind in ("F", "G"):
            # F p = true U p, G p = false R p, and likewise step-bounded
            self.advance()
            bound = self.parse_bound() if self.peek().kind == "le" else None
            op, left = ("U", TRUE) if tok.kind == "F" else ("R", FALSE)
            return _core(op, left, self.parse_state(), bound)
        if tok.kind == "(":
            # either a parenthesized path formula or a parenthesized state
            # operand of a binary path operator; try the former, back off
            mark = self.i
            self.advance()
            try:
                inner = self.parse_path()
                self.expect(")")
                return inner
            except ParseError:
                self.i = mark
        return self.parse_binary_path()

    def parse_binary_path(self) -> PathFormula:
        left = self.parse_state()
        op = self.peek()
        if op.kind not in ("U", "R", "W"):
            raise ParseError(
                f"expected 'U', 'R' or 'W', found {op.text or 'end of input'!r}",
                op.pos,
            )
        self.advance()
        bound = None
        if op.kind in ("U", "R") and self.peek().kind == "le":
            bound = self.parse_bound()
        right = self.parse_state()
        if op.kind == "W":
            return Release(right, Or(left, right))  # p W q = q R (p | q)
        return _core(op.kind, left, right, bound)


_CORE = {"U": (Until, BoundedUntil), "R": (Release, BoundedRelease)}


def _core(op: str, left: StateFormula, right: StateFormula, bound: int | None) -> PathFormula:
    """Until or release (``op`` "U" or "R"), step-bounded when ``bound`` is set."""
    unbounded, bounded = _CORE[op]
    return unbounded(left, right) if bound is None else bounded(left, right, bound)


def parse(text: str) -> StateFormula:
    """Parse a state formula. Path sugar (F, G, W and their bounds) comes
    out as the core constructors; boolean connectives are preserved."""
    parser = _Parser(text)
    formula = parser.parse_state()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return formula


def parse_path_formula(text: str) -> PathFormula:
    """Parse a bare path formula (the body of a query)."""
    parser = _Parser(text)
    formula = parser.parse_path()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return formula


# -- structural helpers ------------------------------------------------------


def formula_size(phi: StateFormula | PathFormula) -> int:
    """Number of connectives (state and path operators; leaves count 0)."""
    if isinstance(phi, (TrueConst, FalseConst, Atom)):
        return 0
    if isinstance(phi, (Not, ObstructQuery, Next)):
        return 1 + formula_size(phi.body)
    if isinstance(phi, (And, Or, Implies, Until, BoundedUntil, Release, BoundedRelease)):
        return 1 + formula_size(phi.left) + formula_size(phi.right)
    raise TypeError(f"not a formula: {phi!r}")


# -- printer -----------------------------------------------------------------

_PREC = {Implies: 1, Or: 2, And: 3, Not: 4}


def threshold_text(k: Fraction) -> str:
    """Decimal rendering when it terminates in few digits, else num/den."""
    if decimal_terminates(k):
        text = fraction_to_decimal(k)  # "0", "1", "0.1", ...
        if len(text) <= 14:
            return text
    return f"{k.numerator}/{k.denominator}"


def print_state(phi: StateFormula) -> str:
    """Minimal-parenthesis rendering; parse(print_state(phi)) == phi."""
    return _print_state(phi, 0)


def _print_state(phi: StateFormula, parent_prec: int) -> str:
    if isinstance(phi, TrueConst):
        return "true"
    if isinstance(phi, FalseConst):
        return "false"
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Not):
        return _wrap(f"!{_print_state(phi.body, _PREC[Not])}", _PREC[Not], parent_prec)
    if isinstance(phi, And):
        mine = _PREC[And]
        text = f"{_print_state(phi.left, mine)} & {_print_state(phi.right, mine + 1)}"
        return _wrap(text, mine, parent_prec)
    if isinstance(phi, Or):
        mine = _PREC[Or]
        text = f"{_print_state(phi.left, mine)} | {_print_state(phi.right, mine + 1)}"
        return _wrap(text, mine, parent_prec)
    if isinstance(phi, Implies):
        mine = _PREC[Implies]
        text = f"{_print_state(phi.left, mine + 1)} -> {_print_state(phi.right, mine)}"
        return _wrap(text, mine, parent_prec)
    if isinstance(phi, ObstructQuery):
        head = f"<<{phi.grade} {phi.cmp} {threshold_text(phi.threshold)}>>"
        text = f"{head} {print_path(phi.body)}"
        return _wrap(text, _PREC[Implies], parent_prec)
    raise TypeError(f"not a state formula: {phi!r}")


def _wrap(text: str, mine: int, parent: int) -> str:
    return f"({text})" if mine < parent else text


def _print_operand(phi: StateFormula) -> str:
    # binary path operands: atoms and queries stand bare, connectives get parens
    if isinstance(phi, (TrueConst, FalseConst, Atom)):
        return _print_state(phi, 0)
    if isinstance(phi, Not):
        return _print_state(phi, 0)
    return f"({_print_state(phi, 0)})"


def print_path(theta: PathFormula) -> str:
    if isinstance(theta, Next):
        return f"X {_print_operand(theta.body)}"
    if isinstance(theta, Until):
        return f"{_print_operand(theta.left)} U {_print_operand(theta.right)}"
    if isinstance(theta, BoundedUntil):
        return f"{_print_operand(theta.left)} U<={theta.bound} {_print_operand(theta.right)}"
    if isinstance(theta, Release):
        return f"{_print_operand(theta.left)} R {_print_operand(theta.right)}"
    if isinstance(theta, BoundedRelease):
        return f"{_print_operand(theta.left)} R<={theta.bound} {_print_operand(theta.right)}"
    raise TypeError(f"not a path formula: {theta!r}")
