"""Command-line front end.

Each command computes one result and builds one payload, a dict of JSON
values, from it. ``--json`` prints the payload; the text form is rendered
from the payload's values, so both report the same sets, values and
strategies, and nothing is formatted twice.

Exit codes: 0 success (and, for check, initial state satisfied); 1 check
ran but the initial state does not satisfy; 2 usage or formula errors,
including a negative grade, an enumeration limit below 1, an epsilon that
is not finite and positive, a maximum iteration count below 1, a state
whose removal optimizer front outgrows its cap, a formula or strategy
file that cannot be read or is not UTF-8, a strategy file that cannot be
written, a formula number of more digits than Python converts to an int,
input nested deeper than Python's recursion limit, and ``oracle
--formula`` with ``--grade``, ``--mode`` or ``--strategy``; 3 invalid
model, or one that cannot be read or is not UTF-8; 4 no convergence, or a
step bound above the maximum iteration count; 5 oracle enumeration too
large.

``main`` owns the exit-code table: the commands raise, and ``main`` maps
``_CliError`` to its code and the engine's, oracle's and optimizer's
exceptions through ``_EXIT_CODES``. Flags must be spelled out in full.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from fractions import Fraction
from functools import partial

from . import engine, oracle
from .engine import ConvergenceError, EngineOptions
from .model import ModelError, Pots, load_model, validate
from .obstruction import (
    CostRangeError,
    MemorylessStrategy,
    load_strategy,
    save_strategy,
    strategy_doc,
    validate_strategy,
)
from .syntax import (
    ObstructQuery,
    ParseError,
    PathFormula,
    Release,
    StateFormula,
    Until,
    parse,
    parse_path_formula,
    print_path,
    print_state,
)

EXIT_UNSAT = 1
EXIT_USAGE = 2
EXIT_BAD_MODEL = 3
EXIT_NO_CONVERGENCE = 4
EXIT_ORACLE_LIMIT = 5


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _float_texts(values: dict[str, float]) -> dict[str, str]:
    """Each state's value, in state order; integral ones print as ints."""
    return {q: str(int(v)) if v == int(v) else repr(v) for q, v in sorted(values.items())}


def _report_text(heading: str, report: list[str]) -> str:
    return heading + "".join(f"\n  - {line}" for line in report)


def _load(load, path: str, what: str, code: int, check=lambda loaded: []):
    """Read a model or strategy file; ``check`` reports what makes it invalid."""
    try:
        loaded = load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {what}: {exc}", code)
    except ModelError as exc:
        raise _CliError(f"invalid {what}: {exc}", code)
    report = check(loaded)
    if report:
        raise _CliError(_report_text(f"invalid {what}:", report), code)
    return loaded


def _load_valid_model(path: str) -> Pots:
    return _load(load_model, path, "model", EXIT_BAD_MODEL, validate)


def _load_strategy_for(model: Pots, path: str) -> MemorylessStrategy:
    return _load(load_strategy, path, "strategy", EXIT_USAGE, partial(validate_strategy, model))


def _read_formula(args) -> StateFormula:
    if getattr(args, "formula_file", None) is not None:
        try:
            with open(args.formula_file, "r", encoding="utf-8") as handle:
                text = handle.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise _CliError(f"cannot read formula file: {exc}", EXIT_USAGE)
    else:
        text = args.formula
    try:
        return parse(text)
    except ParseError as exc:
        raise _CliError(f"formula error: {exc}", EXIT_USAGE)


def _read_path(args) -> PathFormula:
    try:
        return parse_path_formula(args.path)
    except ParseError as exc:
        raise _CliError(f"path formula error: {exc}", EXIT_USAGE)


def _engine_options(args) -> EngineOptions:
    try:
        return EngineOptions(
            epsilon=args.epsilon,
            max_iterations=args.max_iterations,
            solver=args.solver,
        )
    except ValueError as exc:
        raise _CliError(f"bad engine option: {exc}", EXIT_USAGE)


# -- subcommands ------------------------------------------------------------


def _engine_payload(formula, sat, values, mode, grade, iterations, warnings) -> dict:
    """The payload of check, from its ``CheckResult``'s fields, and of prob,
    whose ``sat`` is always empty."""
    return {
        "formula": formula,
        "sat": sorted(sat),
        "probabilities": None if values is None else _float_texts(values),
        "mode": mode,
        "grade": grade,
        "iterations": iterations,
        "warnings": warnings,
    }


def _exact_payload(mode: str, grade: int, values: dict[str, Fraction]) -> dict:
    """The oracle's mode, grade and exact values, as a payload's keys."""
    # str() refuses ints past the interpreter's digit limit (4,300 by
    # default); an integral Decimal converts exactly and prints every digit
    texts = {q: f"{Decimal(v.numerator)}/{Decimal(v.denominator)}" for q, v in values.items()}
    return {"mode": mode, "grade": grade, "values": dict(sorted(texts.items()))}


def _set_text(states: list[str]) -> str:
    return "{" + ", ".join(states) + "}"


def _verdict_lines(payload: dict, initial: str) -> list[str]:
    verdict = "satisfies" if initial in payload["sat"] else "does not satisfy"
    return [
        f"formula:   {payload['formula']}",
        f"sat:       {_set_text(payload['sat'])}",
        f"initial:   {initial} {verdict}",
    ]


def _value_lines(payload: dict, key: str, *middle: str) -> list[str]:
    """The path formula, any ``middle`` lines, then each state's value."""
    values = [f"{q}: {t}" for q, t in payload[key].items()]
    return [f"path:      {payload['formula']}", *middle, *values]


def _warning_lines(payload: dict) -> list[str]:
    return [f"warning:   {warning}" for warning in payload["warnings"]]


def _cmd_check(args) -> tuple[int, dict, list[str]]:
    model = _load_valid_model(args.model)
    result = engine.check(model, _read_formula(args), _engine_options(args))
    payload = _engine_payload(**vars(result))
    lines = _verdict_lines(payload, model.initial)
    if payload["probabilities"] is not None:
        rendered = ", ".join(f"{q}={t}" for q, t in payload["probabilities"].items())
        lines.append(f"prob[{payload['mode']}, grade {payload['grade']}]: {rendered}")
    lines += _warning_lines(payload)
    return 0 if model.initial in result.sat else EXIT_UNSAT, payload, lines


def _cmd_prob(args) -> tuple[int, dict, list[str]]:
    model = _load_valid_model(args.model)
    theta = _read_path(args)
    opts = _engine_options(args)
    stats = engine.Stats()
    if args.strategy is not None:
        strategy = _load_strategy_for(model, args.strategy)
        sat1, sat2 = engine.operand_sets(model, theta, opts, stats)
        values = engine.prob_fixed(model, strategy, theta, sat1, sat2, opts, stats)
        mode, grade = "fixed", strategy.grade
    else:
        values = engine.path_values(model, theta, args.grade, args.mode, opts, stats)
        mode, grade = args.mode, args.grade
    if args.state is not None:
        if args.state not in model.states:
            raise _CliError(f"unknown state {args.state!r}", EXIT_USAGE)
        values = {args.state: values[args.state]}
    payload = _engine_payload(
        print_path(theta), (), values, mode, grade, stats.iterations, stats.warnings
    )
    return 0, payload, _value_lines(payload, "probabilities") + _warning_lines(payload)


def _cmd_synthesize(args) -> tuple[int, dict, list[str]]:
    model = _load_valid_model(args.model)
    theta = _read_path(args)
    opts = _engine_options(args)
    stats = engine.Stats()
    sat1, sat2 = engine.operand_sets(model, theta, opts, stats)
    strategy, values = engine.synthesize(model, theta, sat1, sat2, args.grade, opts, stats)
    if args.output is not None:
        try:
            save_strategy(strategy, args.output)
        except OSError as exc:
            raise _CliError(f"cannot write strategy: {exc}", EXIT_USAGE)
    payload = {
        "formula": print_path(theta),
        "grade": args.grade,
        "mode": "min",
        "strategy": strategy_doc(strategy),
        "probabilities": _float_texts(values),
        "iterations": stats.iterations,
        "warnings": stats.warnings,
    }
    shown = f"strategy:  {json.dumps(payload['strategy'], indent=2)}"
    lines = _value_lines(payload, "probabilities", shown)
    if args.output is not None:
        lines.append(f"written:   {args.output}")
    lines += _warning_lines(payload)
    return 0, payload, lines


def _cmd_validate(args) -> tuple[int, dict, list[str]]:
    report = validate(_load(load_model, args.model, "model", EXIT_BAD_MODEL))
    payload = {"model": args.model, "violations": report}
    heading = f"model {args.model} is {'invalid:' if report else 'valid'}"
    return EXIT_BAD_MODEL if report else 0, payload, [_report_text(heading, report)]


def _cmd_oracle(args) -> tuple[int, dict, list[str]]:
    path_flags = ("grade", "mode", "strategy")
    passed = [f"--{name}" for name in path_flags if vars(args)[name] is not None]
    if args.formula is not None and passed:
        raise _CliError(f"only --path takes {' and '.join(passed)}, not --formula", EXIT_USAGE)
    model = _load_valid_model(args.model)
    limit, cap = args.limit, args.max_iterations
    if args.formula is not None:
        phi = _read_formula(args)
        if isinstance(phi, ObstructQuery):
            values = oracle.oracle_query_values(model, phi, limit, cap)
            satisfied = frozenset(q for q, v in values.items() if phi.holds(v))
            query = _exact_payload(phi.mode, phi.grade, values)
        else:
            satisfied, query = oracle.oracle_sat(model, phi, limit, cap), {}
        payload = {
            "formula": print_state(phi),
            "sat": sorted(satisfied),
            "initial": model.initial,
            "satisfied": model.initial in satisfied,
            **query,
        }
        lines = _verdict_lines(payload, model.initial)
        lines += [f"{q}: {t}" for q, t in query.get("values", {}).items()]
        return 0, payload, lines
    theta = _read_path(args)
    sat1, sat2 = oracle.operand_sets(model, theta, limit, cap)
    mode, grade, witnesses = args.mode or "min", args.grade or 0, {}
    if args.strategy is not None:
        strategy = _load_strategy_for(model, args.strategy)
        mode, grade = "fixed", strategy.grade
        values = oracle.exact_prob(model, strategy, theta, sat1, sat2, cap)
    else:
        result = oracle.path_optimum(model, theta, sat1, sat2, grade, mode, limit, cap)
        values, witnesses = result.values, result.witnesses
    payload = {"formula": print_path(theta), **_exact_payload(mode, grade, values)}
    if witnesses:
        payload["witnesses"] = {
            q: strategy_doc(w)["removal"] for q, w in sorted(witnesses.items())
        }
    return 0, payload, _value_lines(payload, "values")


def _diff(search: frozenset[str], exact: frozenset[str]) -> dict:
    return {"search_only": sorted(search - exact), "oracle_only": sorted(exact - search)}


def _cmd_conformance(args) -> tuple[int, dict, list[str]]:
    model = _load_valid_model(args.model)
    theta = _read_path(args)
    if not isinstance(theta, (Until, Release)):
        raise _CliError(
            "conformance reports cover the unbounded until and release operators",
            EXIT_USAGE,
        )
    release = isinstance(theta, Release)
    sat1, sat2 = oracle.operand_sets(model, theta, args.limit, args.max_iterations)
    algo_zero = engine.qual_zero_search(model, sat1, sat2, args.grade, release)
    algo_one = engine.qual_one_search(model, sat1, sat2, args.grade, algo_zero, release)
    values = oracle.path_optimum(
        model, theta, sat1, sat2, args.grade, "min", args.limit, args.max_iterations
    ).values
    oracle_zero = frozenset(q for q, v in values.items() if v == 0)
    oracle_one = frozenset(q for q, v in values.items() if v == 1)
    payload = {
        "formula": print_path(theta),
        "grade": args.grade,
        "mode": "min",
        "backward_search_zero": sorted(algo_zero),
        "backward_search_one": sorted(algo_one),
        "oracle_zero": sorted(oracle_zero),
        "oracle_one": sorted(oracle_one),
        "zero_diff": _diff(algo_zero, oracle_zero),
        "one_diff": _diff(algo_one, oracle_one),
    }
    agrees = algo_zero == oracle_zero and algo_one == oracle_one
    lines = [
        f"path:           {payload['formula']} (grade {payload['grade']}, min mode)",
        f"search zero:    {_set_text(payload['backward_search_zero'])}",
        f"oracle zero:    {_set_text(payload['oracle_zero'])}",
        f"search one:     {_set_text(payload['backward_search_one'])}",
        f"oracle one:     {_set_text(payload['oracle_one'])}",
        "agreement:      exact" if agrees else "agreement:      DIFFERS (informational)",
    ]
    return 0, payload, lines


# -- argument parsing -----------------------------------------------------------


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_engine_flags(sub) -> None:
    defaults = engine.DEFAULT_OPTIONS
    sub.add_argument("--epsilon", type=float, default=defaults.epsilon)
    sub.add_argument("--max-iterations", type=int, default=defaults.max_iterations)
    sub.add_argument("--solver", choices=["vi", "pi"], default=defaults.solver)


def _add_oracle_flags(sub) -> None:
    sub.add_argument("--limit", type=positive_int, default=oracle.DEFAULT_LIMIT)
    # the engine's cap, so both sides refuse the same step bounds
    sub.add_argument(
        "--max-iterations", type=positive_int, default=engine.DEFAULT_OPTIONS.max_iterations
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potl",
        description="Model check obstruction queries over probabilistic "
        "structures with edge-removal costs.",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help, allow_abbrev=False)
        sub.add_argument("--model", required=True)
        sub.set_defaults(func=func)
        return sub

    check = command("check", _cmd_check, "decide a state formula")
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--formula-file")
    _add_engine_flags(check)

    prob = command("prob", _cmd_prob, "per-state path probabilities")
    prob.add_argument("--path", required=True)
    prob.add_argument("--grade", type=non_negative_int, default=0)
    prob.add_argument("--mode", choices=["min", "max"], default="min")
    prob.add_argument("--state")
    prob.add_argument("--strategy", help="evaluate this fixed strategy instead")
    _add_engine_flags(prob)

    synth = command("synthesize", _cmd_synthesize, "extract a witness strategy")
    synth.add_argument("--path", required=True)
    synth.add_argument("--grade", type=non_negative_int, required=True)
    synth.add_argument("--output", "-o")
    _add_engine_flags(synth)

    command("validate", _cmd_validate, "check model well-formedness")

    orc = command("oracle", _cmd_oracle, "exact rational ground truth")
    group = orc.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--path")
    # None unless given, so that --formula can refuse them
    orc.add_argument("--grade", type=non_negative_int)
    orc.add_argument("--mode", choices=["min", "max"])
    orc.add_argument("--strategy")
    _add_oracle_flags(orc)

    conf = command("conformance", _cmd_conformance, "backward-search transcriptions vs oracle sets")
    conf.add_argument("--path", required=True)
    conf.add_argument("--grade", type=non_negative_int, required=True)
    _add_oracle_flags(conf)

    # last, so that it ends every usage line
    for sub in subparsers.choices.values():
        sub.add_argument("--json", action="store_true")
    return parser


# what the engine, the oracle and the removal optimizer raise, by exit code
_EXIT_CODES = {
    CostRangeError: EXIT_USAGE,
    ConvergenceError: EXIT_NO_CONVERGENCE,
    oracle.StepLimit: EXIT_NO_CONVERGENCE,
    oracle.EnumerationLimit: EXIT_ORACLE_LIMIT,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        # every command's text has at least one line
        print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
        return code
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except tuple(_EXIT_CODES) as exc:
        print(str(exc), file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    except RecursionError:
        # parsing, checking and printing recurse once per nesting level
        print("input nested too deeply: Python's recursion limit was reached", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
