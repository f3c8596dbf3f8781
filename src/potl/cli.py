"""Command-line front end.

Exit codes: 0 success (and, for check, initial state satisfied); 1 check
ran but the initial state does not satisfy; 2 usage or formula errors,
including a negative grade, an enumeration limit below 1, an epsilon that
is not finite and positive, a maximum iteration count below 1, a state
whose removal optimizer front outgrows its cap, a formula or strategy
file that cannot be read or is not UTF-8, a strategy file that cannot be
written, a formula number of more digits than Python converts to an int,
and input nested deeper than Python's recursion limit; 3 invalid model,
or one that cannot be read or is not UTF-8; 4 no convergence, or a step
bound above the maximum iteration count; 5 oracle enumeration too large.

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

from . import engine, oracle
from .engine import ConvergenceError, EngineOptions
from .model import ModelError, Pots, load_model, validate
from .obstruction import (
    CostRangeError,
    MemorylessStrategy,
    load_strategy,
    save_strategy,
    strategy_to_json,
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


def _float_text(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return repr(v)


def _rational_text(v: Fraction) -> str:
    # str() refuses ints past the interpreter's digit limit (4,300 by
    # default); an integral Decimal converts exactly and prints every digit
    return f"{Decimal(v.numerator)}/{Decimal(v.denominator)}"


def _load_model(path: str) -> Pots:
    try:
        return load_model(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read model: {exc}", EXIT_BAD_MODEL)
    except ModelError as exc:
        raise _CliError(f"invalid model: {exc}", EXIT_BAD_MODEL)


def _load_valid_model(path: str) -> Pots:
    model = _load_model(path)
    report = validate(model)
    if report:
        raise _CliError(
            "invalid model:\n" + "\n".join(f"  - {line}" for line in report),
            EXIT_BAD_MODEL,
        )
    return model


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


def _result_payload(result: engine.CheckResult) -> dict:
    return {
        "formula": result.formula,
        "sat": sorted(result.sat),
        "probabilities": None
        if result.values is None
        else {q: _float_text(v) for q, v in sorted(result.values.items())},
        "mode": result.mode,
        "grade": result.grade,
        "iterations": result.iterations,
        "warnings": result.warnings,
    }


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


# -- subcommands ------------------------------------------------------------


def _cmd_check(args) -> int:
    model = _load_valid_model(args.model)
    phi = _read_formula(args)
    opts = _engine_options(args)
    result = engine.check(model, phi, opts)
    satisfied = model.initial in result.sat
    lines = [
        f"formula:   {result.formula}",
        f"sat:       {{{', '.join(sorted(result.sat))}}}",
        f"initial:   {model.initial} {'satisfies' if satisfied else 'does not satisfy'}",
    ]
    if result.values is not None:
        rendered = ", ".join(
            f"{q}={_float_text(v)}" for q, v in sorted(result.values.items())
        )
        lines.append(f"prob[{result.mode}, grade {result.grade}]: {rendered}")
    for warning in result.warnings:
        lines.append(f"warning:   {warning}")
    _emit(args, _result_payload(result), lines)
    return 0 if satisfied else EXIT_UNSAT


def _cmd_prob(args) -> int:
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
    result = engine.CheckResult(
        formula=print_path(theta),
        sat=frozenset(),
        values=values,
        mode=mode,
        grade=grade,
        iterations=stats.iterations,
        warnings=stats.warnings,
    )
    lines = [f"path:      {result.formula}"]
    lines += [f"{q}: {_float_text(v)}" for q, v in sorted(values.items())]
    for warning in result.warnings:
        lines.append(f"warning:   {warning}")
    _emit(args, _result_payload(result), lines)
    return 0


def _load_strategy_for(model: Pots, path: str) -> MemorylessStrategy:
    try:
        strategy = load_strategy(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read strategy: {exc}", EXIT_USAGE)
    except ModelError as exc:
        raise _CliError(f"invalid strategy: {exc}", EXIT_USAGE)
    report = validate_strategy(model, strategy)
    if report:
        raise _CliError(
            "invalid strategy:\n" + "\n".join(f"  - {line}" for line in report),
            EXIT_USAGE,
        )
    return strategy


def _cmd_synthesize(args) -> int:
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
        "strategy": json.loads(strategy_to_json(strategy)),
        "probabilities": {q: _float_text(v) for q, v in sorted(values.items())},
        "iterations": stats.iterations,
        "warnings": stats.warnings,
    }
    lines = [
        f"path:      {print_path(theta)}",
        f"strategy:  {strategy_to_json(strategy)}",
    ]
    lines += [f"{q}: {_float_text(v)}" for q, v in sorted(values.items())]
    if args.output is not None:
        lines.append(f"written:   {args.output}")
    _emit(args, payload, lines)
    return 0


def _cmd_validate(args) -> int:
    model = _load_model(args.model)
    report = validate(model)
    payload = {"model": args.model, "violations": report}
    lines = (
        [f"model {args.model} is valid"]
        if not report
        else [f"model {args.model} is invalid:"] + [f"  - {line}" for line in report]
    )
    _emit(args, payload, lines)
    return 0 if not report else EXIT_BAD_MODEL


def _cmd_oracle(args) -> int:
    model = _load_valid_model(args.model)
    if args.formula is not None:
        phi = _read_formula(args)
        query = {}
        if isinstance(phi, ObstructQuery):
            values = oracle.oracle_query_values(model, phi, args.limit, args.max_iterations)
            satisfied = frozenset(q for q, v in values.items() if phi.holds(v))
            query = {
                "mode": phi.mode,
                "grade": phi.grade,
                "values": {q: _rational_text(v) for q, v in sorted(values.items())},
            }
        else:
            satisfied = oracle.oracle_sat(model, phi, args.limit, args.max_iterations)
        payload = {
            "formula": print_state(phi),
            "sat": sorted(satisfied),
            "initial": model.initial,
            "satisfied": model.initial in satisfied,
            **query,
        }
        lines = [
            f"formula:   {payload['formula']}",
            f"sat:       {{{', '.join(payload['sat'])}}}",
            f"initial:   {model.initial} "
            f"{'satisfies' if payload['satisfied'] else 'does not satisfy'}",
        ]
        lines += [f"{q}: {t}" for q, t in query.get("values", {}).items()]
        _emit(args, payload, lines)
        return 0
    theta = _read_path(args)
    cap = args.max_iterations
    sat1, sat2 = oracle.operand_sets(model, theta, args.limit, cap)
    mode, grade, witnesses = args.mode, args.grade, {}
    if args.strategy is not None:
        strategy = _load_strategy_for(model, args.strategy)
        mode, grade = "fixed", strategy.grade
        values = oracle.exact_prob(model, strategy, theta, sat1, sat2, cap)
    else:
        result = oracle.path_optimum(model, theta, sat1, sat2, grade, mode, args.limit, cap)
        values, witnesses = result.values, result.witnesses
    payload = {
        "formula": print_path(theta),
        "mode": mode,
        "grade": grade,
        "values": {q: _rational_text(v) for q, v in sorted(values.items())},
    }
    if witnesses:
        payload["witnesses"] = {
            q: json.loads(strategy_to_json(w))["removal"] for q, w in sorted(witnesses.items())
        }
    lines = [f"path:      {payload['formula']}"]
    lines += [f"{q}: {t}" for q, t in payload["values"].items()]
    _emit(args, payload, lines)
    return 0


def _cmd_conformance(args) -> int:
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
        "zero_diff": {
            "search_only": sorted(algo_zero - oracle_zero),
            "oracle_only": sorted(oracle_zero - algo_zero),
        },
        "one_diff": {
            "search_only": sorted(algo_one - oracle_one),
            "oracle_only": sorted(oracle_one - algo_one),
        },
    }
    agrees = algo_zero == oracle_zero and algo_one == oracle_one
    lines = [
        f"path:           {payload['formula']} (grade {args.grade}, min mode)",
        f"search zero:    {{{', '.join(payload['backward_search_zero'])}}}",
        f"oracle zero:    {{{', '.join(payload['oracle_zero'])}}}",
        f"search one:     {{{', '.join(payload['backward_search_one'])}}}",
        f"oracle one:     {{{', '.join(payload['oracle_one'])}}}",
        "agreement:      exact" if agrees else "agreement:      DIFFERS (informational)",
    ]
    _emit(args, payload, lines)
    return 0


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
    check.add_argument("--json", action="store_true")

    prob = command("prob", _cmd_prob, "per-state path probabilities")
    prob.add_argument("--path", required=True)
    prob.add_argument("--grade", type=non_negative_int, default=0)
    prob.add_argument("--mode", choices=["min", "max"], default="min")
    prob.add_argument("--state")
    prob.add_argument("--strategy", help="evaluate this fixed strategy instead")
    _add_engine_flags(prob)
    prob.add_argument("--json", action="store_true")

    synth = command("synthesize", _cmd_synthesize, "extract a witness strategy")
    synth.add_argument("--path", required=True)
    synth.add_argument("--grade", type=non_negative_int, required=True)
    synth.add_argument("--output", "-o")
    _add_engine_flags(synth)
    synth.add_argument("--json", action="store_true")

    val = command("validate", _cmd_validate, "check model well-formedness")
    val.add_argument("--json", action="store_true")

    orc = command("oracle", _cmd_oracle, "exact rational ground truth")
    group = orc.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--path")
    orc.add_argument("--grade", type=non_negative_int, default=0)
    orc.add_argument("--mode", choices=["min", "max"], default="min")
    orc.add_argument("--strategy")
    _add_oracle_flags(orc)
    orc.add_argument("--json", action="store_true")

    conf = command("conformance", _cmd_conformance, "backward-search transcriptions vs oracle sets")
    conf.add_argument("--path", required=True)
    conf.add_argument("--grade", type=non_negative_int, required=True)
    _add_oracle_flags(conf)
    conf.add_argument("--json", action="store_true")

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
        return args.func(args)
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
