import json
import os
import pathlib
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

import potl.oracle
from potl.cli import build_parser, main
from potl.engine import DEFAULT_OPTIONS
from potl.generate import scaling_model
from potl.model import dumps_model, load_model
from potl.obstruction import load_strategy, validate_strategy
from potl.syntax import parse_path_formula

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestCheck:
    def test_satisfied_formula_exits_zero(self, capsys, attack_graph_path):
        code, payload, _ = run_json(
            capsys, "check", "--model", attack_graph_path,
            "--formula", "<<4 < 0.1>> F (r2 | r3)",
        )
        assert code == 0
        assert payload["sat"] == ["S0", "S1"]
        assert payload["mode"] == "min"
        assert payload["grade"] == 4
        assert payload["probabilities"]["S0"] == "0"
        assert payload["warnings"] == []

    def test_unsatisfied_formula_exits_one(self, capsys, attack_graph_path):
        code, _, _ = run(
            capsys, "check", "--model", attack_graph_path, "--formula", "r2 & r3"
        )
        assert code == 1

    def test_formula_error_exits_two(self, capsys, attack_graph_path):
        code, _, err = run(
            capsys, "check", "--model", attack_graph_path, "--formula", "(("
        )
        assert code == 2
        assert "position" in err

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit")
    def test_number_past_the_digit_limit_exits_two(self, capsys, chain_path):
        nines = "9" * (sys.get_int_max_str_digits() + 700)
        code, out, err = run(
            capsys, "check", "--model", chain_path, "--formula", f"<<0 < 1/{nines}>> X goal"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("formula error: number has")

    def test_empty_formula_file_name_exits_two(self, capsys, chain_path):
        code, _, err = run(capsys, "check", "--model", chain_path, "--formula-file", "")
        assert code == 2
        assert "cannot read formula file" in err

    def test_bad_model_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"states": ["q"], "initial": "q", "edges": []}')
        code, _, err = run(capsys, "check", "--model", str(bad), "--formula", "true")
        assert code == 3
        assert "seriality" in err

    def test_formula_file(self, capsys, attack_graph_path, tmp_path):
        f = tmp_path / "phi.potl"
        f.write_text("<<5 < 0.2>> F r3\n")
        code, payload, _ = run_json(
            capsys, "check", "--model", attack_graph_path, "--formula-file", str(f)
        )
        assert code == 0
        assert payload["sat"] == ["S0", "S1", "S2"]

    def test_deterministic_across_runs(self, capsys, attack_graph_path):
        args = ("check", "--model", attack_graph_path, "--formula", "<<4 < 0.1>> F (r2 | r3)")
        first = run_json(capsys, *args)
        second = run_json(capsys, *args)
        assert first == second

    def test_solver_flag_accepted(self, capsys, chain_path):
        code, payload, _ = run_json(
            capsys, "check", "--model", chain_path,
            "--formula", "<<1 < 0.5>> F goal", "--solver", "pi",
        )
        assert code == 0
        assert payload["sat"] == ["q"]

    def test_non_convergence_exits_four(self, capsys, chain_path):
        code, _, err = run(
            capsys, "check", "--model", chain_path,
            "--formula", "<<0 < 0.5>> F goal", "--max-iterations", "1",
        )
        assert code == 4
        assert "convergence" in err or "iterations" in err

    def test_next_reports_its_sweep(self, capsys, chain_path):
        # X and F<=1 are both one sweep; synthesis adds its extraction sweep
        for path in ("X goal", "F<=1 goal"):
            _, payload, _ = run_json(
                capsys, "check", "--model", chain_path, "--formula", f"<<1 < 0.5>> {path}"
            )
            assert payload["iterations"] == 1, path
            _, payload, _ = run_json(
                capsys, "synthesize", "--model", chain_path, "--path", path, "--grade", "1"
            )
            assert payload["iterations"] == 2, path

    def test_step_bound_above_max_iterations_exits_four(self, capsys, chain_path):
        started = time.perf_counter()
        code, out, err = run(
            capsys, "check", "--model", chain_path,
            "--formula", "<<1 < 0.5>> F<=100000000 goal", "--max-iterations", "5",
        )
        assert time.perf_counter() - started < 5
        assert code == 4
        assert out == ""
        assert "100000000" in err

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--epsilon", "0", "epsilon"),
            ("--epsilon", "-1", "epsilon"),
            ("--epsilon", "nan", "epsilon"),
            ("--epsilon", "inf", "epsilon"),
            ("--max-iterations", "0", "max_iterations"),
            ("--max-iterations", "-5", "max_iterations"),
        ],
    )
    def test_bad_engine_flag_exits_two(self, capsys, chain_path, flag, value, name):
        code, out, err = run(
            capsys, "check", "--model", chain_path,
            "--formula", "<<0 < 0.5>> F goal", flag, value,
        )
        assert code == 2
        assert out == ""
        assert name in err

    @staticmethod
    def star_model(tmp_path, probs, costs, goals):
        """A state s with an edge to each t_i, which loops; ``goals`` are
        the indices of the t_i labelled goal."""
        targets = [f"t{i}" for i in range(len(probs))]
        edges = [
            {"from": "s", "to": t, "prob": p, "cost": c}
            for t, p, c in zip(targets, probs, costs)
        ]
        edges += [{"from": t, "to": t, "prob": "1", "cost": 0} for t in targets]
        labels = {targets[i]: ["goal"] for i in goals}
        model = tmp_path / "wide.json"
        model.write_text(json.dumps(
            {"states": ["s", *targets], "initial": "s", "labels": labels, "edges": edges}
        ))
        return str(model)

    def test_wide_cost_row_is_answered(self, capsys, tmp_path):
        # 22 edges with odd costs near 10^5, all of them affordable; only
        # the edge to t0 leads to goal, so every optimum removes it, and
        # the lexicographically smallest optimum removes it alone
        model = self.star_model(
            tmp_path, ["0.16"] + ["0.04"] * 21, [100003 + 2 * i for i in range(22)], [0]
        )
        code, payload, _ = run_json(
            capsys, "check", "--model", model, "--formula", "<<3000000 < 0.5>> X goal"
        )
        assert code == 0
        assert "s" in payload["sat"]
        assert payload["probabilities"]["s"] == "0"
        code, payload, _ = run_json(
            capsys, "synthesize", "--model", model, "--path", "X goal", "--grade", "3000000"
        )
        assert code == 0
        assert payload["strategy"]["removal"] == {"s": [["s", "t0"]]}

    def test_free_edges_are_answered(self, capsys, tmp_path):
        # 22 free edges to goal, each more likely than all later ones
        # together: at grade 0 the obstructor keeps only the edge to t21
        probs = [f"{Decimal(2**(21 - i) + (i == 0)) / 2**22:f}" for i in range(22)]
        model = self.star_model(tmp_path, probs, [0] * 22, range(22))
        code, payload, _ = run_json(
            capsys, "check", "--model", model, "--formula", "<<0 < 0.5>> X goal"
        )
        assert code == 0
        assert payload["probabilities"]["s"] == repr(2**-22)
        code, payload, _ = run_json(
            capsys, "synthesize", "--model", model, "--path", "X goal", "--grade", "0"
        )
        assert code == 0
        assert payload["strategy"]["removal"] == {"s": sorted(["s", f"t{i}"] for i in range(21))}

    def test_cost_range_too_wide_exits_two(self, capsys, tmp_path):
        # edge i costs 2**i and has probability 2**i / 2**22 (the last one
        # 2**-22 more), and every t_i is goal: every strict removal set is
        # on the optimizer's Pareto front, which outgrows its cap
        probs = [f"{Decimal(2**i + (i == 21)) / 2**22:f}" for i in range(22)]
        model = self.star_model(tmp_path, probs, [2**i for i in range(22)], range(22))
        code, out, err = run(
            capsys, "check", "--model", model, "--formula", "<<4194304 < 0.5>> X goal"
        )
        assert code == 2
        assert out == ""
        assert (
            "cost range too wide for the removal optimizer "
            "(a front of up to 2097151 pairs, degree 22)" in err
        )


class TestNegativeGrade:
    @pytest.mark.parametrize("command", ["prob", "synthesize", "oracle", "conformance"])
    def test_rejected_with_exit_two(self, capsys, chain_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", chain_path, "--path", "F goal", "--grade", "-1"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err


DEEP_PARENS = "(" * 3000 + "goal" + ")" * 3000
DEEP_NOTS = "!" * 3000 + "goal"


class TestDeepNesting:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--formula", DEEP_PARENS),
            ("check", "--formula", DEEP_NOTS),
            ("prob", "--path", "X " + DEEP_PARENS),
            ("synthesize", "--grade", "1", "--path", "F " + DEEP_NOTS),
            ("oracle", "--formula", DEEP_NOTS),
            ("conformance", "--grade", "1", "--path", "true U " + DEEP_PARENS),
        ],
        ids=["check-parens", "check-nots", "prob", "synthesize", "oracle", "conformance"],
    )
    def test_exits_two_without_traceback(self, capsys, chain_path, argv):
        code, out, err = run(capsys, argv[0], "--model", chain_path, *argv[1:])
        assert code == 2
        assert out == ""
        assert "nested too deeply" in err

    def test_deeply_nested_model_exits_three(self, capsys, tmp_path):
        model = tmp_path / "deep.json"
        model.write_text('{"states": ' + "[" * 100000 + "]" * 100000 + "}")
        code, out, err = run(capsys, "check", "--model", str(model), "--formula", "true")
        assert code == 3
        assert out == ""
        assert "nests too deeply" in err

    def test_moderate_nesting_still_checks(self, capsys, chain_path):
        plain = run_json(
            capsys, "check", "--model", chain_path, "--formula", "<<1 < 0.5>> F goal"
        )
        for formula in (
            "(" * 100 + "<<1 < 0.5>> F goal" + ")" * 100,
            "!" * 500 + "<<1 < 0.5>> F goal",
        ):
            code, payload, _ = run_json(
                capsys, "check", "--model", chain_path, "--formula", formula
            )
            assert (code, payload["sat"]) == (plain[0], plain[1]["sat"])


class TestEnumerationLimit:
    @pytest.mark.parametrize("command", ["oracle", "conformance"])
    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_non_positive_rejected_with_exit_two(self, capsys, chain_path, command, limit):
        with pytest.raises(SystemExit) as exc:
            main([
                command, "--model", chain_path, "--path", "F goal",
                "--grade", "1", "--limit", limit,
            ])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    @staticmethod
    def pinned_free_edges(tmp_path):
        """s splits between goal and t0; goal, pinned to 1 for F goal, has
        20 free edges, so 2**20 - 1 removal options."""
        targets = [f"t{i}" for i in range(20)]
        edges = [
            {"from": "s", "to": "goal", "prob": "0.5", "cost": 1},
            {"from": "s", "to": "t0", "prob": "0.5", "cost": 1},
        ]
        edges += [{"from": "goal", "to": t, "prob": "0.05", "cost": 0} for t in targets]
        edges += [{"from": t, "to": t, "prob": "1", "cost": 0} for t in targets]
        model = tmp_path / "free.json"
        model.write_text(json.dumps(
            {"states": ["s", "goal", *targets], "initial": "s",
             "labels": {"goal": ["goal"]}, "edges": edges}
        ))
        return str(model)

    def test_free_edges_of_a_pinned_state_count_toward_the_limit(self, capsys, tmp_path):
        # goal is pinned to 1 for F goal, so the walk evaluates one strategy,
        # but the limit counts the 2**20 - 1 removal options of its free edges
        model = self.pinned_free_edges(tmp_path)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "oracle", "--model", model, "--path", "F goal", "--grade", "0"
        )
        assert time.perf_counter() - start < 0.5
        assert code == 5
        assert out == ""
        assert "1048575 strategies exceed the enumeration limit of 1000000" in err

    @pytest.mark.parametrize(
        "query",
        [
            ("--path", "F goal", "--grade", "0", "--mode", "max"),
            ("--formula", "<<0 >= 0.5>> F goal"),
        ],
        ids=["path", "formula"],
    )
    def test_the_maximizer_lists_nothing(self, capsys, tmp_path, query):
        # the maximizer removes nothing, so no limit bounds it
        model = self.pinned_free_edges(tmp_path)
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", "--model", model, *query)
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (0, "")
        assert "s: 1/2" in out.splitlines()

    @pytest.mark.parametrize(
        "query",
        [
            ("--formula", "<<0 < 0.5>> X goal"),
            ("--formula", "<<0 < 0.5>> F<=2 goal"),
            ("--path", "X goal", "--grade", "0"),
        ],
        ids=["next", "bounded", "next-path"],
    )
    def test_one_states_options_count_toward_the_limit(self, capsys, tmp_path, query):
        # h's 10 free edges give it 2**10 - 1 = 1,023 removal options
        targets = [f"t{i}" for i in range(10)]
        edges = [{"from": "h", "to": t, "prob": "0.1", "cost": 0} for t in targets]
        edges += [{"from": t, "to": t, "prob": "1", "cost": 0} for t in targets]
        model = tmp_path / "free.json"
        model.write_text(json.dumps(
            {"states": ["h", *targets], "initial": "h",
             "labels": {"t0": ["goal"]}, "edges": edges}
        ))
        argv = ("oracle", "--model", str(model), *query)
        code, out, err = run(capsys, *argv, "--limit", "1000")
        assert (code, out) == (5, "")
        assert err == "1023 removal options at h exceed the enumeration limit of 1000\n"
        code, _, _ = run(capsys, *argv, "--limit", "1023")
        assert code == 0


class TestProb:
    def test_chain_min_probabilities(self, capsys, chain_path):
        code, payload, _ = run_json(
            capsys, "prob", "--model", chain_path,
            "--grade", "1", "--mode", "min", "--path", "F goal",
        )
        assert code == 0
        assert payload["probabilities"] == {"q": "0", "goal": "1"}

    def test_single_state_filter(self, capsys, chain_path):
        code, payload, _ = run_json(
            capsys, "prob", "--model", chain_path,
            "--grade", "0", "--mode", "max", "--path", "F goal", "--state", "q",
        )
        assert code == 0
        assert list(payload["probabilities"]) == ["q"]

    def test_unknown_state_rejected(self, capsys, chain_path):
        code, _, err = run(
            capsys, "prob", "--model", chain_path, "--path", "F goal",
            "--state", "nope",
        )
        assert code == 2

    def test_bad_path_formula_exits_two(self, capsys, chain_path):
        code, _, _ = run(capsys, "prob", "--model", chain_path, "--path", "goal")
        assert code == 2

    def test_empty_state_rejected(self, capsys, chain_path):
        code, out, err = run(
            capsys, "prob", "--model", chain_path, "--path", "F goal", "--state", "",
        )
        assert code == 2
        assert out == ""
        assert "unknown state ''" in err

    def test_max_mode_sums_rows_left_to_right(self, capsys, attack_graph_path):
        # the digits of a left-to-right float sum; sum() compensates from
        # Python 3.12 on and gives 0.3256990270558594
        code, payload, _ = run_json(
            capsys, "prob", "--model", attack_graph_path,
            "--path", "true U<=4 r3", "--mode", "max",
        )
        assert code == 0
        assert payload["probabilities"]["S0"] == "0.32569902705585935"

    @pytest.mark.parametrize("command", ["prob", "oracle"])
    def test_empty_strategy_rejected(self, capsys, chain_path, command):
        code, out, err = run(
            capsys, command, "--model", chain_path, "--path", "F goal", "--strategy", "",
        )
        assert code == 2
        assert out == ""
        assert "cannot read strategy" in err


class TestSynthesize:
    def test_writes_valid_strategy_reproducible_by_prob(self, capsys, chain_path, tmp_path):
        out = tmp_path / "strategy.json"
        code, payload, _ = run_json(
            capsys, "synthesize", "--model", chain_path,
            "--path", "F goal", "--grade", "1", "--output", str(out),
        )
        assert code == 0
        strategy = load_strategy(str(out))
        assert validate_strategy(load_model(chain_path), strategy) == []
        code, replay, _ = run_json(
            capsys, "prob", "--model", chain_path, "--path", "F goal",
            "--strategy", str(out),
        )
        assert code == 0
        assert replay["probabilities"] == payload["probabilities"]

    def test_horizon_zero_witness_is_empty(self, capsys, chain_path):
        code, payload, _ = run_json(
            capsys, "synthesize", "--model", chain_path,
            "--path", "F<=0 goal", "--grade", "1",
        )
        assert code == 0
        assert payload["strategy"]["removal"] == {}
        assert payload["probabilities"] == {"goal": "1", "q": "0"}

    def test_unwritable_output_exits_two(self, capsys, chain_path, tmp_path):
        target = tmp_path / "missing" / "s.json"
        code, out, err = run(
            capsys, "synthesize", "--model", chain_path,
            "--path", "F goal", "--grade", "1", "-o", str(target),
        )
        assert code == 2
        assert out == ""
        assert "cannot write strategy" in err
        assert not target.exists()

    def test_empty_output_exits_two(self, capsys, chain_path):
        code, out, err = run(
            capsys, "synthesize", "--model", chain_path,
            "--path", "F goal", "--grade", "1", "-o", "",
        )
        assert code == 2
        assert out == ""
        assert "cannot write strategy" in err

    def test_max_mode_rejected(self, capsys, chain_path):
        # synthesis targets the minimizer, so synthesize has no --mode flag
        with pytest.raises(SystemExit) as exc:
            main([
                "synthesize", "--model", chain_path, "--path", "F goal",
                "--grade", "1", "--mode", "max",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode max" in capsys.readouterr().err


class TestValidate:
    def test_valid_model(self, capsys, attack_graph_path):
        code, out, _ = run(capsys, "validate", "--model", attack_graph_path)
        assert code == 0
        assert "valid" in out

    def test_invalid_model_report_and_exit_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "states": ["q", "r"],
                    "initial": "q",
                    "edges": [
                        {"from": "q", "to": "r", "prob": "0.9", "cost": 0},
                        {"from": "r", "to": "r", "prob": "1", "cost": 0},
                    ],
                }
            )
        )
        code, payload, _ = run_json(capsys, "validate", "--model", str(bad))
        assert code == 3
        assert any("stochasticity at q" in v for v in payload["violations"])

    def test_unreadable_model_exit_three(self, capsys, tmp_path):
        code, _, _ = run(capsys, "validate", "--model", str(tmp_path / "missing.json"))
        assert code == 3

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit")
    @pytest.mark.parametrize(
        "command", [["validate"], ["check", "--formula", "true"]], ids=["validate", "check"]
    )
    def test_prob_past_the_digit_limit_exits_three(self, capsys, tmp_path, command):
        limit = sys.get_int_max_str_digits()
        long = tmp_path / "long.json"
        long.write_text(
            json.dumps(
                {
                    "states": ["q"],
                    "initial": "q",
                    "edges": [
                        {"from": "q", "to": "q", "prob": "0." + "0" * limit + "1", "cost": 0}
                    ],
                }
            )
        )
        code, out, err = run(capsys, command[0], "--model", str(long), *command[1:])
        assert code == 3
        assert out == ""
        assert err == (
            f"invalid model: edges[0]: prob has {limit + 2} digits, more than the "
            f"interpreter's limit of {limit}\n"
        )


class TestOracle:
    def test_formula_verdict_matches_golden(self, capsys, attack_graph_path, golden_path):
        golden = json.loads(golden_path.read_text())
        for entry in golden["queries"]:
            code, payload, _ = run_json(
                capsys, "oracle", "--model", attack_graph_path,
                "--formula", entry["formula"],
            )
            assert code == 0
            assert payload["sat"] == entry["sat"]
            assert payload["satisfied"] == entry["satisfied"]
            assert payload["values"] == entry["values"]

    def test_empty_formula_exits_two(self, capsys, chain_path):
        code, _, err = run(capsys, "oracle", "--model", chain_path, "--formula", "")
        assert code == 2
        assert "formula error" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--grade", "5"),
            ("--grade", "0"),
            ("--mode", "max"),
            ("--mode", "min"),
            ("--strategy", "STRATEGY"),
            ("--mode", "max", "--grade", "1"),
        ],
    )
    def test_formula_refuses_the_path_flags(self, capsys, attack_graph_path, tmp_path, flags):
        # the query names its own grade and mode; a strategy file, here one
        # that names an unknown state, was never read
        strategy = tmp_path / "s.json"
        strategy.write_text('{"grade": 1, "removal": {"nope": []}}')
        flags = [str(strategy) if flag == "STRATEGY" else flag for flag in flags]
        for json_flag in ((), ("--json",)):
            code, out, err = run(
                capsys, "oracle", "--model", attack_graph_path,
                "--formula", "<<5 < 0.2>> F r3", *flags, *json_flag,
            )
            assert (code, out) == (2, "")
            named = " and ".join(f for f in ("--grade", "--mode", "--strategy") if f in flags)
            assert err == f"only --path takes {named}, not --formula\n"

    def test_path_optimum_with_witnesses(self, capsys, chain_path):
        code, payload, _ = run_json(
            capsys, "oracle", "--model", chain_path,
            "--path", "F goal", "--grade", "1", "--mode", "min",
        )
        assert code == 0
        assert payload["values"]["q"] == "0/1"
        assert payload["witnesses"]["q"] == {"q": [["q", "goal"]]}

    def test_next_needs_no_enumeration(self, capsys, tmp_path):
        # 241,864,704 strategies at grade 2, past the default limit
        path = tmp_path / "scale.json"
        path.write_text(dumps_model(scaling_model(40)))
        code, payload, _ = run_json(
            capsys, "oracle", "--model", str(path), "--path", "X b", "--grade", "2"
        )
        assert code == 0
        model = load_model(str(path))
        theta = parse_path_formula("X b")
        sat1, sat2 = potl.oracle.operand_sets(model, theta)
        want = potl.oracle.step_optimum(model, theta, sat1, sat2, 2, "min")
        assert payload["values"] == {
            q: f"{v.numerator}/{v.denominator}" for q, v in sorted(want.items())
        }

    def test_fixed_strategy_evaluation(self, capsys, chain_path, tmp_path):
        s = tmp_path / "s.json"
        s.write_text('{"grade": 1, "removal": {"q": [["q", "q"]]}}')
        code, payload, _ = run_json(
            capsys, "oracle", "--model", chain_path,
            "--path", "F goal", "--strategy", str(s),
        )
        assert code == 0
        assert payload["values"]["q"] == "1/2"

    def test_enumeration_explosion_exits_five(self, capsys, tmp_path):
        import random

        from potl.generate import random_pots
        from potl.model import save_model

        model = random_pots(random.Random(3), n_states=6, max_cost=0)
        path = tmp_path / "wide.json"
        save_model(model, str(path))
        code, _, err = run(
            capsys, "oracle", "--model", str(path),
            "--path", "a U b", "--grade", "4", "--limit", "10",
        )
        assert code == 5
        assert "limit" in err

    def test_bounded_path_uses_step_optimum(self, capsys, chain_path):
        code, payload, _ = run_json(
            capsys, "oracle", "--model", chain_path,
            "--path", "true U<=2 goal", "--grade", "0", "--mode", "min",
        )
        assert code == 0
        assert payload["values"]["q"] == "3/4"

    def test_exact_value_past_the_int_digit_limit(self, capsys, chain_path):
        # 2**15000 has 4,516 digits, past the 4,300 str() accepts by default
        code, payload, _ = run_json(
            capsys, "oracle", "--model", chain_path, "--path", "true U<=15000 goal",
        )
        assert code == 0
        num, den = payload["values"]["q"].split("/")
        assert len(den) > 4300

        def value(digits):
            n = 0
            for i in range(0, len(digits), 500):
                chunk = digits[i:i + 500]
                n = n * 10 ** len(chunk) + int(chunk)
            return n

        model = load_model(chain_path)
        theta = parse_path_formula("true U<=15000 goal")
        sat1, sat2 = potl.oracle.operand_sets(model, theta)
        want = potl.oracle.step_optimum(model, theta, sat1, sat2, 0, "min")["q"]
        assert Fraction(value(num), value(den)) == want == 1 - Fraction(1, 2**15000)


class TestOracleStepCap:
    def test_step_bound_above_the_engine_cap_exits_four_at_once(self, capsys, chain_path):
        started = time.perf_counter()
        code, out, err = run(
            capsys, "oracle", "--model", chain_path, "--path", "true U<=100000000 goal"
        )
        assert time.perf_counter() - started < 1
        assert (code, out) == (4, "")
        assert err == "step bound 100000000 exceeds the limit of 1000000 iterations\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle", "--path", "true U<=3 goal"),
            ("oracle", "--path", "goal R<=3 goal", "--mode", "max"),
            ("oracle", "--formula", "<<0 < 0.5>> F<=3 goal"),
            ("oracle", "--formula", "<<0 < 0.5>> X (<<0 < 0.5>> F<=3 goal)"),
            ("oracle", "--path", "(<<0 < 0.5>> F<=3 goal) U goal"),
            ("conformance", "--path", "(<<0 < 0.5>> F<=3 goal) U goal", "--grade", "1"),
        ],
        ids=["until", "release", "query", "nested query", "operand", "conformance"],
    )
    def test_max_iterations_caps_every_step_bound(self, capsys, chain_path, argv):
        code, out, err = run(
            capsys, argv[0], "--model", chain_path, *argv[1:], "--max-iterations", "2"
        )
        assert (code, out) == (4, "")
        assert err == "step bound 3 exceeds the limit of 2 iterations\n"
        code, _, _ = run(
            capsys, argv[0], "--model", chain_path, *argv[1:], "--max-iterations", "3"
        )
        assert code == 0

    def test_fixed_strategy_is_capped(self, capsys, chain_path, tmp_path):
        strategy = tmp_path / "s.json"
        strategy.write_text('{"grade": 0, "removal": {}}')
        code, out, err = run(
            capsys, "oracle", "--model", chain_path, "--path", "true U<=3 goal",
            "--strategy", str(strategy), "--max-iterations", "2",
        )
        assert (code, out) == (4, "")
        assert "step bound 3" in err

    @pytest.mark.parametrize("command", ["oracle", "conformance"])
    def test_default_is_the_engine_cap_and_zero_is_rejected(self, capsys, chain_path, command):
        argv = [command, "--model", chain_path, "--path", "F goal", "--grade", "0"]
        args = build_parser().parse_args(argv)
        assert args.max_iterations == DEFAULT_OPTIONS.max_iterations
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-iterations", "0"])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err


class TestConformance:
    def test_reports_diff_without_failing(self, capsys, attack_graph_path):
        code, payload, _ = run_json(
            capsys, "conformance", "--model", attack_graph_path,
            "--path", "true U (r2 | r3)", "--grade", "4",
        )
        assert code == 0
        for key in (
            "backward_search_zero",
            "backward_search_one",
            "oracle_zero",
            "oracle_one",
            "zero_diff",
            "one_diff",
        ):
            assert key in payload

    def test_release_variant_accepted(self, capsys, chain_path):
        code, payload, _ = run_json(
            capsys, "conformance", "--model", chain_path,
            "--path", "false R goal", "--grade", "1",
        )
        assert code == 0

    def test_operand_sets_are_the_oracles(self, capsys, chain_path):
        # the engine's F goal at q, 0.9999999999417923, would put q in the
        # left operand; its exact value 1 keeps q out
        code, payload, _ = run_json(
            capsys, "conformance", "--model", chain_path,
            "--path", "!(<<0 >= 1>> F goal) U goal", "--grade", "0",
        )
        assert code == 0
        assert (payload["oracle_zero"], payload["oracle_one"]) == (["q"], ["goal"])
        assert payload["zero_diff"] == payload["one_diff"] == {
            "search_only": [], "oracle_only": []
        }

    def test_bounded_path_rejected(self, capsys, chain_path):
        code, _, _ = run(
            capsys, "conformance", "--model", chain_path,
            "--path", "true U<=3 goal", "--grade", "1",
        )
        assert code == 2


class TestExitCodeTable:
    @pytest.mark.parametrize(
        "argv",
        [
            ("prob", "--path", "F goal", "--max-iterations", "1"),
            ("synthesize", "--path", "F goal", "--grade", "0", "--max-iterations", "1"),
            ("conformance", "--path", "(<<0 < 0.5>> F<=100000000 goal) U goal", "--grade", "1"),
        ],
        ids=["prob", "synthesize", "conformance"],
    )
    def test_no_convergence_exits_four(self, capsys, chain_path, argv):
        code, out, err = run(capsys, argv[0], "--model", chain_path, *argv[1:])
        assert code == 4
        assert out == ""
        assert "Traceback" not in err
        assert "iterations" in err and len(err.splitlines()) == 1

    def test_conformance_enumeration_limit_exits_five(self, capsys, attack_graph_path):
        code, out, err = run(
            capsys, "conformance", "--model", attack_graph_path,
            "--path", "true U r3", "--grade", "5", "--limit", "2",
        )
        assert code == 5
        assert out == ""
        assert err == "270 strategies exceed the enumeration limit of 2\n"

    @pytest.mark.parametrize(
        "argv, exit_code, message",
        [
            (["validate", "--model", "{f}"], 3, "model"),
            (["check", "--model", "{chain}", "--formula-file", "{f}"], 2, "formula file"),
            (["prob", "--model", "{chain}", "--path", "F goal", "--strategy", "{f}"], 2, "strategy"),
            (["oracle", "--model", "{chain}", "--path", "F goal", "--strategy", "{f}"], 2, "strategy"),
        ],
        ids=["model", "formula-file", "prob-strategy", "oracle-strategy"],
    )
    def test_a_file_that_is_not_utf8_is_unreadable(
        self, capsys, tmp_path, chain_path, argv, exit_code, message
    ):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b"\xff{}")
        code, out, err = run(capsys, *[arg.format(f=latin1, chain=chain_path) for arg in argv])
        assert (code, out) == (exit_code, "")
        assert err.startswith(f"cannot read {message}: ") and len(err.splitlines()) == 1


class TestParser:
    def test_engine_defaults_are_the_engine_options(self):
        args = build_parser().parse_args(["check", "--model", "m.json", "--formula", "true"])
        assert (args.epsilon, args.max_iterations, args.solver) == (
            DEFAULT_OPTIONS.epsilon,
            DEFAULT_OPTIONS.max_iterations,
            DEFAULT_OPTIONS.solver,
        )

    def test_abbreviated_flag_exits_two(self, capsys, chain_path):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--mod", chain_path, "--formula", "true"])
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err


class TestOracleCalls:
    def test_top_level_query_computes_its_optimum_once(
        self, capsys, monkeypatch, attack_graph_path
    ):
        calls = []
        original = potl.oracle.path_optimum

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(potl.oracle, "path_optimum", counting)
        code, payload, _ = run_json(
            capsys, "oracle", "--model", attack_graph_path, "--formula", "<<5 < 0.2>> F r3"
        )
        assert code == 0
        assert payload["sat"] == ["S0", "S1", "S2"]
        assert len(calls) == 1


class TestVerdictGapScript:
    def test_a_reader_that_closes_early_gets_no_traceback(self):
        """``verdict_gap_report.py | head`` ends with a SIGPIPE kill's status
        and nothing on stderr. The reader closes before the script writes,
        so the broken pipe shows on every run, not only when it wins a race
        with the script's last write."""
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, str(SCRIPTS / "verdict_gap_report.py"), "--count", "1"],
                stdout=write,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        finally:
            os.close(write)
        assert done.stderr == b""
        assert done.returncode == 141


class TestTextMatchesJson:
    """Each command's text names the sets, per-state values and strategy of
    its --json payload, with the same exit code and stderr."""

    @staticmethod
    def both(capsys, *argv):
        """Exit code, text lines as (label, value) pairs, and payload."""
        code, text, err = run(capsys, *argv)
        json_code, payload, json_err = run_json(capsys, *argv)
        assert (code, err) == (json_code, json_err)
        fields = [line.partition(":")[::2] for line in text.splitlines()]
        return code, [(label, value.strip()) for label, value in fields], payload

    @staticmethod
    def states(text):
        assert text[0] + text[-1] == "{}"
        return [q for q in text[1:-1].split(", ") if q]

    @staticmethod
    def warnings(fields):
        """The warning lines' texts, and the other lines."""
        warnings = [value for label, value in fields if label == "warning"]
        return warnings, [field for field in fields if field[0] != "warning"]

    @pytest.mark.parametrize(
        "model, formula",
        [
            ("attack-graph", "<<4 < 0.1>> F (r2 | r3)"),
            ("attack-graph", "<<5 < 0.2>> F r3"),
            ("attack-graph", "<<1 <= 0.9>> G (!r3 | <<4 < 0.1>> F r2)"),
            ("attack-graph", "r2 | <<1 >= 0.5>> X (r2 | r3)"),
            ("attack-graph", "<<0 > 0.5>> X r9"),
            ("chain", "<<1 < 0.5>> F goal"),
            ("chain", "<<0 >= 1>> F goal"),
        ],
    )
    def test_check(self, capsys, model, formula):
        # the wide epsilon puts some values on a boundary, so warnings show
        code, fields, payload = self.both(
            capsys, "check", "--model", str(ROOT / f"models/{model}.json"),
            "--formula", formula, "--epsilon", "0.001",
        )
        warnings, fields = self.warnings(fields)
        assert warnings == payload["warnings"]
        assert fields[0] == ("formula", payload["formula"])
        assert fields[1][0] == "sat" and self.states(fields[1][1]) == payload["sat"]
        initial, verdict = fields[2][1].split(None, 1)
        assert verdict == ("satisfies" if initial in payload["sat"] else "does not satisfy")
        assert code == (0 if initial in payload["sat"] else 1)
        if payload["probabilities"] is None:
            assert len(fields) == 3
        else:
            (label, value), = fields[3:]
            assert label == f"prob[{payload['mode']}, grade {payload['grade']}]"
            pairs = dict(pair.split("=") for pair in value.split(", "))
            assert pairs == payload["probabilities"]

    @pytest.mark.parametrize(
        "model, argv",
        [
            ("chain", ("--path", "F goal", "--grade", "1")),
            ("attack-graph", ("--path", "true U<=4 r3", "--mode", "max")),
            ("attack-graph", ("--path", "F r3", "--state", "S1")),
            ("attack-graph", ("--path", "a U <<1 <= 0.5>> X r3", "--epsilon", "0.1")),
            ("attack-graph", ("--path", "F r3", "--strategy", "STRATEGY")),
        ],
    )
    def test_prob(self, capsys, tmp_path, model, argv):
        strategy = tmp_path / "s.json"
        strategy.write_text('{"grade": 4, "removal": {"S2": [["S2", "S3"]]}}')
        argv = [str(strategy) if arg == "STRATEGY" else arg for arg in argv]
        code, fields, payload = self.both(
            capsys, "prob", "--model", str(ROOT / f"models/{model}.json"), *argv
        )
        assert code == 0
        warnings, fields = self.warnings(fields)
        assert warnings == payload["warnings"]
        assert fields[0] == ("path", payload["formula"])
        assert dict(fields[1:]) == payload["probabilities"]
        assert payload["sat"] == []
        if "--strategy" in argv:
            assert (payload["mode"], payload["grade"]) == ("fixed", 4)

    @pytest.mark.parametrize(
        "model, path, grade, epsilon",
        [
            ("chain", "F goal", "1", "1e-10"),
            ("attack-graph", "F r3", "5", "1e-10"),
            ("attack-graph", "G !r3", "3", "1e-10"),
            # every value of the inner query within 10 * epsilon of 1/2
            ("attack-graph", "true U <<1 <= 0.5>> X r3", "5", "1"),
        ],
    )
    def test_synthesize(self, capsys, tmp_path, model, path, grade, epsilon):
        output = tmp_path / "s.json"
        argv = ["synthesize", "--model", str(ROOT / f"models/{model}.json"),
                "--path", path, "--grade", grade, "--epsilon", epsilon, "--output", str(output)]
        code, fields, payload = self.both(capsys, *argv)
        assert code == 0
        warnings, rest = self.warnings(fields)
        assert warnings == payload["warnings"]
        # the warnings come last
        assert fields[len(rest):] == [("warning", warning) for warning in warnings]
        fields = rest
        assert payload["strategy"] == json.loads(output.read_text())
        # the strategy prints as its file does: indented JSON that a line
        # "}" closes, after "strategy:"
        _, text, _ = run(capsys, *argv)
        lines = text.splitlines()
        end = lines.index("}")
        assert lines[1].startswith("strategy:  ")
        block = "\n".join(lines[1:end + 1])
        assert json.loads(block[len("strategy:"):]) == payload["strategy"]
        assert fields[0] == ("path", payload["formula"])
        assert dict(fields[end + 1:-1]) == payload["probabilities"]
        assert fields[-1] == ("written", str(output))

    def test_validate(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "states": ["s", "t"], "initial": "s", "labels": {},
            "edges": [{"from": "s", "to": "t", "prob": "0.5", "cost": 1}],
        }))
        for model in ("models/attack-graph.json", "models/chain.json", bad):
            model = str(ROOT / model)
            code, text, _ = run(capsys, "validate", "--model", model)
            json_code, payload, _ = run_json(capsys, "validate", "--model", model)
            assert code == json_code == (3 if payload["violations"] else 0)
            heading, *report = text.splitlines()
            if payload["violations"]:
                assert heading == f"model {model} is invalid:"
                assert report == [f"  - {line}" for line in payload["violations"]]
            else:
                assert (heading, report) == (f"model {model} is valid", [])

    @pytest.mark.parametrize(
        "model, formula",
        [
            ("attack-graph", "<<5 < 0.2>> F r3"),
            ("attack-graph", "<<4 < 0.1>> F (r2 | r3)"),
            ("attack-graph", "r2 | <<1 >= 0.5>> X (r2 | r3)"),
            ("chain", "<<1 <= 0>> F goal"),
        ],
    )
    def test_oracle_formula(self, capsys, model, formula):
        code, fields, payload = self.both(
            capsys, "oracle", "--model", str(ROOT / f"models/{model}.json"),
            "--formula", formula,
        )
        assert code == 0
        assert fields[0] == ("formula", payload["formula"])
        assert fields[1][0] == "sat" and self.states(fields[1][1]) == payload["sat"]
        verdict = "satisfies" if payload["satisfied"] else "does not satisfy"
        assert fields[2] == ("initial", f"{payload['initial']} {verdict}")
        assert dict(fields[3:]) == payload.get("values", {})

    @pytest.mark.parametrize(
        "argv",
        [
            ("--path", "F r3", "--grade", "5"),
            ("--path", "X r2", "--grade", "1"),
            ("--path", "r2 R !r3", "--mode", "max"),
            ("--path", "true U<=3 r3", "--grade", "3"),
            ("--path", "F r3", "--strategy", "STRATEGY"),
        ],
    )
    def test_oracle_path(self, capsys, tmp_path, argv):
        strategy = tmp_path / "s.json"
        strategy.write_text('{"grade": 3, "removal": {"S2": [["S2", "S3"]]}}')
        argv = [str(strategy) if arg == "STRATEGY" else arg for arg in argv]
        code, fields, payload = self.both(
            capsys, "oracle", "--model", str(ROOT / "models/attack-graph.json"), *argv
        )
        assert code == 0
        assert fields[0] == ("path", payload["formula"])
        assert dict(fields[1:]) == payload["values"]

    @pytest.mark.parametrize(
        "model, path, grade",
        [
            ("attack-graph", "true U r3", "4"),
            ("chain", "false R goal", "1"),
            ("chain", "true U goal", "0"),
        ],
    )
    def test_conformance(self, capsys, model, path, grade):
        code, fields, payload = self.both(
            capsys, "conformance", "--model", str(ROOT / f"models/{model}.json"),
            "--path", path, "--grade", grade,
        )
        assert code == 0
        text = dict(fields)
        assert text["path"] == f"{payload['formula']} (grade {payload['grade']}, min mode)"
        for label, key in [
            ("search zero", "backward_search_zero"),
            ("oracle zero", "oracle_zero"),
            ("search one", "backward_search_one"),
            ("oracle one", "oracle_one"),
        ]:
            assert self.states(text[label]) == payload[key]
        diffs = [payload[d][side] for d in ("zero_diff", "one_diff")
                 for side in ("search_only", "oracle_only")]
        assert text["agreement"] == ("DIFFERS (informational)" if any(diffs) else "exact")
