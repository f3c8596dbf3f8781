"""The process that runs the program for the in-process workloads.

Reads one job (JSON) on standard input: model JSON texts, formula strings
and the loop settings. It sets the program up again and again for a few
seconds, then runs the query suite in whole rounds, one query after the
other, until the time is up and the sample minimum is met. Each query is
timed from call to verdict. Results are compared with the first result of
the same query; the first results go back to the caller, which checks
them against the reference. Writes one JSON document on standard output.

    python perfbench/worker.py < job.json
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import resource
import statistics
import sys
import time
from array import array

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import potl.cli  # noqa: E402
import potl.engine  # noqa: E402
import potl.model  # noqa: E402
import potl.oracle  # noqa: E402
import potl.syntax  # noqa: E402
from potl.obstruction import strategy_to_json  # noqa: E402

OK, RAISED, CHANGED = 0, 1, 2


def set_up(job: dict) -> tuple[dict, dict, dict[str, float]]:
    """Load and validate every model and parse every formula text once;
    returns the objects and the seconds each step took."""
    times = {}
    started = time.perf_counter()
    models = {key: potl.model.loads_model(text) for key, text in job["models"].items()}
    loaded = time.perf_counter()
    for key, model in models.items():
        report = potl.model.validate(model)
        if report:
            raise SystemExit(f"model {key} is invalid: {report[:3]}")
    validated = time.perf_counter()
    formulas = {}
    for query in job["queries"]:
        text = query.get("text")
        if text is not None and text not in formulas:
            if query["kind"] in ("check", "formula"):
                formulas[text] = potl.syntax.parse(text)
            else:
                formulas[text] = potl.syntax.parse_path_formula(text)
    parsed = time.perf_counter()
    times["loads_model"] = loaded - started
    times["validate"] = validated - loaded
    times["parse"] = parsed - validated
    times["total"] = parsed - started
    return models, formulas, times


def _fractions(values) -> dict[str, str]:
    return {q: f"{v.numerator}/{v.denominator}" for q, v in values.items()}


def _operands(model, theta):
    """Exact operand sets for the oracle, from the oracle itself."""
    if isinstance(theta, potl.syntax.Next):
        return frozenset(), potl.oracle.oracle_sat(model, theta.body)
    return potl.oracle.oracle_sat(model, theta.left), potl.oracle.oracle_sat(model, theta.right)


class Runner:
    """One query of each kind: ``call`` is the timed part, ``outcome``
    turns what it returned into comparable JSON data."""

    def __init__(self, models: dict, formulas: dict):
        self.models = models
        self.formulas = formulas
        self.iterations = 0

    def call(self, query: dict):
        kind = query["kind"]
        model = self.models.get(query.get("model"))
        if kind == "check":
            opts = potl.engine.EngineOptions(solver=query.get("solver", "vi"))
            return potl.engine.check(model, self.formulas[query["text"]], opts)
        if kind == "synthesize":
            theta = self.formulas[query["text"]]
            stats = potl.engine.Stats()
            opts = potl.engine.DEFAULT_OPTIONS
            sat1, sat2 = potl.engine.operand_sets(model, theta, opts, stats)
            strategy, values = potl.engine.synthesize(
                model, theta, sat1, sat2, query["grade"], opts, stats
            )
            return strategy, values, stats
        if kind == "path":
            theta = self.formulas[query["text"]]
            stats = potl.engine.Stats()
            values = potl.engine.path_values(
                model, theta, query["grade"], query["mode"], potl.engine.DEFAULT_OPTIONS, stats
            )
            sat1, sat2 = _operands(model, theta)
            if isinstance(theta, (potl.syntax.Until, potl.syntax.Release)):
                exact = potl.oracle.oracle_optimum(
                    model, theta, sat1, sat2, query["grade"], query["mode"]
                ).values
            else:
                exact = potl.oracle.step_optimum(
                    model, theta, sat1, sat2, query["grade"], query["mode"]
                )
            return values, exact, stats
        if kind == "formula":
            phi = self.formulas[query["text"]]
            result = potl.engine.check(model, phi)
            exact = potl.oracle.oracle_sat(model, phi)
            exact_values = None
            if isinstance(phi, potl.syntax.ObstructQuery):
                exact_values = potl.oracle.oracle_query_values(model, phi)
            return result, exact, exact_values
        if kind == "cli_main":
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = potl.cli.main(query["argv"])
            return code, out.getvalue()
        raise ValueError(f"unknown query kind {kind!r}")

    def outcome(self, query: dict, returned) -> dict:
        kind = query["kind"]
        if kind == "check":
            self.iterations += returned.iterations
            return {"sat": sorted(returned.sat), "values": returned.values}
        if kind == "synthesize":
            strategy, values, stats = returned
            self.iterations += stats.iterations
            removal = json.loads(strategy_to_json(strategy))["removal"]
            return {"removal": removal, "values": values}
        if kind == "path":
            values, exact, stats = returned
            self.iterations += stats.iterations
            return {"values": values, "exact": _fractions(exact)}
        if kind == "formula":
            result, exact, exact_values = returned
            self.iterations += result.iterations
            return {
                "sat": sorted(result.sat),
                "values": result.values,
                "exact_sat": sorted(exact),
                "exact_values": None if exact_values is None else _fractions(exact_values),
            }
        code, text = returned
        payload = json.loads(text)
        self.iterations += payload["iterations"]
        return {"exit": code, "payload": payload}


def run_probes(job, runner, first, errors):
    """Queries marked ``probe`` run once, untimed, before the timed rounds;
    their first results are checked like any other, but they are not
    counted among the samples."""
    for qid, query in enumerate(job["queries"]):
        if not query.get("probe"):
            continue
        try:
            first[qid] = runner.outcome(query, runner.call(query))
        except Exception as exc:
            errors[qid] = f"{type(exc).__name__}: {exc}"


def run_rounds(job, runner, first, errors, seconds, min_samples):
    """Whole rounds of the suite until ``seconds`` have passed and at least
    ``min_samples`` queries ran; returns the per-query samples. Each round
    takes the queries in a new seeded order, so that a slow spell of a
    shared machine does not always fall on the same queries. Queries
    marked ``once`` run in the first round only, those marked ``probe``
    not at all."""
    queries = job["queries"]
    order = list(range(len(queries)))
    shuffle = random.Random(job["order_seed"]).shuffle
    ids, millis, status = array("i"), array("d"), bytearray()
    rounds = 0
    started = time.perf_counter()
    while True:
        shuffle(order)
        for qid in order:
            query = queries[qid]
            if query.get("probe") or (rounds and query.get("once")):
                continue
            t0 = time.perf_counter()
            try:
                returned = runner.call(query)
            except Exception as exc:  # a failed query is counted, the loop goes on
                millis.append((time.perf_counter() - t0) * 1e3)
                ids.append(qid)
                status.append(RAISED)
                errors.setdefault(qid, f"{type(exc).__name__}: {exc}")
                continue
            millis.append((time.perf_counter() - t0) * 1e3)
            ids.append(qid)
            data = runner.outcome(query, returned)
            if qid not in first:
                first[qid] = data
                status.append(OK)
            else:
                status.append(OK if data == first[qid] else CHANGED)
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and len(ids) >= min_samples:
            return {"rounds": rounds, "elapsed": elapsed, "qid": ids, "ms": millis, "status": status}


def main() -> None:
    job = json.load(sys.stdin)
    setups = []
    started = time.perf_counter()
    while len(setups) < job["setup_repeats"] or time.perf_counter() - started < job["setup_seconds"]:
        models, formulas, times = set_up(job)
        setups.append(times)
    runner = Runner(models, formulas)
    first: dict = {}
    errors: dict = {}
    out = {
        "models": {key: [len(m.states), len(m.prob)] for key, m in models.items()},
        "formula_size": sum(potl.syntax.formula_size(f) for f in formulas.values()),
    }
    run_probes(job, runner, first, errors)
    if not job["trace"]:
        out["run"] = run_rounds(
            job, runner, first, errors, job["seconds"], job["min_samples"]
        )
        # read before the reply is built, which is the benchmark's own work
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from spans import Tracer

        half = job["seconds"] / 2
        out["untraced"] = run_rounds(job, runner, first, errors, half, 1)
        runner.iterations = 0
        tracer = Tracer()
        tracer.install()
        try:
            out["run"] = run_rounds(job, runner, first, errors, half, 1)
        finally:
            tracer.uninstall()
        rounds = out["run"]["rounds"]
        out["layers"] = tracer.aggregate(rounds)
        out["layers"]["engine.iterations"] = runner.iterations / rounds
        if job.get("trace_file"):
            tracer.write(pathlib.Path(job["trace_file"]))
        for probe in job.get("step_probes", []):
            out["layers"].update(step_probe(models, probe))
    out["setup"] = {key: statistics.median(t[key] for t in setups) for key in setups[0]}
    for phase in ("untraced", "run"):
        if phase in out:
            out[phase] = {key: _plain(value) for key, value in out[phase].items()}
    out["first"] = {str(qid): data for qid, data in first.items()}
    out["errors"] = {str(qid): text for qid, text in errors.items()}
    json.dump(out, sys.stdout)


def _plain(value):
    return list(value) if isinstance(value, (array, bytearray)) else value


def step_probe(models: dict, probe: dict) -> dict[str, float]:
    """Milliseconds per sweep of min-mode bounded until at a fixed bound."""
    model = models[probe["model"]]
    sat1 = frozenset(q for q in model.states if "a" in model.label_of(q))
    sat2 = frozenset(q for q in model.states if "b" in model.label_of(q))
    started = time.perf_counter()
    potl.engine.prob_bounded_until(model, sat1, sat2, probe["bound"], probe["grade"], "min")
    per_step = (time.perf_counter() - started) * 1e3 / probe["bound"]
    return {f"engine.bounded_until.min.ms_per_step.b{probe['bound']}": per_step}


if __name__ == "__main__":
    main()
