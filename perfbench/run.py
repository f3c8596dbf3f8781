#!/usr/bin/env python3
"""potl's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scale-min --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``. The
benchmark makes its inputs from the seed, computes an independent reference,
runs the program in a closed loop with one client, in a worker process
(``worker.py``), and checks every answer. With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run (``spans.py``); the last line of
standard output is one JSON object with the metrics named in
``BENCHMARK.json``. Every metric it knows is printed above that line, and a
run record (seed, generator parameters, model sizes, Python version,
``nproc``, load average, failures) goes to ``perfbench/out/``.

A query fails if it raises, exits with an unexpected code, changes its
answer between rounds, or disagrees with the reference (a value off by more
than 1e-6, or a different verdict). Failing queries are listed by name,
and ``correct`` is false when any counted query fails. The
``KNOWN_DEFECTS`` below are wrong answers of the program at the commit the
benchmark was written against: they run once per run, untimed, before the
timed rounds, and each run prints whether they still fail, but they are
not counted in ``attempted`` or ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

if not (ROOT / "src" / "potl" / "__init__.py").is_file():
    sys.exit("run from the root of a potl checkout: src/potl is missing")
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from reference import TOLERANCE, ScaleReference, settle_thresholds  # noqa: E402

SCALE_MIN_STATES = 1000
CERTIFY_MODELS = 200
# Set-up runs again and again for this long (and at least SETUP_REPEATS
# times); setup_s is the median, over a window long enough that the
# host's short slow spells do not decide it.
SETUP_SECONDS = 3.0
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
# Tail percentile per workload, and the sample count every run reaches so
# that at least ten samples lie beyond it.
TAIL = {
    "scale-min": (75, 40),
    "certify": (99, 1000),
}

# ROADMAP item 1: value iteration stops on a step size that does not bound
# its error, so these verdicts are wrong at the commit this benchmark was
# written against. They stay in the inputs as probes: checked every run,
# reported by name, kept out of the counted operations.
KNOWN_DEFECTS = {
    "certify:chain:<<0 >= 1>> F goal",
    "certify:selfloop:<<0 < 0.9999995>> F goal",
    "certify:cli:chain:<<0 >= 1>> F goal",
}


# -- workloads ------------------------------------------------------------------


class Scale:
    """One seeded model of scaling_model shape and a query suite over it,
    checked against the float step recursion in ``reference``."""

    def __init__(self, name: str, n_states: int, suite):
        self.name = name
        self.n_states = n_states
        self.suite = suite

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        doc = inputs.scale_model(rng, self.n_states, inputs.SCALE_MODEL)
        text = json.dumps(doc)
        self.ref = ScaleReference(text)
        self.checks = []
        queries = []
        for entry in self.suite():
            query = {"name": f"{self.name}:{entry['name']}", "kind": entry["kind"], "model": "scale"}
            if entry["kind"] == "check":
                formula = settle_thresholds(self.ref, entry["formula"], rng)
                query["text"] = inputs.render(formula)
                query["solver"] = entry.get("solver", "vi")
                self.checks.append(formula)
            else:
                query["text"] = inputs.render_path(entry["path"])
                query["grade"] = entry["grade"]
                self.checks.append(entry["path"])
            queries.append(query)
        return {
            "models": {"scale": text},
            "queries": queries,
            "record": {
                "generator": {
                    "n_states": self.n_states,
                    **inputs.SCALE_MODEL,
                },
                "model_sizes": {"scale": inputs.model_size(doc)},
            },
        }

    def verify(self, qid: int, query: dict, data: dict) -> str | None:
        ref = self.ref
        if query["kind"] == "check":
            formula = self.checks[qid]
            if set(data["sat"]) != ref.sat(formula):
                return "satisfaction set differs from the reference"
            return _off(data["values"], ref.query_values(formula))
        path, grade = self.checks[qid], query["grade"]
        problems = ref.strategy_report(data["removal"], grade)
        if problems:
            return f"illegal witness: {problems[0]}"
        own = ref.strategy_values(path, data["removal"])
        error = _off(data["values"], own)
        if error:
            return f"witness value is not its own: {error}"
        best = ref.path_values(path, ref.rows(grade), min)
        beaten = [q for q in ref.states if data["values"][q] < best[q] - TOLERANCE]
        if beaten:
            return f"witness beats the optimum at {beaten[0]}"
        return None


class Certify:
    """Small models, every grade, operator and mode: engine against the
    exact oracle, plus formula-level checks on the shipped models."""

    name = "certify"

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        docs = inputs.certify_corpus(rng, CERTIFY_MODELS)
        models = {f"c{i}": json.dumps(doc) for i, doc in enumerate(docs)}
        models["attack-graph"] = (ROOT / "models" / "attack-graph.json").read_text()
        models["chain"] = (ROOT / "models" / "chain.json").read_text()
        models["selfloop"] = json.dumps(inputs.selfloop_chain())
        queries = []
        for i in range(len(docs)):
            for grade in inputs.CERTIFY_GRADES:
                for op, path in inputs.certify_paths().items():
                    for mode in ("min", "max"):
                        queries.append({
                            "name": f"certify:c{i}:g{grade}:{op}:{mode}",
                            "kind": "path",
                            "model": f"c{i}",
                            "text": inputs.render_path(path),
                            "grade": grade,
                            "mode": mode,
                        })
        for key, text in inputs.CERTIFY_FORMULAS:
            queries.append(_once({
                "name": f"certify:{key}:{text}",
                "kind": "formula",
                "model": key,
                "text": text,
            }))
        self.cli_expect = {}
        for model, formula, expect in cli_queries():
            name = f"certify:cli:{pathlib.Path(model).stem}:{formula}"
            self.cli_expect[name] = expect
            queries.append(_once({
                "name": name,
                "kind": "cli_main",
                "argv": ["check", "--model", model, "--formula", formula, "--json"],
            }))
        states = sum(len(doc["states"]) for doc in docs)
        edges = sum(len(doc["edges"]) for doc in docs)
        return {
            "models": models,
            "queries": queries,
            "record": {
                "generator": {
                    "models": CERTIFY_MODELS,
                    "states": "2-5, equally many of each",
                    "grades": list(inputs.CERTIFY_GRADES),
                    "strategy_bands": [inputs.CERTIFY_LIGHT, inputs.CERTIFY_HEAVY],
                    **inputs.CERTIFY_MODEL,
                },
                "model_sizes": {"corpus": [states, edges]},
            },
        }

    def verify(self, qid: int, query: dict, data: dict) -> str | None:
        if query["kind"] == "path":
            return _off(data["values"], {q: Fraction(v) for q, v in data["exact"].items()})
        if query["kind"] == "cli_main":
            expect = self.cli_expect[query["name"]]
            if data["exit"] != expect["exit"]:
                return f"exit code {data['exit']}, expected {expect['exit']}"
            payload = data["payload"]
            if payload["sat"] != expect["sat"]:
                return f"satisfaction set {payload['sat']}, expected {expect['sat']}"
            values = {q: float(v) for q, v in payload["probabilities"].items()}
            return _off(values, {q: Fraction(v) for q, v in expect["values"].items()})
        if data["sat"] != data["exact_sat"]:
            return (
                f"verdict differs from the oracle: engine {data['sat']}, "
                f"oracle {data['exact_sat']}"
            )
        if data["exact_values"] is not None:
            exact = {q: Fraction(v) for q, v in data["exact_values"].items()}
            return _off(data["values"], exact)
        return None


def _once(query: dict) -> dict:
    """Marks a query to run once per run: a known defect as an untimed
    probe, any other in the first timed round."""
    query["probe" if query["name"] in KNOWN_DEFECTS else "once"] = True
    return query


def cli_queries() -> list[tuple[str, str, dict]]:
    """``potl check`` queries of models/README.md, the golden file and the
    chain item-1 case, each with the exit code, satisfaction set and values
    the exact oracle gives: from the golden file where it has the query,
    else from a ``potl oracle`` process."""
    golden = json.loads((ROOT / "tests" / "golden" / "attack_graph_oracle.json").read_text())
    expected = {
        (golden["model"], entry["formula"]): {
            "exit": 0 if entry["satisfied"] else 1,
            "sat": entry["sat"],
            "values": entry["values"],
        }
        for entry in golden["queries"]
    }
    readme = (ROOT / "models" / "README.md").read_text()
    wanted = re.findall(r'potl check --model (\S+) --formula "([^"]+)"', readme)
    wanted += [key for key in expected if key not in wanted]
    wanted.append(("models/chain.json", "<<0 >= 1>> F goal"))
    out = []
    for model, formula in wanted:
        if (model, formula) not in expected:
            expected[(model, formula)] = oracle_answer(model, formula)
        out.append((model, formula, expected[(model, formula)]))
    return out


def _off(values: dict, expected: dict) -> str | None:
    """A message when a value is off the expected one by more than the
    acceptance tolerance."""
    if values is None or set(values) != set(expected):
        return "values missing or over the wrong states"
    for q, v in expected.items():
        if abs(values[q] - float(v)) > TOLERANCE:
            return f"value at {q} is {values[q]!r}, expected {float(v)!r}"
    return None


WORKLOADS = {
    "scale-min": lambda: Scale("scale-min", SCALE_MIN_STATES, inputs.scale_suite),
    "certify": Certify,
}


# -- processes ----------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(argv: list[str]) -> tuple[int, str, float]:
    """Run one process to its end; returns exit code, output (standard
    output and error together) and wall seconds."""
    started = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - started


def oracle_answer(model: str, formula: str) -> dict:
    """The exit code, satisfaction set and values ``potl oracle`` gives."""
    code, output, _ = spawn(
        [sys.executable, "-m", "potl.cli", "oracle", "--model", model, "--formula", formula, "--json"]
    )
    if code != 0:
        sys.exit(f"potl oracle failed on {model}: {output}")
    payload = json.loads(output)
    return {"exit": 0 if payload["satisfied"] else 1, "sat": payload["sat"], "values": payload["values"]}


def run_worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import potl.cli; "
    "print(time.perf_counter() - t)"
)


def fresh_import_s() -> float:
    code, output, _ = spawn([sys.executable, "-c", IMPORT_PROBE])
    if code != 0:
        sys.exit(f"cannot import potl.cli: {output}")
    return float(output)


# -- metrics -------------------------------------------------------------------------


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def failures(workload, queries: list[dict], result: dict) -> dict[str, str]:
    """Failing query names with the first reason seen for each."""
    failed: dict[str, str] = {}
    for key, text in result["errors"].items():
        failed[queries[int(key)]["name"]] = f"raised {text}"
    for key, data in result["first"].items():
        qid = int(key)
        reason = workload.verify(qid, queries[qid], data)
        if reason:
            failed.setdefault(queries[qid]["name"], reason)
    run = result["run"]
    for qid, state in zip(run["qid"], run["status"]):
        if state == 2:
            failed.setdefault(queries[qid]["name"], "answer changed between rounds")
    return failed


def per_query_p50(queries: list[dict], run: dict) -> dict[str, float]:
    """Median wall time of each query over the rounds of a run, with the
    certify corpus instances pooled by mode."""
    samples: dict[str, list[float]] = {}
    for qid, ms in zip(run["qid"], run["ms"]):
        query = queries[qid]
        key = query["name"] if query["kind"] != "path" else f"path:{query['mode']}"
        samples.setdefault(key, []).append(ms)
    return {key: statistics.median(values) for key, values in samples.items()}


def count_failed(queries, result, failed: dict) -> int:
    names = [queries[qid]["name"] for qid in result["run"]["qid"]]
    return sum(1 for name in names if name in failed)


def end_to_end(name: str, result: dict, setup_s: float, failed_n: int) -> dict:
    run = result["run"]
    pct, _ = TAIL[name]
    attempted = len(run["ms"])
    return {
        "setup_s": (setup_s, "s"),
        "verdict_ms_p50": (statistics.median(run["ms"]), "ms"),
        "verdict_ms_tail": (percentile(run["ms"], pct), "ms"),
        "queries_per_s": (attempted / run["elapsed"], "1/s"),
        "failed_share": (failed_n / attempted, "share"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
    }


def per_layer(job: dict, result: dict, generate_s: float, extra: dict) -> dict:
    layers = dict(result["layers"])
    run, untraced = result["run"], result["untraced"]
    query_s = sum(run["ms"]) / 1e3 / run["rounds"]
    out: dict[str, tuple[float, str]] = {}
    br = "obstruction.best_removal"
    calls = layers.get(f"{br}.calls", 0.0)
    out[f"{br}.calls"] = (calls, "count")
    out[f"{br}.s"] = (layers.get(f"{br}.s", 0.0), "s")
    out[f"{br}.us_per_call"] = (layers.get(f"{br}.s", 0.0) / calls * 1e6 if calls else 0.0, "us")
    out[f"{br}.removing_share"] = (layers.get("best_removal.removing", 0.0) / calls if calls else 0.0, "share")
    out[f"{br}.unaffordable_share"] = (
        layers.get("best_removal.unaffordable", 0.0) / calls if calls else 0.0, "share"
    )
    out[f"{br}.time_share"] = (layers.get(f"{br}.s", 0.0) / query_s, "share")
    for op in ("next", "bounded_until", "until", "bounded_release", "release"):
        for mode in ("min", "max"):
            key = f"engine.{op}.{mode}"
            out[f"{key}.calls"] = (layers.get(f"{key}.calls", 0.0), "count")
            out[f"{key}.s"] = (layers.get(f"{key}.s", 0.0), "s")
            out[f"{key}.self_s"] = (layers.get(f"{key}.self_s", 0.0), "s")
    out["engine.iterations"] = (layers.get("engine.iterations", 0.0), "count")
    out["engine.synthesize.s"] = (layers.get("engine.synthesize.s", 0.0), "s")
    out["engine.prob_fixed.s"] = (layers.get("engine.prob_fixed.s", 0.0), "s")
    for key, value in layers.items():
        if ".ms_per_step." in key:
            out[key] = (value, "ms")
    oracle_s = 0.0
    for fn in ("oracle_optimum", "step_optimum", "exact_prob", "oracle_sat"):
        key = f"oracle.{fn}"
        out[f"{key}.calls"] = (layers.get(f"{key}.calls", 0.0), "count")
        out[f"{key}.s"] = (layers.get(f"{key}.s", 0.0), "s")
    for fn in ("oracle_optimum", "step_optimum", "oracle_sat"):
        oracle_s += layers.get(f"oracle.{fn}.s", 0.0)
    out["oracle.strategies"] = (layers.get("oracle.strategies", 0.0), "count")
    out["oracle.time_share"] = (oracle_s / query_s, "share")
    setup = result["setup"]
    sizes = result["models"].values()
    out["model.loads_model.ms"] = (setup["loads_model"] * 1e3, "ms")
    out["model.validate.ms"] = (setup["validate"] * 1e3, "ms")
    out["syntax.parse.ms"] = (setup["parse"] * 1e3, "ms")
    out["model.states"] = (float(sum(size[0] for size in sizes)), "count")
    out["model.edges"] = (float(sum(size[1] for size in sizes)), "count")
    out["model.prune.calls"] = (layers.get("model.prune.calls", 0.0), "count")
    out["syntax.formula_size"] = (float(result["formula_size"]), "count")
    cli_ms = [
        ms for qid, ms in zip(untraced["qid"], untraced["ms"])
        if job["queries"][qid]["kind"] == "cli_main"
    ]
    out["cli.interpreter_ms"] = (extra.get("interpreter_ms", 0.0), "ms")
    out["cli.import_ms"] = (extra.get("import_ms", 0.0), "ms")
    out["cli.main_ms"] = (statistics.median(cli_ms) if cli_ms else 0.0, "ms")
    out["generate.s"] = (generate_s, "s")
    qps_untraced = len(untraced["ms"]) / untraced["elapsed"]
    qps_traced = len(run["ms"]) / run["elapsed"]
    out["trace.overhead_share"] = (qps_untraced / qps_traced - 1.0, "share")
    return out


# -- entry point ----------------------------------------------------------------------------


def loadavg() -> str:
    try:
        return pathlib.Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_start = loadavg()

    workload = WORKLOADS[args.workload]()
    started = time.perf_counter()
    job = workload.generate(args.seed)
    generate_s = time.perf_counter() - started
    record = job.pop("record")
    pct, min_samples = TAIL[args.workload]
    job.update({
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "min_samples": min_samples,
        "setup_repeats": SETUP_REPEATS,
        "setup_seconds": SETUP_SECONDS,
        "order_seed": args.seed,
        # min-mode bounded until per step at two bounds on the scale model
        "step_probes": [
            {"model": "scale", "bound": bound, "grade": 2} for bound in (25, 50)
        ] if args.workload == "scale-min" and args.trace else [],
    })
    OUT.mkdir(exist_ok=True)
    if args.trace:
        job["trace_file"] = str(OUT / f"trace-{args.workload}.json")

    extra: dict = {}
    if args.trace and workload.name == "certify":
        extra["interpreter_ms"] = statistics.median(
            spawn([sys.executable, "-c", "pass"])[2] * 1e3 for _ in range(SETUP_REPEATS)
        )
        fresh_import_s()  # compiles the bytecode caches once, untimed
        extra["import_ms"] = statistics.median(
            fresh_import_s() * 1e3 for _ in range(SETUP_REPEATS)
        )
    result = run_worker(job)

    queries = job["queries"]
    failed = failures(workload, queries, result)
    failed_n = count_failed(queries, result, failed)
    attempted = len(result["run"]["ms"])
    unexpected = sorted(set(failed) - KNOWN_DEFECTS)
    probes = {q["name"] for q in queries if q.get("probe")}

    if args.trace:
        metrics = per_layer(job, result, generate_s, extra)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(args.workload, result, result["setup"]["total"], failed_n)
        wanted = spec["end_to_end"]

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'}): "
          f"{why.get(args.workload, '')}")
    print(f"  rounds {result['run']['rounds']}, queries {attempted}, "
          f"tail percentile p{pct} over {attempted} samples")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    for name, reason in sorted(failed.items()):
        tag = "known defect, not counted" if name in KNOWN_DEFECTS else "UNEXPECTED"
        print(f"  FAILED ({tag}) {name}: {reason}")
    for name in sorted(probes - set(failed)):
        print(f"  known defect now passes: {name}")
    print(f"  python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
          f"loadavg {load_start} at start, {loadavg()} at end")

    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": why.get(args.workload),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "rounds": result["run"]["rounds"],
        "attempted": attempted,
        "failed": failed_n,
        "failing_queries": failed,
        "known_defects_failing": sorted(probes & set(failed)),
        "tail_percentile": pct,
        "tail_samples": attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "query_ms_p50": per_query_p50(queries, result["run"]),
    })
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")

    line = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed_n,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
