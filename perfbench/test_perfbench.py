"""Self-tests of the benchmark. Run from the repository root:

    python -m pytest -q perfbench
"""

import json
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from potl.generate import corpus  # noqa: E402
from potl.model import dumps_model  # noqa: E402
from potl.oracle import oracle_optimum, step_optimum  # noqa: E402
from potl.syntax import parse_path_formula  # noqa: E402
from reference import ScaleReference  # noqa: E402
from spans import Tracer  # noqa: E402

ACCEPTANCE_SEED = 20260808  # the acceptance suite's corpus seed
GRADES = (0, 1, 2, 4)


def test_reference_matches_the_oracle_on_the_acceptance_corpus():
    worst = 0.0
    checked = 0
    for pots in corpus(ACCEPTANCE_SEED, 40):
        ref = ScaleReference(dumps_model(pots))
        model = ref.model
        sat1, sat2 = ref.sat(inputs.A), ref.sat(inputs.B)
        for grade in GRADES:
            for op, path in inputs.certify_paths().items():
                theta = parse_path_formula(inputs.render_path(path))
                for mode, pick in (("min", min), ("max", max)):
                    if op in ("U", "R"):
                        exact = oracle_optimum(model, theta, sat1, sat2, grade, mode).values
                    else:
                        exact = step_optimum(model, theta, sat1, sat2, grade, mode)
                    values = ref.path_values(path, ref.rows(grade), pick)
                    for q in model.states:
                        worst = max(worst, abs(values[q] - float(exact[q])))
                    checked += 1
    assert checked == 40 * len(GRADES) * 5 * 2
    assert worst <= 1e-9


def small_scale_job():
    workload = run.Scale("scale-min", 200, inputs.scale_suite)
    job = workload.generate(7)
    job.pop("record")
    job["order_seed"] = 7
    return workload, job


def test_scale_suite_passes_against_the_reference():
    workload, job = small_scale_job()
    models, formulas, _ = worker.set_up(job)
    runner = worker.Runner(models, formulas)
    first, errors = {}, {}
    result = {"run": worker.run_rounds(job, runner, first, errors, 0, 1), "errors": errors}
    result["first"] = {str(k): v for k, v in first.items()}
    assert run.failures(workload, job["queries"], result) == {}


def test_traced_and_untraced_runs_agree():
    workload, job = small_scale_job()
    models, formulas, _ = worker.set_up(job)
    runner = worker.Runner(models, formulas)
    first, errors = {}, {}
    worker.run_rounds(job, runner, first, errors, 0, 1)
    untraced = dict(first)
    tracer = Tracer()
    tracer.install()
    try:
        traced = worker.run_rounds(job, runner, first, errors, 0, 1)
    finally:
        tracer.uninstall()
    assert errors == {}
    assert set(traced["status"]) == {worker.OK}
    assert first == untraced
    layers = tracer.aggregate(traced["rounds"])
    assert layers["obstruction.best_removal.calls"] > 0
    assert layers["engine.check.calls"] == sum(q["kind"] == "check" for q in job["queries"])


def test_item_one_queries_are_the_only_failures_in_certify():
    workload = run.Certify()
    job = workload.generate(1)
    job["queries"] = [q for q in job["queries"] if q.get("once") or q.get("probe")]
    job["order_seed"] = 1
    models, formulas, _ = worker.set_up(job)
    runner = worker.Runner(models, formulas)
    first, errors = {}, {}
    worker.run_probes(job, runner, first, errors)
    result = {"run": worker.run_rounds(job, runner, first, errors, 0, 1), "errors": errors}
    result["first"] = {str(k): v for k, v in first.items()}
    failed = run.failures(workload, job["queries"], result)
    assert set(failed) == run.KNOWN_DEFECTS
    assert {q["name"] for q in job["queries"] if q.get("probe")} == run.KNOWN_DEFECTS
    assert run.count_failed(job["queries"], result, failed) == 0


def test_certify_corpus_keeps_its_strategy_bands():
    docs = inputs.certify_corpus(random.Random(3), 40)
    assert [len(d["states"]) for d in docs[:4]] == [2, 3, 4, 5]
    counts = [inputs.count_strategies(doc, 4) for doc in docs]
    heavy = [c for c in counts if c >= inputs.CERTIFY_HEAVY[0]]
    assert len(heavy) == 10
    assert max(counts) <= inputs.CERTIFY_HEAVY[1]


def test_scale_model_keeps_its_label_shares_and_sweep_cap():
    params = inputs.SCALE_MODEL
    size = params["block"]
    doc = inputs.scale_model(random.Random(3), 8 * size, params)
    for low in range(0, 8 * size, size):
        block = doc["states"][low:low + size]
        own = set(block)
        edges = [e for e in doc["edges"] if e["from"] in own]
        assert all(e["to"] in own for e in edges)
        labels = [tuple(doc["labels"].get(q, ())) for q in block]
        for atoms, share in params["label_classes"].items():
            assert labels.count(tuple(atoms)) == round(share * size)
        sub = {"states": block, "edges": edges, "labels": doc["labels"]}
        sweeps = [inputs.plain_sweeps(sub, path) for path in inputs.SWEEP_PATHS]
        assert max(sweeps) <= params["sweep_cap"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")


@pytest.mark.parametrize("workload,trace", [("scale-min", 0), ("scale-min", 1)])
def test_last_line_carries_the_declared_metrics(workload, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
