"""Tests of the benchmark itself: its request lists, its oracle, its traces
and its manifest.  Run with `PYTHONPATH=src python -m pytest perfbench`."""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import algebra as alg  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eulerian_kit import cli  # noqa: E402
from eulerian_kit import generators as gen  # noqa: E402
from eulerian_kit.checks import is_eulerian  # noqa: E402
from eulerian_kit.invariants import f_vector, h_vector  # noqa: E402

WORKLOADS = list(workloads.WHY)


def _inputs(plan):
    return (
        [(r.kind, r.argv) for r in plan.requests],
        [(f.path, f.expr, f.seed, f.raw) for f in plan.files],
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests(workload, tmp_path):
    a = workloads.plan(workload, 7, tmp_path)
    b = workloads.plan(workload, 7, tmp_path)
    assert _inputs(a) == _inputs(b)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs_same_counts(workload, tmp_path):
    a = workloads.plan(workload, 7, tmp_path)
    b = workloads.plan(workload, 8, tmp_path)
    assert _inputs(a) != _inputs(b)
    kinds = Counter(r.kind for r in a.requests)
    assert kinds == Counter(r.kind for r in b.requests)
    # at least ten samples beyond the 90th percentile of one pass
    assert len(a.requests) >= 100


def _random_expr(rng, depth):
    leaves = [
        lambda: alg.sb(rng.randint(1, 4)),
        lambda: alg.cp(rng.randint(1, 3)),
        lambda: alg.polygon(rng.randint(3, 6)),
        lambda: alg.TORUS,
        lambda: alg.RP2,
    ]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    op = rng.choice(["join", "cone", "suspension", "disjoint_union", "bsd"])
    if op in ("join", "disjoint_union"):
        a, b = _random_expr(rng, depth - 1), _random_expr(rng, depth - 1)
        return alg.join(a, b) if op == "join" else alg.disjoint_union(a, b)
    inner = _random_expr(rng, depth - 1)
    return {"cone": alg.cone, "suspension": alg.suspension, "bsd": alg.bsd}[op](inner)


def test_oracle_matches_library_on_random_expressions():
    rng = random.Random(2024)
    checked = audited = 0
    while checked < 60:
        e = _random_expr(rng, 3)
        if alg.num_faces(e) > 3000:
            continue
        K = gen.build(cli.parse_generator_expr(e.text()))
        assert f_vector(K) == alg.f_vector(e), e.text()
        assert h_vector(K) == alg.h_vector(e), e.text()
        assert len(K.facets) == alg.num_facets(e), e.text()
        assert K.is_pure() == alg.is_pure(e), e.text()
        assert K.is_flag().holds == alg.is_flag(e), e.text()
        checked += 1
        try:
            audit = alg.eulerian_audit(e)
        except ValueError:  # no closed form for this shape
            continue
        report = is_eulerian(K, exhaustive=True)
        assert report.holds == audit.holds, e.text()
        assert len(report.failures) == audit.failures, e.text()
        audited += 1
    assert audited >= 20


def test_every_spelling_of_a_class_is_issued_equally_often():
    for _, count, _, variants in workloads.AUDIT_LADDER + workloads.BUILD_INFO:
        assert count % len(variants) == 0


def test_size_guard_refuses_huge_expressions():
    assert alg.num_faces(alg.sb(40)) == 2**41 - 2
    with pytest.raises(ValueError):
        alg.guard(alg.sb(40))
    for _, _, _, variants in workloads.AUDIT_LADDER + workloads.BUILD_INFO:
        for e in variants:
            assert alg.num_faces(e) <= alg.MAX_FACES


def test_oracle_rejects_a_wrong_report(tmp_path):
    e = alg.bsd(alg.TORUS)
    request = workloads._generator_request(random.Random(1), "x", e, "all")
    outcome = run.call(cli.main, request.argv)
    assert run.judge(request, outcome) == ([], False)
    doc = json.loads(outcome.out)
    doc["f_vector"][1] = str(int(doc["f_vector"][1]) + 1)
    assert request.expect.problems(0, json.dumps(doc), "")


def _ladder_requests():
    return workloads.plan("audit-ladder", 1, Path("unused")).requests[:10]


def test_a_crash_is_a_wrong_answer():
    def crashing_main(argv):
        raise KeyError("boom")

    bench = run.Run(_ladder_requests())
    bench.one_pass(crashing_main)
    assert bench.failed == bench.wrong == 10


def test_rejecting_valid_input_is_a_wrong_answer():
    def rejecting_main(argv):
        print("error: no", file=sys.stderr)
        return 2

    bench = run.Run(_ladder_requests())
    bench.one_pass(rejecting_main)
    assert bench.failed == bench.wrong == 10


def test_only_the_named_known_defect_is_not_a_wrong_answer(tmp_path):
    plan = workloads.plan("corpus-io", 1, tmp_path)
    deep = next(r for r in plan.requests if r.kind == "known-defect")
    hostile = next(r for r in plan.requests if r.kind == "hostile" and "--gen" in r.argv)

    def outcome(rc=None, error=""):
        return run.Outcome(rc, "", "", error, 0.0)

    recursion = outcome(error="RecursionError: maximum recursion depth exceeded")
    assert run.judge(deep, recursion)[1] is False
    assert run.judge(deep, run.Outcome(2, "", "error: too deep\n", "", 0.0)) == ([], False)
    assert run.judge(deep, outcome(error="KeyError: 'cone'"))[1] is True
    assert run.judge(deep, outcome(rc=0))[1] is True
    assert run.judge(hostile, recursion)[1] is True
    assert run.judge(hostile, outcome(rc=1))[1] is True


def _traced_pass(tmp_path):
    plan = workloads.plan("corpus-io", 3, tmp_path)

    def generate(expr, path, fmt):
        assert run.call(cli.main, ["gen", expr, "-o", str(path), "--format", fmt]).rc == 0

    workloads.write_inputs(plan, generate)
    requests = [r for r in plan.requests if r.kind != "batch"][:80]
    tracer = tracing.Tracer()
    bench = run.Run(requests)
    with tracer.installed():
        wall = bench.one_pass(cli.main, tracer)
    return tracer, wall, bench


def test_span_self_times_add_up_to_the_traced_wall_time(tmp_path):
    tracer, wall, bench = _traced_pass(tmp_path)
    assert bench.wrong == 0
    metrics = tracer.metrics(wall)
    total_self = sum(tracer.self_times().values())
    assert total_self == pytest.approx(wall * (1 - metrics["trace.uncovered_share"]), rel=1e-9)
    assert sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS) == pytest.approx(
        1 - metrics["trace.uncovered_share"], rel=1e-9
    )
    for name, start, end, parent, request in tracer.spans:
        assert end >= start
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == request
    # the wrappers are gone again
    assert cli.main.__module__ == "eulerian_kit.cli" and not hasattr(cli.main, "__wrapped__")
    # a fresh checkout has no work directory yet
    spans = tmp_path / "missing" / "spans.jsonl"
    tracer.write(spans)
    assert len(spans.read_text().splitlines()) == len(tracer.spans)


def test_counts_repeat_exactly(tmp_path):
    first, _, _ = _traced_pass(tmp_path / "a")
    second, _, _ = _traced_pass(tmp_path / "b")
    assert first.counts == second.counts


def test_manifest_matches_benchmark_json_and_predictions():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.manifest()
    predictions = json.loads((BENCH / "predictions.json").read_text())["per_layer"]
    assert set(predictions) == {name for name, _ in tracing.per_layer_metrics()}
    end_to_end = {name for name, *_ in run.END_TO_END}
    for entry in predictions.values():
        assert set(entry["moves"]) <= end_to_end
        assert entry["workload"] in set(WORKLOADS) | {"all"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_scaled_times_cancel_the_host_speed():
    # a host twice as slow doubles the time and the slices around it alike
    assert run.scaled(0.2, 0.003, 0.005) == pytest.approx(run.scaled(0.4, 0.006, 0.010))
    assert run.scaled(0.2, run.REF_CALIBRATION_S, run.REF_CALIBRATION_S) == pytest.approx(0.2)
    bench = run.Run(_ladder_requests())
    bench.one_pass(lambda argv: 0)
    assert len(bench.latencies[0]) == len(bench.raw[0]) == len(bench.requests)
