#!/usr/bin/env python3
"""Benchmark of the eulerian-kit command line, end to end and per layer.

One workload, in this process, as the last line a JSON result:

    python3 perfbench/run.py --workload audit-ladder --seed 1 --seconds 36 --trace 0

Every workload, each in its own process, with and without tracing; prints
every metric, rewrites BENCHMARK.json and records the measured layer shares
in perfbench/predictions.json:

    python3 perfbench/run.py --seed 1

The load is a closed loop with one client and one request at a time.  A
request is one in-process call of eulerian_kit.cli.main(argv) with stdout
and stderr captured.  A pass issues every request of the workload once; a
run repeats passes for --seconds and verifies every output against the
closed-form oracle after each pass.  A request fails when it raises, exits
with another code than the oracle's, or prints another report.  Every
failure is a wrong answer, which makes "correct" false, except a known
defect that the request names (the RecursionError of deeply nested
expressions), which counts only in "failed".

The host is shared and its speed drifts by a third within minutes, and
every request of a run moves with it.  So the run also times a fixed
calibration slice of plain Python (dict, set, tuple and frozenset work, no
code of the program) between requests, at least every 50 ms, and before
and after each fresh interpreter of setup_s.  Every end-to-end time is
reported scaled to a host on which that slice takes REF_CALIBRATION_S:
the measured time times REF_CALIBRATION_S over the mean of the slices
just before and just after it.  The scaled time still grows with whatever
the program does; the unscaled medians are printed beside each metric.
The run keeps to one core, so that a request and the slices around it
share that core's load.

With --trace 0 the result holds the end-to-end metrics, request
percentiles taken per pass and their median over passes reported.  With
--trace 1 a shorter untraced phase runs first, then traced passes whose
per-layer metrics the result holds.  Inputs and spans go to .bench_work/ in
the repository root.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_SECONDS = 36
SETUP_REPEATS = 21
CALIBRATE_EVERY_S = 0.05
REF_CALIBRATION_S = 0.005  # about the slice's time between requests on a shared 2.1 GHz Xeon core
MIN_PASSES = 3  # so that one pass slowed by other load does not move a median
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run

# name, unit, better, bound (share of the parent's median it may worsen)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("req_p50_ms", "ms", "lower", 0.25),
    ("req_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

SETUP_CODE = "import eulerian_kit.cli as cli; cli.build_arg_parser()"


def calibration_slice() -> float:
    """Seconds a fixed piece of plain Python takes now: the host's speed.
    The collector is off, so the program's live objects do not add to it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    counts, pairs = {}, set()
    for i in range(2500):
        k = (i * 7) % 1999
        counts[k] = counts.get((i * 13) % 1999, 0) + i
        pairs.add((k, i & 31))
    sorted(pairs)
    faces = set()
    for i in range(300):
        vertices = (i, i * 3 % 3001, i * 7 % 3001, i * 11 % 3001)
        for r in (1, 2, 3):
            faces.update(frozenset(c) for c in itertools.combinations(vertices, r))
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


def scaled(seconds, before, after) -> float:
    """A time scaled to the reference host speed, by the calibration slices
    around it."""
    return seconds * REF_CALIBRATION_S * 2 / (before + after)


@dataclass
class Outcome:
    rc: object
    out: str
    err: str
    error: str
    seconds: float


def call(main, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a measured outcome, not the end of the run
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    seconds = time.perf_counter() - start
    return Outcome(rc, out.getvalue(), err.getvalue(), error, seconds)


def judge(request, outcome) -> tuple[list[str], bool]:
    """Problems with one outcome, and whether it is a wrong answer: every
    failure is one, except the known defect a request's expectation names."""
    expect = request.expect
    if outcome.error:
        known = outcome.error.split(":")[0] == getattr(expect, "known_error", None)
        return [f"raised {outcome.error}"], not known
    if outcome.rc != expect.rc:
        return [f"exit {outcome.rc}, want {expect.rc}"], True
    problems = expect.problems(outcome.rc, outcome.out, outcome.err)
    return problems, bool(problems)


class Run:
    """Passes over one workload's requests, with their verified outcomes."""

    def __init__(self, requests):
        self.requests = requests
        self.walls: list[float] = []  # unscaled, without the calibration slices
        self.latencies: list[list[tuple[float, str]]] = []  # scaled, per pass
        self.raw: list[list[float]] = []  # unscaled, per pass
        self.attempted = self.failed = self.wrong = 0
        self.problems: list[str] = []

    def one_pass(self, main, tracer=None) -> float:
        """One pass; returns its wall time without the calibration slices."""
        outcomes = []
        slices = [calibration_slice()]
        before = []  # per request: the index of the last slice before it; the next follows it
        calibrating = 0.0
        start = last = time.perf_counter()
        for i, request in enumerate(self.requests):
            if tracer is not None:
                tracer.request = i
            outcomes.append(call(main, request.argv))
            before.append(len(slices) - 1)
            if time.perf_counter() - last > CALIBRATE_EVERY_S or i == len(self.requests) - 1:
                t = time.perf_counter()
                slices.append(calibration_slice())
                last = time.perf_counter()
                calibrating += last - t
        wall = time.perf_counter() - start - calibrating
        self.walls.append(wall)
        self.raw.append([o.seconds for o in outcomes])
        self.latencies.append([
            (scaled(o.seconds, slices[k], slices[k + 1]), r.kind)
            for r, o, k in zip(self.requests, outcomes, before)
        ])
        for request, outcome in zip(self.requests, outcomes):
            problems, wrong = judge(request, outcome)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.wrong += wrong
                if len(self.problems) < 20:
                    self.problems.append(f"{' '.join(request.argv)[:120]}: {problems[0]}")
        return wall

    def repeat(self, main, seconds, min_passes=1):
        """Passes until another would end after `seconds`, and at least
        min_passes."""
        start = time.perf_counter()
        cycles = []
        while True:
            t = time.perf_counter()
            self.one_pass(main)
            cycles.append(time.perf_counter() - t)
            late = time.perf_counter() - start + statistics.median(cycles) > seconds
            if late and len(cycles) >= min_passes:
                return


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def kind_at(latencies, q, width=0.05):
    """The kind of request at quantile q of one pass, and that kind's share
    of the requests within `width` of it: a low share means the percentile
    sits on a boundary between kinds, where small shifts move it far."""
    ranked = sorted(latencies)
    kind = ranked[max(0, math.ceil(q * len(ranked)) - 1)][1]
    lo = max(0, math.floor((q - width) * len(ranked)))
    near = ranked[lo : math.ceil((q + width) * len(ranked))]
    return kind, sum(k == kind for _, k in near) / len(near)


def setup_times(repeats) -> list[tuple[float, float]]:
    """Wall time for a fresh interpreter to import the CLI and build its
    argument parser, with the parent's environment: (scaled, unscaled)
    per repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    after = calibration_slice()
    for _ in range(repeats):
        before = after
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, cwd=ROOT)
        seconds = time.perf_counter() - start
        after = calibration_slice()
        times.append((scaled(seconds, before, after), seconds))
    return times


def load_cli():
    if not (SRC / "eulerian_kit" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'eulerian_kit'} not found; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    from eulerian_kit import cli

    return cli


def prepare(cli, workload, seed):
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    plan = workloads.plan(workload, seed, workdir)

    def generate(expr, path, fmt):
        outcome = call(cli.main, ["gen", expr, "-o", str(path), "--format", fmt])
        if outcome.rc != 0:
            raise RuntimeError(f"set-up: gen {expr} failed: {outcome.error or outcome.err}")

    workloads.write_inputs(plan, generate)
    return plan


def end_to_end(run, setup):
    """The end-to-end metrics, times scaled to the reference host speed;
    request percentiles are taken per pass and their median over passes
    reported."""
    n = len(run.requests)
    scaled_passes = [[t for t, _ in lat] for lat in run.latencies]

    def per_pass(values, q):
        return statistics.median(percentile(sorted(v), q) for v in values)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "run_s": (statistics.median(sum(v) for v in scaled_passes), "s"),
        "req_p50_ms": (per_pass(scaled_passes, 0.5) * 1000, "ms"),
        "req_p90_ms": (per_pass(scaled_passes, 0.9) * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    passes = len(run.walls)
    notes = {
        "setup_s": f"median of {len(setup)} interpreter starts; "
        f"unscaled {statistics.median(u for _, u in setup):.4g} s",
        "run_s": f"median of {passes} passes' request time; "
        f"unscaled {statistics.median(sum(v) for v in run.raw):.4g} s",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for q in (0.5, 0.9):
        kind, share = kind_at(run.latencies[-1], q)
        notes[f"req_p{round(q * 100)}_ms"] = (
            f"median of {passes} passes of n={n}, {n - math.ceil(q * n)} beyond; "
            f"unscaled {per_pass(run.raw, q) * 1000:.4g} ms; "
            f"a {kind} request, as are {share:.0%} within 5 points"
        )
    return metrics, notes


def per_layer(run, main, seconds, spans_path):
    """An untraced phase, then traced passes; the per-layer metrics are
    medians over the traced passes."""
    run.repeat(main, seconds * UNTRACED_SHARE)
    untraced = statistics.median(run.walls)
    tracer = tracing.Tracer()
    passes = []
    with tracer.installed():
        start = time.perf_counter()
        while True:
            tracer.reset()
            wall = run.one_pass(main, tracer)
            passes.append(tracer.metrics(wall))
            passes[-1].update({"trace.run_s": wall, "trace.overhead_s": wall - untraced})
            if time.perf_counter() - start + wall > seconds * (1 - UNTRACED_SHARE):
                break
    tracer.write(spans_path)
    metrics = {
        name: (statistics.median(p[name] for p in passes), unit)
        for name, unit in tracing.per_layer_metrics()
    }
    return metrics, {name: f"median of {len(passes)} traced passes" for name in metrics}


def run_workload(args) -> int:
    cli = load_cli()
    os.chdir(ROOT)
    # One core for this process and the interpreters it starts, so that a
    # request and the calibration slices around it share the core's load.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    plan = prepare(cli, args.workload, args.seed)
    # Keep the benchmark's own long-lived objects out of the collector's
    # way, as they would be in a fresh CLI process.
    gc.collect()
    gc.freeze()
    run = Run(plan.requests)
    if args.trace:
        spans = WORK / f"spans-{args.workload}.jsonl"
        metrics, notes = per_layer(run, cli.main, args.seconds, spans)
    else:
        setup = setup_times(SETUP_REPEATS)
        run.repeat(cli.main, args.seconds, MIN_PASSES)
        metrics, notes = end_to_end(run, setup)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run.walls)} passes of {len(plan.requests)} requests")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  {'failed_share':<26} {run.failed / run.attempted:>14.6g} share  "
          f"{run.failed} failed of {run.attempted} attempted, {run.wrong} wrong answers")
    for problem in run.problems:
        print(f"  failed: {problem}", file=sys.stderr)
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# -- every workload ----------------------------------------------------------------


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in workloads.WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in tracing.per_layer_metrics()
        ],
    }


def measured_shares(metrics) -> dict:
    """Each layer's, and each per-layer time's, share of the traced pass."""
    wall = metrics["trace.run_s"]["value"]
    return {
        name: round(m["value"] / wall if m["unit"] == "s" else m["value"], 4)
        for name, m in metrics.items()
        if name.endswith(".share") or (m["unit"] == "s" and name.startswith(tracing.LAYERS))
    }


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process; then
    BENCHMARK.json and the measured shares in predictions.json."""
    shares = {}
    for workload in workloads.WHY:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                return proc.returncode
            if trace:
                result = json.loads(proc.stdout.splitlines()[-1])
                shares[workload] = measured_shares(result["metrics"])
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    path = HERE / "predictions.json"
    predictions = json.loads(path.read_text())
    predictions["measured_shares"] = {"seed": args.seed, **shares}
    path.write_text(json.dumps(predictions, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
