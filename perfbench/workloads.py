"""The benchmark's workloads: seeded request lists for a closed loop.

Each workload is a table of request classes.  The requests of one class do
the same kind of work on isomorphic complexes: the same complex spelled as
a different generator expression, or the same facet file with its labels
renamed and its rows shuffled.  The seed picks the spellings, the labels and
the order of the requests, so every seed issues the same amount of work and
the same number of requests of each kind.  Class sizes put the median and
the 90th-percentile request inside one class, away from the boundary
between two kinds of request, where a small shift in timing would move the
percentile from one kind to the other.  A class issues each of its
spellings equally often: spellings can differ in cost (a non-Eulerian join
fails its audit sooner with one side first), and a seed that favoured the
cheaper one would issue less work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import algebra as alg
from algebra import RP2, TORUS, bsd, cone, cp, disjoint_union, join, polygon, sb, suspension
from expect import Batch, GenWrite, Rejected, Report, file_provenance, read_rows

WHY = {
    "audit-ladder": (
        "check --all on Eulerian ladder expressions and non-Eulerian joins; the per-face "
        "link audit in checks.is_eulerian dominates"
    ),
    "build-info": (
        "info and check ds formula proof on 12k-546k faces; generator build, closure, flag "
        "and memory dominate and the Eulerian audit never runs"
    ),
    "corpus-io": (
        "reads, writes, batch runs and hostile inputs over small facet files; argparse, "
        "parsing, interning, emit and writes take a third, most audits exit early"
    ),
}


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    expect: object = field(compare=False)


@dataclass(frozen=True)
class InputFile:
    """A file written in set-up: a generator's facets, relabeled and
    reordered under `seed`, or raw bytes when expr is None."""

    path: Path
    expr: alg.Expr | None
    seed: str = ""
    raw: bytes = b""


@dataclass
class Plan:
    requests: list[Request]
    files: list[InputFile] = field(default_factory=list)
    dirs: list[Path] = field(default_factory=list)  # created empty in set-up


def swaps(a, b):
    """The two spellings of a join, which build isomorphic complexes at the
    same cost."""
    return [join(a, b), join(b, a)]


def swaps_union(a, b):
    return [disjoint_union(a, b), disjoint_union(b, a)]


def _spread(rng, count, variants):
    """count spellings cycling through variants from a seeded offset, so each
    spelling appears a fixed number of times, give or take one."""
    offset = rng.randrange(len(variants))
    return [variants[(offset + i) % len(variants)] for i in range(count)]


def spell(e, rng) -> str:
    """The expression with seeded blanks around its arguments, which the
    parser must skip; reports still show the canonical spelling."""
    out = e.name + "".join(f":{p}" for p in e.params)
    if e.args:
        parts = (" " * rng.randrange(2) + spell(a, rng) + " " * rng.randrange(2) for a in e.args)
        out += "(" + ",".join(parts) + ")"
    return out


def _generator_request(rng, kind, e, mode):
    """check --all, info, or check ds formula proof ("dfp") of an expression."""
    text = spell(alg.guard(e), rng)
    argv = {
        "all": ("check", "--gen", text, "--all", "--json"),
        "info": ("info", "--gen", text, "--json"),
        "dfp": ("check", "--gen", text, "ds", "formula", "proof", "--json"),
    }[mode]
    return Request(kind, argv, Report(e, {"kind": "generator", "expr": e.text()}, mode))


def _draw(rng, table):
    requests = [
        _generator_request(rng, kind, e, mode)
        for kind, count, mode, variants in table
        for e in _spread(rng, count, variants)
    ]
    rng.shuffle(requests)
    return requests


# (kind, requests per pass, mode, spellings).  Kinds run from cheap to
# expensive.  122 requests: the median is request 61, the 13th of the 28
# "mid" ones, among the 20 audits of bsd^2(simplex_boundary:3) that sit
# between the 4 cheaper and the 4 dearer mid requests; the 90th percentile
# is request 110, inside "large", whose requests all cost about the same.  Sizes run from 74 to 13616
# faces; the largest is a non-Eulerian join, whose audit stops at its first
# bad vertex (a full audit of 13k faces takes seconds, a pass's whole
# length).
T2 = bsd(TORUS, 2)
AUDIT_LADDER = [
    ("tiny", 6, "all", swaps(TORUS, polygon(5))),
    ("tiny", 6, "all", swaps(TORUS, sb(1))),  # a suspension of the torus
    ("tiny", 6, "all", swaps(RP2, polygon(6))),
    ("tiny", 6, "all", [bsd(sb(3))]),
    ("tiny", 6, "all", swaps(cp(1), cp(3))),
    ("small", 6, "all", swaps(polygon(5), polygon(6))),
    ("small", 4, "all", [bsd(TORUS)]),
    ("small", 4, "all", [bsd(RP2)]),
    ("small", 4, "all", [bsd(cp(3))]),
    ("mid", 4, "all", swaps(cp(3), polygon(6))),
    ("mid", 20, "all", [bsd(sb(3), 2)]),
    ("mid", 4, "all", swaps(sb(4), polygon(6))),
    ("upper", 4, "all", [cp(6)]),
    ("upper", 6, "all", swaps(cp(2), cp(4))),
    ("upper", 6, "all", [bsd(sb(4))]),
    ("large", 20, "all", swaps(polygon(7), cp(4))),
    ("large", 2, "all", [bsd(RP2, 2)]),
    ("top", 1, "all", [bsd(sb(5))]),
    ("top", 2, "all", [bsd(TORUS, 2)]),
    ("top", 1, "all", [bsd(cp(4))]),
    ("top", 1, "all", [cp(7)]),
    ("top", 1, "all", [bsd(join(polygon(4), polygon(5)))]),
    ("top", 2, "all", swaps(T2, polygon(4))),
]

# 104 requests, all of 12k to 546k faces: the median is request 52, inside
# "mid", and the 90th percentile request 94, inside "large".  Each class
# costs about twice the one below it, so that the spread of single requests
# on a busy host does not mix neighbouring classes.  "ds formula proof"
# only on even dimensions, where the explicit proof check is defined.
BUILD_INFO = [
    ("mid", 72, "dfp", swaps(T2, polygon(5)) + swaps(bsd(RP2, 2), polygon(5))),
    ("large", 14, "dfp", [cp(9), sb(13)]),
    ("large", 14, "info", [bsd(sb(4), 2), join(sb(6), sb(6))]),
    ("top", 1, "dfp", [bsd(sb(5), 2)]),
    ("top", 1, "info", [cp(10)]),
    ("top", 1, "dfp", [sb(15)]),
    ("top", 1, "info", [bsd(cp(4), 2)]),
]

# Facet files written in set-up: (name, format, check requests per round,
# spellings).  The complexes are Eulerian, or cones (which fail at their
# first vertex) and joins with a torus (which fail at the first vertex of
# the other side), or of mixed dimension (which fail the purity scan).
# Checks of sd_torus are the plateau of the 90th percentile: 28 of 292
# requests per round, with the 16 batch and torus_join --exhaustive
# requests above them and everything else below.
CHECKS = 8  # check requests per corpus file and round, except the plateau's
OCTAHEDRA = [cp(3), suspension(polygon(4)), *swaps(polygon(4), sb(1))]
CORPUS = [
    ("torus", "plain", CHECKS, [TORUS]),
    ("rp2", "json", CHECKS, [RP2]),
    ("octahedron", "plain", CHECKS, OCTAHEDRA),
    ("sd_tetrahedron", "plain", CHECKS, [bsd(sb(3))]),
    ("sd_torus", "json", 28, [bsd(TORUS)]),
    ("polygons", "plain", CHECKS, swaps(polygon(5), polygon(6))),
    ("simplex5", "plain", CHECKS, [sb(5)]),
    ("cross4", "json", CHECKS, [cp(4), *swaps(polygon(4), polygon(4)), *swaps(cp(1), cp(3))]),
    ("cone_torus", "plain", CHECKS, [cone(TORUS)]),
    ("cone_octahedron", "json", CHECKS, [cone(v) for v in OCTAHEDRA]),
    ("torus_join", "plain", CHECKS, swaps(TORUS, polygon(5))),
    ("mixed_dims", "plain", CHECKS, swaps_union(TORUS, polygon(6))),
    ("mixed_dims2", "json", CHECKS, swaps_union(sb(4), polygon(5))),
]
INFOS = 6  # info requests per corpus file and round
EXHAUSTIVE = 4  # check --exhaustive requests per failing corpus file and round

# What the write requests generate, in both formats; 48 per round.
WRITES = [
    [TORUS],
    [bsd(sb(3))],
    swaps(cp(1), cp(3)),
    swaps(polygon(5), polygon(6)),
    [cone(TORUS)],
    swaps_union(TORUS, polygon(6)),
]
N_WRITES = 48

# Each batch directory holds a fixed set of files, so every batch call does
# the same work: the plateau's complex, which puts every batch call above
# the plateau, and seven others; the last directory also holds a malformed
# file.
BATCH_DIRS = 4
BATCH_FILES = 8
BATCHES = 3  # batch requests per directory and round

HOSTILE = 2  # requests per hostile input and round
DEEP_NESTING = 2000

# A pass is this many rounds of the requests above, shuffled together, so
# that a pass takes a few seconds and its time repeats within a tenth.
ROUNDS = 2


def _labels(rng, n):
    return [f"v{k}" for k in rng.sample(range(100_000, 1_000_000), n)]


def _malformed(rng) -> bytes:
    rows = [" ".join(_labels(rng, 3)) for _ in range(20)]
    a, b = _labels(rng, 2)
    rows.insert(rng.randrange(1, 20), f"{a} {b} {a}")
    return ("\n".join(rows) + "\n").encode()


def _truncated_json(rng) -> bytes:
    text = json.dumps({"facets": [_labels(rng, 3) for _ in range(20)]})
    return text[: rng.randrange(len(text) // 3, len(text) - 2)].encode()


def _undecodable(rng) -> bytes:
    return b"\xff" + bytes(rng.randrange(0x80, 0x100) for _ in range(200))


def _corpus_io(rng, workdir: Path) -> Plan:
    files, requests = [], []
    corpus_dir, out_dir = workdir / "corpus", workdir / "gen_out"

    def add_file(directory, name, fmt, variants):
        path = directory / (name + (".json" if fmt == "json" else ".facets"))
        e = alg.guard(rng.choice(variants))
        files.append(InputFile(path, e, seed=f"{rng.random()}"))
        return path, e

    for name, fmt, checks, variants in CORPUS:
        path, e = add_file(corpus_dir, name, fmt, variants)
        p, prov = str(path), file_provenance(path)
        report = Report(e, prov, "all", any_vertex_order=True)
        kind = "check" if checks == CHECKS else "check-plateau"
        requests += [Request(kind, ("check", p, "--all", "--json"), report)] * checks
        requests += [Request("info", ("info", p, "--json"), Report(e, prov, "info"))] * INFOS
        if not alg.eulerian_audit(e).holds:
            argv = ("check", p, "--all", "--exhaustive", "--json")
            report = Report(e, prov, "all", exhaustive=True, any_vertex_order=True)
            requests += [Request("exhaustive", argv, report)] * EXHAUSTIVE

    for i in range(N_WRITES):
        e = alg.guard(rng.choice(WRITES[i % len(WRITES)]))
        fmt = ("plain", "json")[i % 2]
        path = str(out_dir / f"w{i:03d}{'.json' if fmt == 'json' else '.facets'}")
        argv = ("gen", spell(e, rng), "-o", path, "--format", fmt)
        requests.append(Request("write", argv, GenWrite(e, path)))

    plateau = [c for c in CORPUS if c[2] != CHECKS]
    others = [c for c in CORPUS if c[2] == CHECKS]
    for d in range(BATCH_DIRS):
        directory = workdir / "batch" / f"d{d}"
        entries = {}
        rotation = [others[(d * BATCH_FILES + k) % len(others)] for k in range(BATCH_FILES - 1)]
        for k, (name, fmt, _, variants) in enumerate(plateau + rotation):
            path, e = add_file(directory, f"{k}_{name}", fmt, variants)
            entries[path.name] = e
        if d == BATCH_DIRS - 1:
            path = directory / f"{BATCH_FILES}_malformed.facets"
            files.append(InputFile(path, None, raw=_malformed(rng)))
            entries[path.name] = None
        argv = ("batch", str(directory), "--all")
        requests += [Request("batch", argv, Batch(str(directory), entries))] * BATCHES

    hostile = [
        ("check", "malformed.facets", _malformed(rng)),
        ("info", "truncated.json", _truncated_json(rng)),
        ("check", "undecodable.facets", _undecodable(rng)),
    ]
    for command, name, raw in hostile:
        files.append(InputFile(corpus_dir / name, None, raw=raw))
        argv = (command, str(corpus_dir / name), "--json")
        requests += [Request("hostile", argv, Rejected())] * HOSTILE
    bad = rng.choice(["join(torus7)", "polygon:2", "torus7:3", "simplex_boundary(torus7)"])
    deep = "cone(" * DEEP_NESTING + "polygon:4"
    for kind, text, known in (("hostile", bad, None), ("known-defect", deep, "RecursionError")):
        argv = ("check", "--gen", text, "--all", "--json")
        requests += [Request(kind, argv, Rejected(known_error=known))] * HOSTILE

    requests *= ROUNDS
    rng.shuffle(requests)
    return Plan(requests, files, [out_dir])


def plan(workload: str, seed: int, workdir: Path) -> Plan:
    """The requests of one pass, and the files set-up must write first."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "audit-ladder":
        return Plan(_draw(rng, AUDIT_LADDER))
    if workload == "build-info":
        return Plan(_draw(rng, BUILD_INFO))
    if workload == "corpus-io":
        return _corpus_io(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def relabel(rows, rng):
    """Rename every label, shuffle the rows and the labels in each row."""
    names = sorted({label for row in rows for label in row})
    rename = dict(zip(names, _labels(rng, len(names))))
    rows = [[rename[label] for label in row] for row in rows]
    for row in rows:
        rng.shuffle(row)
    rng.shuffle(rows)
    return rows


def write_inputs(plan: Plan, generate) -> None:
    """Write the plan's input files.  generate(expr_text, path, fmt) writes a
    generator's facets; the result is then relabeled under the file's seed."""
    for d in plan.dirs:
        d.mkdir(parents=True, exist_ok=True)
    for f in plan.files:
        f.path.parent.mkdir(parents=True, exist_ok=True)
        if f.expr is None:
            f.path.write_bytes(f.raw)
            continue
        fmt = "json" if f.path.suffix == ".json" else "plain"
        generate(f.expr.text(), f.path, fmt)
        rows = relabel(read_rows(f.path), random.Random(f.seed))
        if fmt == "json":
            text = json.dumps({"facets": rows}, indent=1) + "\n"
        else:
            text = f"# {f.expr.text()}, relabeled\n" + "".join(" ".join(r) + "\n" for r in rows)
        f.path.write_text(text, encoding="utf-8")
