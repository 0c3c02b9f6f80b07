"""Fuzzing ``batch`` and ``check`` over random directories of facet files.

Each directory mixes valid files with hostile ones: empty and malformed
plain files, truncated, deeply nested and huge-integer JSON, bytes that are
not UTF-8, and odd file names.  Both commands run in-process with a stdout
that encodes strictly as UTF-8, as on a UTF-8 terminal, and must keep the
exit-code contract without letting an exception escape ``main``.
"""

import contextlib
import io
import json
import os
import random
from importlib import resources

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_kit.cli import CHECK_NAMES, main

import oracles

SCHEMA = json.loads(
    resources.files("eulerian_kit").joinpath("report_schema.json").read_text()
)


def valid_plain(rng):
    return "".join(" ".join(row) + "\n" for row in oracles.random_facets(rng))


def valid_json(rng):
    return json.dumps({"facets": oracles.random_facets(rng)})


# content kind -> function of a Random returning str (written as UTF-8) or bytes
CONTENTS = {
    "plain": valid_plain,
    "json": valid_json,
    "empty": lambda rng: "",
    "comment_only": lambda rng: "# nothing here\n\n",
    "repeated_vertex": lambda rng: "a b a\n",
    "truncated_json": lambda rng: (text := valid_json(rng))[: rng.randrange(len(text))],
    "deep_json": lambda rng: "[" * 100_000,
    "huge_int_json": lambda rng: '{"facets": [[' + "9" * 5000 + "]]}",
    "wrong_shape_json": lambda rng: rng.choice(['{"facets": [[1, 2]]}', "[]", '{"facets": 7}']),
    "surrogate_label_json": lambda rng: '{"facets": [["\\ud800", "a"]]}',
    "undecodable_bytes": lambda rng: b"a b\n\xff\xfe c\n",
}

# file name stems; the index in front of each keeps the names distinct
STEMS = ["k", "two words", "-dash", "é", os.fsdecode(b"x\xff"), "#hash"]
SUFFIXES = [".facets", ".txt", ".json", ".dat"]


def shown(name):
    """How a file name is printed: bytes that are not UTF-8 as escapes like \\xff."""
    return os.fsencode(name).decode("utf-8", "backslashreplace")


def run(argv):
    """Run main in-process; stdout encodes strictly as UTF-8, stderr as a
    terminal's does.  Returns (exit code, stdout, stderr)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out.flush()
    err.flush()
    return rc, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    entries=st.lists(
        st.tuples(
            st.sampled_from(sorted(CONTENTS)),
            st.sampled_from(STEMS),
            st.sampled_from(SUFFIXES),
        ),
        max_size=6,
    ),
    which=st.lists(st.sampled_from(CHECK_NAMES + ("all",)), max_size=2),
    exhaustive=st.booleans(),
)
def test_batch_and_check_keep_the_contract_on_random_directories(
    tmp_path_factory, seed, entries, which, exhaustive
):
    rng = random.Random(seed)
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    corpus.mkdir()
    for i, (kind, stem, suffix) in enumerate(entries):
        content = CONTENTS[kind](rng)
        path = corpus / f"{i}{stem}{suffix}"
        if isinstance(content, str):
            content = content.encode("utf-8")
        path.write_bytes(content)
    listed = sorted(p for p in corpus.iterdir() if p.suffix != ".dat")
    flags = ["--exhaustive"] * exhaustive

    # check, one file at a time
    want = {}
    for path in listed:
        rc, out, err = run(["check", str(path), *which, *flags, "--json"])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert out == "" and err.startswith("error: ")
        else:
            jsonschema.validate(json.loads(out), SCHEMA)
        want[shown(path.name)] = {0: "pass", 1: "FAIL", 2: "error"}[rc]

    # batch over the whole directory
    reports = root / "reports"
    rc, out, err = run(["batch", str(corpus), *which, *flags, "-o", str(reports)])
    assert rc in (0, 1, 2)
    lines = out.splitlines()
    assert len(lines) == len(listed) + 1
    width = max((len(name) for name in want), default=4)
    rows = {line[:width].rstrip(): line[width + 2 :].split(" ")[0] for line in lines[:-1]}
    assert rows == want
    for path in listed:
        if want[shown(path.name)] != "error":
            report = json.loads((reports / (path.name + ".report.json")).read_text())
            jsonschema.validate(report, SCHEMA)
    if listed and all(status == "error" for status in want.values()):
        assert rc == 2
    else:
        assert rc == (0 if all(status == "pass" for status in want.values()) else 1)
