"""End-to-end command-line behavior: formats, reports, exit codes."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from importlib import resources
from math import comb
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eulerian_kit
from eulerian_kit import cli, generators
from eulerian_kit.cli import (
    CHECK_NAMES,
    build_document,
    main,
    parse_generator_expr,
)
from eulerian_kit.complexes import SimplicialComplex
from eulerian_kit.checks import check_main_formula, ds_residuals, proof_trace
from eulerian_kit.errors import InputError, PreconditionError
from eulerian_kit.facetio import (
    display_path,
    escape_controls,
    load_complex,
    to_json,
    write_facets,
)
from eulerian_kit.generators import MAX_NESTING, FaceCounts, build, face_counts
from eulerian_kit.invariants import f_vector

import oracles

SCHEMA = json.loads(
    resources.files("eulerian_kit").joinpath("report_schema.json").read_text()
)

INT_RE = re.compile(r"^-?[0-9]+$")
RAT_RE = re.compile(r"^-?[0-9]+/[1-9][0-9]*$")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return rc, doc, err


# -- generator expression grammar ------------------------------------------------


def test_expr_grammar():
    spec = parse_generator_expr("simplex_boundary:3")
    assert (spec.name, spec.params) == ("simplex_boundary", (3,))
    nested = parse_generator_expr("join(simplex_boundary:2, simplex_boundary:2)")
    assert nested.name == "join"
    assert [a.name for a in nested.args] == ["simplex_boundary"] * 2
    deep = parse_generator_expr("barycentric_subdivision(suspension(torus7))")
    assert deep.to_expr() == "barycentric_subdivision(suspension(torus7))"


@pytest.mark.parametrize(
    "bad", ["", "123", "torus7)", "join(torus7", "torus7 extra", "polygon:", "join(,)"]
)
def test_expr_grammar_rejects_malformed_input(bad):
    with pytest.raises(InputError):
        parse_generator_expr(bad)


def test_expr_nesting_is_bounded():
    def nested(depth):
        return "cone(" * depth + "polygon:4" + ")" * depth

    assert parse_generator_expr(nested(MAX_NESTING)).to_expr() == nested(MAX_NESTING)
    with pytest.raises(InputError, match="nested deeper"):
        parse_generator_expr(nested(MAX_NESTING + 1))


def test_deeply_nested_expression_is_an_input_error(capsys):
    rc, out, err = run(capsys, "check", "--gen", "cone(" * 2000 + "polygon:4", "--all")
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_overlong_integer_parameter_is_an_input_error(capsys):
    expr = "polygon:" + "9" * 5000
    with pytest.raises(InputError, match="integer too long at column 9"):
        parse_generator_expr(expr)
    rc, out, err = run(capsys, "info", "--gen", expr)
    assert rc == 2
    assert out == ""
    assert err == "error: generator expression: integer too long at column 9\n"


# -- info -------------------------------------------------------------------------


def test_info_generator_json(capsys):
    rc, doc, _ = run_json(capsys, "info", "--gen", "simplex_boundary:3", "--json")
    assert rc == 0
    assert doc["f_vector"] == ["4", "6", "4"]
    assert doc["h_vector"] == ["1", "1", "1", "1"]
    assert doc["chi"] == "2"
    assert doc["is_flag"] == {"holds": False, "witness": ["0", "1", "2", "3"]}
    assert "is_eulerian" not in doc and "ds_rows" not in doc


def test_info_plain_file(tmp_path, capsys):
    path = tmp_path / "torus.facets"
    assert main(["gen", "torus7", "-o", str(path)]) == 0
    capsys.readouterr()
    rc, doc, _ = run_json(capsys, "info", str(path), "--json")
    assert rc == 0
    assert doc["f_vector"] == ["7", "21", "14"]
    assert doc["input"] == {"kind": "file", "path": str(path), "format": "plain"}


def test_info_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.facets"
    path.write_text("# nothing here\n\n")
    rc, doc, _ = run_json(capsys, "info", str(path), "--json")
    assert rc == 0
    assert doc["dim"] == "-1"
    assert doc["chi"] == "0"
    assert doc["f_vector"] == []


def test_parse_error_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.facets"
    path.write_text("a b c\nx y x\n")
    rc, out, err = run(capsys, "info", str(path))
    assert rc == 2
    assert ":2:5:" in err and "x" in err


def test_json_input_parse_error_has_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"facets": [["a", ]]}')
    rc, _, err = run(capsys, "info", str(path))
    assert rc == 2
    assert re.search(r":1:\d+:", err)


def test_missing_file_is_input_error(capsys):
    rc, _, err = run(capsys, "info", "no_such_file.facets")
    assert rc == 2


def test_a_file_and_a_generator_together_are_an_input_error(tmp_path, capsys):
    path = tmp_path / "t.facets"
    path.write_text("a b\n")
    assert run(capsys, "info", str(path), "--gen", "torus7") == (
        2, "", "error: give either a facet file or --gen, not both\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "--gen", "torus7", "--format", "json"],
        ["check", "--gen", "torus7", "--format", "plain", "ds"],
    ],
)
def test_an_input_format_with_a_generator_is_an_input_error(capsys, argv):
    """--format names a facet file's format, so with --gen it is refused,
    not ignored."""
    assert run(capsys, *argv) == (
        2, "", "error: --format applies to a facet file, not to --gen\n"
    )


@pytest.mark.parametrize("argv", [["info"], ["check"], ["check", "eulerian", "--json"]])
def test_no_input_is_an_input_error(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: no input: give a facet file or --gen EXPR\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"x": 1}', "expected an object with a 'facets' key"),
        ("[1, 2]", "expected an object with a 'facets' key"),
        ('{"facets": 3}', "'facets' must be an array"),
        ('{"facets": [["a"], "bc"]}', "facet 1 must be an array of strings"),
        ('{"facets": [["a", 1]]}', "facet 0 must be an array of strings"),
        ('{"facets": [["a"], ["b", null], 7]}', "facet 1 must be an array of strings"),
    ],
)
def test_json_file_without_a_facet_array_is_an_input_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(capsys, "info", str(path)) == (2, "", f"error: {path}: {message}\n")


def test_plain_file_names_its_first_repeated_vertex(tmp_path, capsys):
    path = tmp_path / "bad.facets"
    path.write_text("a b c\nd e # d\n\nx y x\nb c b\n")
    assert run(capsys, "info", str(path)) == (
        2, "", f"error: {path}:4:5: repeated vertex 'x' in facet\n"
    )


def test_format_option_overrides_the_file_extension(tmp_path, capsys):
    path = tmp_path / "triangle.facets"
    path.write_text('{"facets": [["a", "b"], ["b", "c"], ["a", "c"]]}\n')
    # read as plain, the line is one facet of seven tokens
    rc, doc, _ = run_json(capsys, "info", str(path), "--json")
    assert rc == 0
    assert doc["input"] == {"kind": "file", "path": str(path), "format": "plain"}
    assert doc["f_vector"] == [str(comb(7, k)) for k in range(1, 8)]
    rc, doc, _ = run_json(capsys, "info", str(path), "--format", "json", "--json")
    assert rc == 0
    assert doc["input"] == {"kind": "file", "path": str(path), "format": "json"}
    assert doc["f_vector"] == ["3", "3"]


# -- check ------------------------------------------------------------------------


def test_check_all_projective_plane(capsys):
    rc, doc, _ = run_json(capsys, "check", "--gen", "projective_plane6", "--all", "--json")
    assert rc == 0
    assert doc["checks_passed"] is True
    assert doc["main_formula"]["lhs"] == "1"
    assert doc["main_formula"]["rhs"] == "1/1"
    assert all(row["holds"] for row in doc["ds_rows"])
    assert doc["proof_trace"] == {"A": "-4", "B": "-4", "C": "-4", "P": "-4", "holds": True}


def test_check_formula_polygon6_fails_with_parity_warning(capsys):
    rc, doc, _ = run_json(capsys, "check", "--gen", "polygon:6", "formula", "--json")
    assert rc == 1
    sec = doc["main_formula"]
    assert sec["rhs"] == "3/1"
    assert sec["parity_warning"] is True
    assert sec["holds"] is False


def test_check_eulerian_suspension_of_torus_names_the_apex(capsys):
    rc, doc, _ = run_json(
        capsys, "check", "--gen", "suspension(torus7)", "eulerian", "--json"
    )
    assert rc == 1
    sec = doc["is_eulerian"]
    assert sec["witness"] == ["apex0"]
    assert sec["detail"]["chi_link"] == "0"
    assert sec["detail"]["expected"] == "2"


def test_check_exhaustive_collects_all_failures(capsys):
    rc, doc, _ = run_json(
        capsys,
        "check", "--gen", "suspension(torus7)", "eulerian", "--exhaustive", "--json",
    )
    assert rc == 1
    faces = [rec["face"] for rec in doc["is_eulerian"]["failures"]]
    assert faces == [["apex0"], ["apex1"]]


def test_check_proof_explicit_on_odd_dimension_is_input_error(capsys):
    rc, _, err = run(capsys, "check", "--gen", "polygon:5", "proof")
    assert rc == 2
    assert "odd" in err


def test_check_all_skips_proof_on_odd_dimension(capsys):
    rc, doc, _ = run_json(capsys, "check", "--gen", "simplex_boundary:4", "--all", "--json")
    assert rc == 0
    assert "proof_trace" not in doc
    assert doc["skipped"] == {"proof": "dimension 3 is odd"}


def test_check_flag_only_when_selected(capsys):
    rc, doc, _ = run_json(capsys, "check", "--gen", "simplex_boundary:3", "flag", "--json")
    assert rc == 1
    assert doc["is_flag"]["holds"] is False
    rc, doc, _ = run_json(capsys, "check", "--gen", "simplex_boundary:3", "--all", "--json")
    assert rc == 0
    assert "is_flag" not in doc


def test_check_unknown_generator(capsys):
    rc, _, err = run(capsys, "check", "--gen", "nonesuch:3")
    assert rc == 2
    assert "unknown generator" in err


def test_check_unknown_check_name(capsys):
    rc, _, err = run(capsys, "check", "--gen", "torus7", "bogus")
    assert rc == 2
    assert "unknown check" in err


def test_build_document_verdicts_mark_informational_results_none():
    hexagon = build(parse_generator_expr("polygon:6"))
    prov = {"kind": "generator", "expr": "polygon:6"}
    _, verdicts = build_document(hexagon, lambda: hexagon, prov, include={"flag"})
    assert verdicts == {"flag": None}
    _, verdicts = build_document(hexagon, lambda: hexagon, prov, include={"flag", "formula", "ds"})
    assert verdicts == {"flag": None, "ds": True, "formula": None}
    _, verdicts = build_document(
        hexagon, lambda: hexagon, prov, include={"flag", "formula"}, strict={"flag", "formula"}
    )
    assert verdicts == {"flag": True, "formula": False}


def test_check_runners_look_up_check_functions_at_call_time(monkeypatch, capsys):
    """Each row of cli.CHECKS calls its check function through cli's module
    globals when it runs, so a wrapper installed on the cli name later (the
    benchmark's tracer installs one) sees every call."""
    calls = dict.fromkeys(("is_eulerian", "ds_residuals", "check_main_formula", "proof_trace"), 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    rc, _, _ = run(capsys, "check", "--gen", "torus7", "--all")
    assert rc == 0
    assert calls == dict.fromkeys(calls, 1)


def test_check_table_matches_report_schema():
    """Every row's document key is a check section of the schema, in report
    order, and every check section of the schema has a row."""
    sections = set(SCHEMA["properties"]) - set(SCHEMA["required"]) - {"skipped", "checks_passed"}
    sections = [key for key in SCHEMA["properties"] if key in sections]
    assert [check.key for check in cli.CHECKS] == sections
    assert CHECK_NAMES == ("eulerian", "ds", "formula", "proof", "flag")
    assert {check.gates for check in cli.CHECKS} <= {"always", "even", "named"}
    assert {check.reads for check in cli.CHECKS} <= {"faces", "counts"}
    assert all(callable(check.text) for check in cli.CHECKS)
    assert {check.name for check in cli.CHECKS if check.reads == "counts"} == {
        "ds", "formula", "proof", "flag"
    }


def test_a_check_needs_only_its_row(monkeypatch):
    """A row added to cli.CHECKS, and nothing else, runs in build_document and
    shows in render_text, after the rows before it and before the skipped
    lines and the result."""
    stub = cli.Check(
        "stub", "stub_section",
        lambda K, exhaustive: (True, {"facets": str(len(K.facets))}), "named", "faces",
        lambda sec, color: [f"stub: {sec['facets']} facets"],
    )
    monkeypatch.setattr(cli, "CHECKS", cli.CHECKS + (stub,))
    hexagon = build(parse_generator_expr("polygon:6"))
    prov = {"kind": "generator", "expr": "polygon:6"}
    doc, verdicts = build_document(hexagon, lambda: hexagon, prov, include={"ds", "proof", "stub"})
    assert doc["stub_section"] == {"facets": "6"}
    assert verdicts == {"ds": True, "stub": None}
    doc["checks_passed"] = True
    lines = cli.render_text(doc).splitlines()
    assert lines[-4:] == [
        "    2 |           0 |           0 | ok",
        "stub: 6 facets",
        "proof: skipped (dimension 1 is odd)",
        "result: PASS",
    ]


@pytest.mark.parametrize(
    "expr", ["polygon:6", "torus7", "disjoint_union(torus7, polygon:6)", "join(torus7, polygon:4)"]
)
@pytest.mark.parametrize("check", [c for c in cli.CHECKS if c.reads == "counts"], ids=str)
def test_counts_rows_run_on_face_counts(expr, check):
    """A row marked counts-only runs on a FaceCounts, which has no faces, and
    gives the section and verdict, or the skip reason, it gives on the built
    complex; a row that reads faces but is marked counts-only fails here.
    build_document asks for no complex to run it."""
    spec = parse_generator_expr(expr)
    prov = {"kind": "generator", "expr": expr}
    counts, K = face_counts(spec), build(spec)
    assert run_or_reason(check, counts) == run_or_reason(check, K)
    unbuilt = build_document(counts, unreachable, prov, {check.name})
    assert unbuilt == build_document(K, lambda: K, prov, {check.name})


def unreachable():
    raise AssertionError("built the complex")


def run_or_reason(check, K):
    """check.run(K, False), or the reason of the PreconditionError it raises."""
    try:
        return check.run(K, False)
    except PreconditionError as e:
        return str(e)


@pytest.mark.parametrize("as_counts", [False, True], ids=["complex", "counts"])
@pytest.mark.parametrize(
    "facets, name, reason",
    [
        ([], "ds", "empty complex"),
        ([], "formula", "empty complex"),
        ([], "proof", "empty complex"),
        ([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]], "proof", "dimension 1 is odd"),
    ],
    ids=["empty-ds", "empty-formula", "empty-proof", "hexagon-proof"],
)
def test_a_precondition_is_stated_once_by_the_library(facets, name, reason, as_counts):
    """The library function raises PreconditionError, an InputError, and its
    message is the reason build_document records under "skipped", and
    reports as an InputError when the check is named."""
    K = SimplicialComplex.from_facets([[str(v) for v in f] for f in facets])
    if as_counts:
        K = FaceCounts((1, *f_vector(K)))
    library = {"ds": ds_residuals, "formula": check_main_formula, "proof": proof_trace}[name]
    with pytest.raises(PreconditionError, match=f"^{reason}$") as caught:
        library(K)
    assert isinstance(caught.value, InputError)
    prov = {"kind": "generator", "expr": "x"}
    doc, verdicts = build_document(K, unreachable, prov, {name})
    assert (doc["skipped"], verdicts) == ({name: reason}, {})
    with pytest.raises(InputError, match=f"^check '{name}': {reason}$"):
        build_document(K, unreachable, prov, {name}, strict={name})


def test_a_runner_input_error_is_not_a_skip(monkeypatch, capsys):
    """Only PreconditionError skips a check: any other InputError from a
    runner leaves build_document, and the command exits 2."""

    def fails(K, exhaustive):
        raise InputError("runner failed")

    stub = cli.Check("stub", "stub_section", fails, "always", "faces", lambda sec, color: [])
    monkeypatch.setattr(cli, "CHECKS", cli.CHECKS + (stub,))
    monkeypatch.setattr(cli, "CHOICES", cli.CHOICES + ("stub",))
    hexagon = build(parse_generator_expr("polygon:6"))
    with pytest.raises(InputError, match="^runner failed$") as caught:
        build_document(
            hexagon, lambda: hexagon, {"kind": "generator", "expr": "polygon:6"}, {"ds", "stub"}
        )
    assert not isinstance(caught.value, PreconditionError)
    rc, out, err = run(capsys, "check", "--gen", "polygon:6", "ds", "stub")
    assert (rc, out, err) == (2, "", "error: runner failed\n")


@pytest.mark.parametrize(
    "which, builds",
    [
        (["ds", "formula", "proof"], 0),
        (["ds"], 0),
        (["proof", "formula"], 0),
        (["ds", "--exhaustive"], 0),
        (["--all"], 1),
        (["ds", "formula", "proof", "--all"], 1),
        (["ds", "all"], 1),
        ([], 1),
        (["flag"], 0),
        (["eulerian"], 1),
        (["ds", "flag"], 0),
        (["formula", "eulerian"], 1),
        (["flag", "eulerian"], 1),
    ],
)
def test_check_builds_only_when_a_selected_check_reads_faces(monkeypatch, capsys, which, builds):
    """A --gen input is built once when a selected check reads faces, and
    never otherwise; the flag check reads the count rules, so no clique walk
    runs on the built complex."""

    def walks(self):
        raise AssertionError("walked the cliques of a generator expression")

    calls = []
    monkeypatch.setattr(cli, "build", lambda spec: calls.append(spec) or build(spec))
    monkeypatch.setattr(SimplicialComplex, "is_flag", walks)
    rc, _, _ = run(capsys, "check", "--gen", "suspension(polygon:5)", *which)
    assert rc == 0
    assert len(calls) == builds


def test_an_unknown_check_name_builds_nothing(monkeypatch, capsys):
    """An unknown name is refused after the counts are read and before
    anything is built, even for an expression with 2^41 faces."""

    def fails(spec):
        raise AssertionError(f"built {spec.to_expr()}")

    monkeypatch.setattr(cli, "build", fails)
    rc, out, err = run(capsys, "check", "--gen", "simplex_boundary:40", "bogus")
    assert (rc, out) == (2, "")
    assert err.startswith("error: unknown check 'bogus'")
    rc, _, err = run(capsys, "check", "--gen", "simplex_boundary:0", "bogus")
    assert (rc, err) == (2, "error: simplex_boundary needs n >= 1, got 0\n")


def test_info_gen_builds_nothing_and_files_build(monkeypatch, capsys, tmp_path):
    """info --gen reads the flag witness from the count rules and builds
    nothing; a facet file is read into a complex by every command."""

    def fails(spec):
        raise AssertionError(f"evaluated {spec.to_expr()}")

    monkeypatch.setattr(cli, "build", fails)
    rc, out, _ = run(capsys, "info", "--gen", "torus7")
    assert (rc, out.splitlines()[-1]) == (0, "flag: no   non-face clique: {0,1,2}")
    counted = []
    monkeypatch.setattr(generators, "face_counts", lambda s: counted.append(s) or face_counts(s))
    loads = []
    monkeypatch.setattr(cli, "load_complex", lambda *a: loads.append(a) or load_complex(*a))
    path = tmp_path / "hex.facets"
    path.write_text("".join(f"{i} {(i + 1) % 6}\n" for i in range(6)))
    rc, out, _ = run(capsys, "info", str(path))
    assert (rc, out.splitlines()[-1]) == (0, "flag: yes")
    assert run(capsys, "check", str(path), "ds", "formula")[0] == 1
    assert run(capsys, "batch", str(tmp_path), "ds")[0] == 0
    assert len(loads) == 3
    assert counted == []
    assert run(capsys, "info", "--gen", "torus7")[0] == 0
    assert len(counted) == 1  # the patch is the one a --gen command calls


@pytest.mark.parametrize(
    "expr",
    [
        "nonesuch",
        "join(torus7)",
        "torus7:1",
        "cone(simplex_boundary:0)",
        "join(torus7, suspension(polygon:2))",
        "disjoint_union(nonesuch, polygon:2)",
    ],
)
def test_malformed_expressions_give_one_error_on_every_path(capsys, expr):
    outcomes = {
        run(capsys, "check", "--gen", expr, *which)
        for which in (["ds", "formula", "proof"], ["ds"], ["--all"], ["flag"], ["ds", "bogus"])
    }
    outcomes.add(run(capsys, "info", "--gen", expr))
    assert len(outcomes) == 1
    rc, out, err = outcomes.pop()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_counts_path_answers_expressions_too_large_to_build(capsys):
    """simplex_boundary:40 has about 2^41 faces; its counts come back at once.
    Its dimension, 39, is odd, so naming proof is an input error, found
    without building too; simplex_boundary:41 runs all three checks."""
    start = time.perf_counter()
    rc, doc, _ = run_json(capsys, "check", "--gen", "simplex_boundary:40", "ds", "--json")
    assert rc == 0
    assert doc["f_vector"] == [str(comb(41, i + 1)) for i in range(40)]
    assert (doc["dim"], doc["chi"], doc["is_pure"]) == ("39", "0", True)
    assert all(row["holds"] for row in doc["ds_rows"])
    rc, out, err = run(capsys, "check", "--gen", "simplex_boundary:40", "ds", "formula", "proof")
    assert (rc, out, err) == (2, "", "error: check 'proof': dimension 39 is odd\n")
    rc, doc, _ = run_json(
        capsys, "check", "--gen", "simplex_boundary:41", "ds", "formula", "proof", "--json"
    )
    assert rc == 0
    assert doc["f_vector"] == [str(comb(42, i + 1)) for i in range(41)]
    assert doc["main_formula"]["holds"] and doc["proof_trace"]["holds"]
    assert time.perf_counter() - start < 1.0


def test_a_report_number_too_long_to_print_is_an_input_error(capsys):
    """Counts of a 4000-digit polygon join have about 8000 digits, more than
    Python turns into a string by default."""
    n = "9" * 4000
    rc, out, err = run(capsys, "check", "--gen", f"join(polygon:{n}, polygon:{n})", "ds")
    limit = sys.get_int_max_str_digits()
    assert (rc, out, err) == (2, "", f"error: a reported number has more than {limit} digits\n")


def test_human_output_has_no_ansi_when_not_a_tty(capsys):
    rc, out, _ = run(capsys, "check", "--gen", "torus7", "--all")
    assert rc == 0
    assert "\x1b" not in out
    assert "result: PASS" in out


def test_numeric_fields_are_exact_strings(capsys):
    rc, doc, _ = run_json(capsys, "check", "--gen", "projective_plane6", "--all", "--json")
    assert rc == 0

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key in ("dim", "chi", "lhs", "scaled_lhs", "scaled_rhs",
                           "i", "A", "B", "C", "P", "chi_link", "expected"):
                    assert INT_RE.match(value), (key, value)
                elif key == "rhs" and isinstance(value, str) and "/" in value:
                    assert RAT_RE.match(value), (key, value)
                elif key == "f_vector" or key == "h_vector":
                    assert all(INT_RE.match(v) for v in value)
                else:
                    walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(doc)
    text = json.dumps(doc)
    assert "NaN" not in text


def test_exact_encodes_a_list_element_by_element():
    K = SimplicialComplex.from_facets([["a", "b"]])
    assert cli._exact(K, [-7, 0, 10**49]) == ["-7", "0", "1" + "0" * 49]
    assert cli._exact(K, [{"i": 1, "face": (0, 1)}, {"holds": True, "w": None}]) == [
        {"i": "1", "face": ["a", "b"]},
        {"holds": True, "w": None},
    ]
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InputError, match=f"more than {limit} digits"):
        cli._exact(K, [1, 10**limit])


def test_exact_refuses_a_type_it_does_not_report():
    for value in (1.5, {1, 2}, b"ab", [1, 2.0]):
        with pytest.raises(TypeError):
            cli._exact(None, value)


# -- the JSON writer -----------------------------------------------------------------

# characters that JSON escapes or that an ASCII-only writer must spell out
JSON_TEXT = st.text(
    st.sampled_from('"\\/\x00\x08\x1b\x1f\x7f\x85\u00e9\u2028\u2029\ufeff\U0001f600')
    | st.characters()
)
JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200)
@given(JSON_DOCUMENTS)
def test_the_writer_matches_json_dumps_with_indent_2(value):
    assert to_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [1.0, {"a": [0.5]}, (1, 2), [{"a", "b"}], {1: "a"}, {"a": {None: 1}}],
    ids=["float", "nested float", "tuple", "set", "int key", "None key"],
)
def test_the_writer_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        to_json(value)


# -- labels holding control characters --------------------------------------------


def test_text_reports_show_control_characters_in_labels_escaped(tmp_path, capsys):
    """A witness or failure label prints with \\xNN and \\uNNNN escapes, as a
    file name does; the JSON report keeps the label itself."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"facets": [["\x1b[2J", "b"], ["b", "c"], ["c", "\x1b[2J"]]}))
    rc, out, _ = run(capsys, "check", str(path), "flag")
    assert (rc, out.splitlines()[6]) == (1, r"flag: no   non-face clique: {\x1b[2J,b,c}")
    path.write_text(json.dumps({"facets": [["\x1b[2J", "b"], ["b", "\x9b"]]}))
    rc, out, _ = run(capsys, "check", str(path), "eulerian", "--exhaustive")
    assert rc == 1 and "\x1b" not in out and "\x9b" not in out
    assert out.splitlines()[6:9] == [
        r"eulerian: FAIL   witness: {\x1b[2J} (link chi 1, expected 2)",
        r"    failure: {\x1b[2J} [bad_link] chi_link 1, expected 2",
        r"    failure: {\u009b} [bad_link] chi_link 1, expected 2",
    ]
    rc, doc, _ = run_json(capsys, "check", str(path), "eulerian", "--json")
    assert doc["is_eulerian"]["witness"] == ["\x1b[2J"]
    path.write_text(json.dumps({"facets": [["\u202ex", "b"], ["b", "c"], ["c", "\u202ex"]]}))
    rc, out, _ = run(capsys, "check", str(path), "flag")
    assert (rc, out.splitlines()[6]) == (1, r"flag: no   non-face clique: {\u202ex,b,c}")


@pytest.mark.parametrize("label, shown", [
    ("\x1b", r"\x1b"),
    (r"\x1b", r"\\x1b"),
    ("\u202e", r"\u202e"),
    (r"\u202e", r"\\u202e"),
    ("\\", r"\\"),
    ("\x9b", r"\u009b"),
    (r"\x9b", r"\\x9b"),
    ("a,b", r"a\x2cb"),
    (r"a\x2cb", r"a\\x2cb"),
], ids=[
    "ESC", "spelled ESC", "override", "spelled override", "backslash", "C1", "spelled C1",
    "comma", "spelled comma",
])
def test_a_label_spelled_as_an_escape_is_shown_apart_from_it(tmp_path, capsys, label, shown):
    """In a flag witness and in an exhaustive failure line; a comma inside a
    label shows as \\x2c, so {a\\x2cb,b,c} is three labels, not four."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"facets": [[label, "b"], ["b", "c"], ["c", label]]}))
    rc, out, _ = run(capsys, "check", str(path), "flag")
    assert (rc, out.splitlines()[6]) == (1, f"flag: no   non-face clique: {{{shown},b,c}}")
    path.write_text(json.dumps({"facets": [[label, "b"], ["b", "c"]]}))
    rc, out, _ = run(capsys, "check", str(path), "eulerian", "--exhaustive")
    assert rc == 1
    assert f"    failure: {{{shown}}} [bad_link] chi_link 1, expected 2" in out.splitlines()


def _read_back(shown):
    """The text escape_controls was given, read back from what it shows."""
    return re.sub(
        r"\\(\\|x[0-9a-f]{2}|u[0-9a-f]{4})",
        lambda m: "\\" if m[1] == "\\" else chr(int(m[1][1:], 16)),
        shown,
    )


@given(st.text(st.characters(blacklist_categories=("Cs",))))
@example(r"\x1b")
@example(r"\u202e\\")
def test_shown_text_reads_back_to_exactly_one_string(text):
    assert _read_back(escape_controls(text)) == text


def test_display_path_shows_undecodable_bytes_and_backslashes_escaped():
    assert display_path(b"x\xff\\y") == r"x\xff\\y"
    assert display_path(Path(os.fsdecode(b"x\xff\\y"))) == r"x\xff\\y"
    assert display_path("\\xff") == r"\\xff"
    # a C1 control, U+0085, shows apart from the undecodable byte 0x85
    assert display_path(b"a\xc2\x85") == r"a\u0085"
    assert display_path(b"a\x85") == r"a\x85"


# -- gen --------------------------------------------------------------------------


def test_gen_writes_plain_facets(tmp_path, capsys):
    path = tmp_path / "s2.facets"
    rc, _, err = run(capsys, "gen", "simplex_boundary:3", "-o", str(path))
    assert rc == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert all(len(line.split()) == 3 for line in lines)


def test_gen_writes_json_facets(tmp_path, capsys):
    path = tmp_path / "t.json"
    rc, _, _ = run(capsys, "gen", "torus7", "-o", str(path), "--format", "json")
    assert rc == 0
    doc = json.loads(path.read_text())
    assert len(doc["facets"]) == 14
    assert all(len(f) == 3 for f in doc["facets"])


def test_gen_unknown_generator_exits_2(tmp_path, capsys):
    rc, _, err = run(capsys, "gen", "nope:1", "-o", str(tmp_path / "x.facets"))
    assert rc == 2


def test_plain_format_refuses_a_label_holding_a_comment_mark(tmp_path):
    path = tmp_path / "x.facets"
    K = SimplicialComplex.from_facets([["a#1", "b"]])
    with pytest.raises(InputError, match="cannot round-trip in plain format"):
        write_facets(K, path, "plain")
    assert not path.exists()


def test_gen_to_missing_directory_is_an_input_error(tmp_path, capsys):
    rc, out, err = run(capsys, "gen", "torus7", "-o", str(tmp_path / "no" / "x.facets"))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "x.facets" in err


GENERATOR_EXPRS = [
    "simplex_boundary:3",
    "cross_polytope_boundary:3",
    "polygon:6",
    "torus7",
    "projective_plane6",
    "cone(polygon:5)",
    "suspension(polygon:4)",
    "join(simplex_boundary:2, simplex_boundary:2)",
    "disjoint_union(simplex_boundary:3, simplex_boundary:3)",
    "barycentric_subdivision(simplex_boundary:3)",
]


@pytest.mark.parametrize("expr", GENERATOR_EXPRS)
@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_gen_info_round_trip_preserves_invariants(tmp_path, capsys, expr, fmt):
    suffix = ".json" if fmt == "json" else ".facets"
    path = tmp_path / ("out" + suffix)
    assert main(["gen", expr, "-o", str(path), "--format", fmt]) == 0
    capsys.readouterr()
    rc, from_gen, _ = run_json(capsys, "info", "--gen", expr, "--json")
    rc2, from_file, _ = run_json(capsys, "info", str(path), "--json")
    assert rc == rc2 == 0
    for key in ("dim", "f_vector", "h_vector", "chi", "is_pure"):
        assert from_gen[key] == from_file[key], key


# -- batch ------------------------------------------------------------------------


def _write_corpus(tmp_path, exprs):
    for i, expr in enumerate(exprs):
        main(["gen", expr, "-o", str(tmp_path / f"c{i}.facets")])


def test_batch_all_pass(tmp_path, capsys):
    _write_corpus(
        tmp_path,
        ["simplex_boundary:3", "cross_polytope_boundary:3", "torus7",
         "projective_plane6", "polygon:5", "join(simplex_boundary:2, simplex_boundary:2)"],
    )
    rc, out, _ = run(capsys, "batch", str(tmp_path))
    assert rc == 0
    assert "6 file(s): 6 passed, 0 failed, 0 error(s)" in out
    reports = sorted((tmp_path / "reports").iterdir())
    assert len(reports) == 6
    for report in reports:
        jsonschema.validate(json.loads(report.read_text()), SCHEMA)


def test_batch_detects_formula_failure(tmp_path, capsys):
    _write_corpus(tmp_path, ["simplex_boundary:3", "polygon:6"])
    rc, out, _ = run(capsys, "batch", str(tmp_path), "formula")
    assert rc == 1
    assert "1 passed, 1 failed" in out
    assert re.search(r"c1\.facets\s+FAIL\s+formula", out)


def test_batch_empty_directory(tmp_path, capsys):
    rc, out, _ = run(capsys, "batch", str(tmp_path))
    assert rc == 0
    assert "0 file(s)" in out


def test_batch_reads_suffixes_in_any_letter_case(tmp_path, capsys):
    main(["gen", "simplex_boundary:2", "-o", str(tmp_path / "tri.JSON"), "--format", "json"])
    main(["gen", "polygon:4", "-o", str(tmp_path / "sq.FACETS")])
    capsys.readouterr()
    assert run(capsys, "check", str(tmp_path / "tri.JSON"))[0] == 0
    rc, out, _ = run(capsys, "batch", str(tmp_path))
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["sq.FACETS", "pass"], ["tri.JSON", "pass"], ["2", "file(s):"]
    ]
    assert rc == 0


def test_batch_mixed_error_and_pass(tmp_path, capsys):
    _write_corpus(tmp_path, ["torus7"])
    (tmp_path / "broken.facets").write_text("a a\n")
    rc, out, _ = run(capsys, "batch", str(tmp_path))
    assert rc == 1
    assert "error" in out


def test_check_names_may_follow_an_option_after_the_operands(tmp_path, capsys):
    """argparse takes positionals in one block; check names after a later option
    still select checks, and any other leftover word is a usage error."""
    _write_corpus(tmp_path, ["polygon:6"])
    capsys.readouterr()
    hexagon = str(tmp_path / "c0.facets")
    for which in ("eulerian", "formula"):
        want = run(capsys, "check", "--json", hexagon, which)
        assert want[0] == (1 if which == "formula" else 0)
        assert run(capsys, "check", hexagon, "--json", which) == want
        want = run(capsys, "batch", str(tmp_path), which, "--all")
        assert run(capsys, "batch", str(tmp_path), "--all", which) == want
    for argv in (
        ["check", hexagon, "--json", "--bogus"],
        ["check", hexagon, "--json", "eulerian", "--bogus"],
        ["info", hexagon, "--json", "x"],
        ["info", hexagon, "x"],
        ["gen", "torus7", "-o", str(tmp_path / "t.facets"), "x"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_deeply_nested_json_file_is_an_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    rc, out, err = run(capsys, "info", str(deep))
    assert rc == 2
    assert out == ""
    assert err == f"error: {deep}: nested too deeply\n"

    _write_corpus(tmp_path, ["torus7"])
    capsys.readouterr()
    rc, out, _ = run(capsys, "batch", str(tmp_path))
    assert rc == 1
    rows = [line.split(None, 2) for line in out.splitlines()[:-1]]
    assert rows == [["c0.facets", "pass"], ["deep.json", "error", f"{deep}: nested too deeply"]]


def test_overlong_integer_in_json_file_is_an_input_error(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"facets": [["a", "b"]], "n": ' + "9" * 5000 + "}")
    rc, out, err = run(capsys, "info", str(big))
    assert rc == 2
    assert out == ""
    assert err == f"error: {big}: integer literal too long\n"

    _write_corpus(tmp_path, ["torus7"])
    capsys.readouterr()
    rc, out, _ = run(capsys, "batch", str(tmp_path))
    assert rc == 1
    rows = [line.split(None, 2) for line in out.splitlines()[:-1]]
    assert rows == [
        ["big.json", "error", f"{big}: integer literal too long"],
        ["c0.facets", "pass"],
    ]


@pytest.mark.parametrize(
    "name, text",
    [("t.facets", "a b\nb c\nc a\n"), ("t.json", '{"facets": [["a","b"],["b","c"],["c","a"]]}')],
    ids=["plain", "json"],
)
def test_a_leading_byte_order_mark_is_not_part_of_the_first_label(tmp_path, capsys, name, text):
    (tmp_path / "plain").mkdir()
    (tmp_path / "marked").mkdir()
    (tmp_path / "plain" / name).write_text(text, encoding="utf-8")
    (tmp_path / "marked" / name).write_text(text, encoding="utf-8-sig")
    reports = []
    for directory in ("plain", "marked"):
        path = str(tmp_path / directory / name)
        rc, doc, err = run_json(capsys, "check", path, "all", "flag", "--json")
        assert doc.pop("input")["path"] == path
        reports.append((rc, doc, err))
    assert reports[0] == reports[1]
    assert reports[0][1]["f_vector"] == ["3", "3"]
    assert reports[0][1]["is_flag"]["witness"] == ["a", "b", "c"]


def test_lone_surrogate_label_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "sur.json"
    path.write_text('{"facets": [["\\ud800", "b"]]}')
    rc, out, err = run(capsys, "check", str(path), "eulerian")
    assert rc == 2
    assert out == ""
    assert err == f"error: {path}: vertex label '\\ud800' is not valid Unicode\n"


@pytest.mark.parametrize(
    "facets, message",
    [
        ('[["a b", "c"]]', "vertex label 'a b' contains whitespace"),
        ('[["a"], ["", "c"]]', "vertex label must be a nonempty string, got ''"),
        ('[["a", "b", "a"]]', "facet ['a', 'b', 'a'] repeats a vertex"),
    ],
)
def test_json_label_errors_name_the_file(tmp_path, capsys, facets, message):
    path = tmp_path / "bad.json"
    path.write_text('{"facets": %s}' % facets)
    assert run(capsys, "info", str(path)) == (2, "", f"error: {path}: {message}\n")
    rc, out, _ = run(capsys, "batch", str(tmp_path))
    assert rc == 2
    assert out.splitlines()[0].split(None, 2) == ["bad.json", "error", f"{path}: {message}"]


def test_batch_all_unreadable_exits_2(tmp_path, capsys):
    (tmp_path / "one.facets").write_text("a a\n")
    (tmp_path / "two.json").write_text("{broken")
    rc, out, _ = run(capsys, "batch", str(tmp_path))
    assert rc == 2


@pytest.mark.parametrize(
    "which, want",
    [
        ((), {"c0.facets": "FAIL  ds,eulerian", "c1.facets": "pass"}),
        (("flag", "all"), {"c0.facets": "FAIL  ds,eulerian,flag", "c1.facets": "pass"}),
        (("formula",), {"c0.facets": "pass", "c1.facets": "FAIL  formula"}),
    ],
)
def test_batch_fail_column_lists_the_gating_checks_that_failed(tmp_path, capsys, which, want):
    _write_corpus(tmp_path, ["suspension(torus7)", "polygon:6"])
    capsys.readouterr()
    rc, out, _ = run(capsys, "batch", str(tmp_path), *which)
    assert rc == 1
    rows = dict(line.split(None, 1) for line in out.splitlines()[:-1])
    assert rows == want


def test_batch_unwritable_report_directory_is_an_error_per_file(tmp_path, capsys):
    (tmp_path / "in").mkdir()
    _write_corpus(tmp_path / "in", ["torus7", "polygon:5"])
    (tmp_path / "taken").write_text("")
    rc, out, _ = run(capsys, "batch", str(tmp_path / "in"), "-o", str(tmp_path / "taken"))
    assert rc == 2
    lines = out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == ["error", "error"]
    assert lines[-1] == "2 file(s): 0 passed, 0 failed, 2 error(s)"


def test_batch_unlistable_directory_is_an_input_error(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "iterdir", refuse)
    rc, out, err = run(capsys, "batch", str(tmp_path))
    assert (rc, out, err) == (2, "", f"error: {tmp_path}: Permission denied\n")


def test_batch_output_sorted_by_filename(tmp_path, capsys):
    _write_corpus(tmp_path, ["torus7", "polygon:4", "simplex_boundary:2"])
    rc, out, _ = run(capsys, "batch", str(tmp_path))
    names = [line.split()[0] for line in out.splitlines() if line.startswith("c")]
    assert names == sorted(names)


# -- exit-code contract, against an oracle over the JSON sections --------------------


def expected_passed(doc, named):
    """The documented gating rules, applied to an emitted report."""
    verdicts = [doc[key]["holds"] for key in ("is_eulerian", "proof_trace") if key in doc]
    if "ds_rows" in doc:
        verdicts.append(all(row["holds"] for row in doc["ds_rows"]))
    if "is_flag" in doc and "flag" in named:
        verdicts.append(doc["is_flag"]["holds"])
    formula = doc.get("main_formula")
    if formula and (not formula["parity_warning"] or "formula" in named):
        verdicts.append(formula["holds"])
    return all(verdicts)


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    empty=st.booleans(),
    which=st.lists(st.sampled_from(CHECK_NAMES + ("all",)), max_size=3),
    exhaustive=st.booleans(),
)
def test_exit_code_follows_the_gating_rules(tmp_path_factory, seed, empty, which, exhaustive):
    facets = [] if empty else oracles.random_facets(random.Random(seed))
    path = tmp_path_factory.mktemp("contract") / "k.json"
    path.write_text(json.dumps({"facets": facets}))
    argv = ["check", str(path), *which, "--json"] + ["--exhaustive"] * exhaustive
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)

    named = set(which) - {"all"}
    dim = max((len(f) for f in facets), default=0) - 1
    unmet = {"ds", "formula", "proof"} if empty else ({"proof"} if dim % 2 else set())
    if named & unmet:
        assert rc == 2 and out.getvalue() == ""
        return
    doc = json.loads(out.getvalue())
    jsonschema.validate(doc, SCHEMA)
    passed = expected_passed(doc, named)
    assert doc["checks_passed"] is passed
    assert rc == (0 if passed else 1)


# -- module entry point -------------------------------------------------------------


def child_env():
    """The parent's environment, with this ``eulerian_kit`` first on ``PYTHONPATH``.

    The child then imports the same package as the in-process tests, whether it
    is installed or only on ``PYTHONPATH``, and from any working directory.
    """
    env = dict(os.environ)
    package_root = str(Path(eulerian_kit.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_on_terminal(argv, env):
    """Run ``argv`` with a pseudo-terminal as stdout and stderr; return (code, output)."""
    pty = pytest.importorskip("pty")
    master, slave = pty.openpty()
    try:
        proc = subprocess.Popen(argv, stdout=slave, stderr=slave, env=env)
    finally:
        os.close(slave)
    chunks = []
    try:
        while chunk := os.read(master, 4096):
            chunks.append(chunk)
    except OSError:  # EIO: the child has closed the terminal
        pass
    finally:
        os.close(master)
    return proc.wait(), b"".join(chunks).decode()


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eulerian_kit", "check", "--gen", "torus7", "--all", "--json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["chi"] == "0"


def test_no_color_respected():
    argv = [sys.executable, "-m", "eulerian_kit", "check", "--gen", "torus7", "--all"]
    env = child_env()

    # Positive control: on a terminal, without NO_COLOR, the verdicts are colored.
    env.pop("NO_COLOR", None)
    returncode, stdout = run_on_terminal(argv, env)
    assert returncode == 0, stdout
    assert "\x1b[32mok\x1b[0m" in stdout

    env["NO_COLOR"] = "1"
    returncode, stdout = run_on_terminal(argv, env)
    assert returncode == 0, stdout
    assert "\x1b" not in stdout


# -- standard output that cannot be written ------------------------------------------


def run_into(stdout, *argv, stderr=subprocess.PIPE, unbuffered=None):
    """Run the CLI in a child whose standard output is the file descriptor
    ``stdout``; ``unbuffered`` sets or unsets ``PYTHONUNBUFFERED`` if given."""
    env = child_env()
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "eulerian_kit", *argv],
        stdout=stdout,
        stderr=stderr,
        text=True,
        env=env,
    )


def full_device():
    """The device every write to fails with ENOSPC; skip where there is none."""
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    return open("/dev/full", "wb")


@pytest.mark.parametrize("command", ["info", "batch"])
def test_a_closed_standard_output_exits_2_in_silence(tmp_path, command):
    (tmp_path / "t.facets").write_text("a b\nb c\nc a\n")
    argv = ["info", "--gen", "polygon:4"] if command == "info" else ["batch", str(tmp_path)]
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its first write fails
    try:
        proc = run_into(write_end, *argv)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "")


def test_a_full_standard_output_exits_2_with_one_error_line():
    with full_device() as full:
        proc = run_into(full.fileno(), "check", "--gen", "torus7", "--all", "--json")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: standard output: ")


# with PYTHONUNBUFFERED unset, a failed write stays buffered and fails again at exit
BUFFERING = pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])


@BUFFERING
@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=" ".join)
def test_help_to_a_full_standard_output_exits_2_with_one_error_line(argv, unbuffered):
    with full_device() as full:
        proc = run_into(full.fileno(), *argv, unbuffered=unbuffered)
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: standard output: ")


@BUFFERING
def test_an_input_error_to_a_closed_standard_error_exits_2(tmp_path, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_into(
            subprocess.PIPE, "info", str(tmp_path / "missing.facets"),
            stderr=write_end, unbuffered=unbuffered,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout) == (2, "")


@BUFFERING
def test_gen_with_a_full_standard_error_writes_its_file_and_exits_0(tmp_path, unbuffered):
    path = tmp_path / "F"
    with full_device() as full:
        proc = run_into(
            subprocess.PIPE, "gen", "polygon:4", "-o", str(path),
            stderr=full.fileno(), unbuffered=unbuffered,
        )
    assert (proc.returncode, proc.stdout) == (0, "")
    assert len(path.read_text().splitlines()) == 4


# -- file names that are not valid UTF-8 ------------------------------------------


def undecodable_file(directory, text, name=b"x\xff.facets"):
    """Write ``text`` to a file named by bytes that are not UTF-8; return its name."""
    name = os.fsdecode(name)
    try:
        (directory / name).write_text(text)
    except (OSError, UnicodeEncodeError):
        pytest.skip("the file system does not accept this file name")
    return name


def run_strict_utf8(directory, *argv):
    """Run the CLI in a child whose stdout encodes strictly as UTF-8."""
    env = child_env()
    env["PYTHONIOENCODING"] = "utf-8"
    return subprocess.run(
        [sys.executable, "-m", "eulerian_kit", *argv],
        cwd=directory,
        capture_output=True,
        env=env,
    )


def test_info_shows_an_undecodable_file_name_escaped(tmp_path):
    name = undecodable_file(tmp_path, "a b\nb c\nc a\n")
    proc = run_strict_utf8(tmp_path, "info", name)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.splitlines()[0] == rb"input: file x\xff.facets (plain)"


def test_batch_shows_an_undecodable_file_name_escaped(tmp_path):
    name = undecodable_file(tmp_path, "a b\nb c\nc a\n")
    (tmp_path / "ok.facets").write_text("a b\nb c\nc a\n")
    proc = run_strict_utf8(tmp_path, "batch", ".")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.splitlines() == [
        b"ok.facets     pass",
        rb"x\xff.facets  pass",
        b"2 file(s): 2 passed, 0 failed, 0 error(s)",
    ]
    report = json.loads((tmp_path / "reports" / f"{name}.report.json").read_text())
    assert report["input"]["path"] == r"x\xff.facets"


def test_batch_error_rows_show_undecodable_file_names_escaped(tmp_path):
    undecodable_file(tmp_path, "a a\n")
    blocked = undecodable_file(tmp_path, "a b\nb c\nc a\n", b"y\xff.facets")
    (tmp_path / "reports" / f"{blocked}.report.json").mkdir(parents=True)
    proc = run_strict_utf8(tmp_path, "batch", ".")
    assert (proc.returncode, proc.stderr) == (2, b"")
    assert proc.stdout.splitlines() == [
        rb"x\xff.facets  error  x\xff.facets:1:3: repeated vertex 'a' in facet",
        rb"y\xff.facets  error  reports/y\xff.facets.report.json: Is a directory",
        b"2 file(s): 0 passed, 0 failed, 2 error(s)",
    ]


# -- file names holding control characters ------------------------------------------

TRIANGLE = "a b\nb c\nc a\n"


# file names and how reports show them: a C0 control as \xNN, a backslash
# as \\, and a C1 control, line separator or bidirectional control as \uNNNN
ESCAPED_NAMES = [
    ("a\nb.facets", r"a\x0ab.facets"),
    ("a\x85b.facets", r"a\u0085b.facets"),
    ("a\\b.facets", r"a\\b.facets"),
    ("t\tab.facets", r"t\x09ab.facets"),
    *((f"a{ch}b.facets", f"a\\u{ord(ch):04x}b.facets") for ch in (
        "\u2028\u2029\u061c\u200e\u200f\u202a\u202b\u202c\u202d\u202e\u2066\u2067\u2068\u2069"
    )),
]


def control_file(directory, name):
    """Write a triangle to ``directory / name``; skip where the name is refused."""
    try:
        (directory / name).write_text(TRIANGLE)
    except OSError:
        pytest.skip("the file system does not accept this file name")


@pytest.mark.parametrize("name, shown", ESCAPED_NAMES)
def test_batch_rows_show_control_characters_escaped(tmp_path, capsys, name, shown):
    control_file(tmp_path, name)
    (tmp_path / "ok.facets").write_text(TRIANGLE)
    rc, out, _ = run(capsys, "batch", str(tmp_path))
    assert rc == 0
    width = len(shown)
    rows = sorted([f"{shown:<{width}}  pass", f"{'ok.facets':<{width}}  pass"])
    assert out.splitlines() == rows + ["2 file(s): 2 passed, 0 failed, 0 error(s)"]
    report = json.loads((tmp_path / "reports" / f"{name}.report.json").read_text())
    assert report["input"]["path"] == os.path.join(str(tmp_path), shown)


@pytest.mark.parametrize("name, shown", ESCAPED_NAMES)
def test_check_reports_show_control_characters_escaped(tmp_path, capsys, name, shown):
    control_file(tmp_path, name)
    rc, doc, _ = run_json(capsys, "check", str(tmp_path / name), "--json")
    assert rc == 0
    assert doc["input"]["path"] == os.path.join(str(tmp_path), shown)
    rc, out, _ = run(capsys, "check", str(tmp_path / name), "eulerian")
    assert out.splitlines()[0] == f"input: file {os.path.join(str(tmp_path), shown)} (plain)"


def test_paths_given_on_the_command_line_show_control_characters_escaped(tmp_path, capsys):
    control_file(tmp_path, "a\nb.facets")
    name = tmp_path / "a\nb.facets"
    shown = os.path.join(str(tmp_path), r"a\x0ab.facets")
    assert run(capsys, "gen", "polygon:4", "-o", str(name)) == (
        0,
        "",
        f"wrote 4 facets (8 faces, dim 1) to {shown}\n",
    )
    assert run(capsys, "gen", "polygon:4", "-o", str(name / "x")) == (
        2,
        "",
        f"error: {shown}/x: Not a directory\n",
    )
    assert run(capsys, "batch", str(name)) == (2, "", f"error: {shown}: not a directory\n")


def test_one_parser_serves_every_call_of_a_process(tmp_path, monkeypatch):
    """main builds its parser once; every call prints what a fresh parser's
    call prints, usage errors and help included, and help follows COLUMNS."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    hexagon = corpus / "hex.facets"
    hexagon.write_text("".join(f"{i} {(i + 1) % 6}\n" for i in range(6)))
    sequence = [
        ("80", "check", str(hexagon), "--json"),
        ("80", "check", str(hexagon)),
        ("80", "info", "--gen", "suspension(torus7)"),
        ("80", "gen", "simplex_boundary:3", "-o", str(tmp_path / "sb3.facets")),
        ("80", "batch", str(corpus), "-o", str(tmp_path / "reports")),
        ("80", "check", "--no-such-option"),
        ("80", "--help"),
        ("44", "check", "--help"),
        ("44", "info", "--json", "--format"),
    ]

    def outcome(columns, *argv):
        monkeypatch.setenv("COLUMNS", columns)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as e:
                rc = f"SystemExit({e.code})"
        return rc, out.getvalue(), err.getvalue()

    fresh = []
    for call in sequence:
        monkeypatch.setattr(cli, "_parser", None, raising=False)
        fresh.append(outcome(*call))
    assert [rc for rc, _, _ in fresh] == [
        0, 0, 0, 0, 0, "SystemExit(2)", "SystemExit(0)", "SystemExit(0)", "SystemExit(2)"
    ]
    assert fresh[5][2].startswith("usage: eulerian-kit check [-h]")
    assert "unrecognized arguments: --no-such-option" in fresh[5][2]
    assert fresh[6][1].startswith("usage: eulerian-kit [-h]")
    assert fresh[7][1] != outcome("80", "check", "--help")[1]  # the width shows

    built = []
    real = cli.build_arg_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_arg_parser", counting)
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    assert [outcome(*call) for call in sequence] == fresh
    assert len(built) == 1
