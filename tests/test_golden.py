"""Golden outputs: the exact text and JSON the command line prints.

Other tests check substrings and schema validity; these pin every byte,
including the JSON key order and the layout of the text report.  Each case
runs in a temporary directory holding the fixture files, so the file paths
in the output are the same on every machine.  To regenerate the expected
files after a deliberate change of output, run ``python tests/test_golden.py``
with the package importable and review the diff.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from eulerian_kit.cli import main, render_text

GOLDEN = Path(__file__).parent / "golden"

# A cone with apex o over a pentagon whose labels JSON escapes; each label is in
# a failure of the Eulerian audit.  U+2028 is whitespace to str.isspace, which a
# label may not hold, so it is in the file name.  The file sits in a
# subdirectory, which batch does not read.
ESCAPES = ["\u00e9", '"', "\\", "\U0001f600", "\x1b[2J"]
ESCAPES_FILE = "labels/escapes\u2028.json"
FILES = {
    "nonpure.facets": "a b c\nc d\nd e f g\n",
    "empty.facets": "",
    ESCAPES_FILE: json.dumps(
        {"facets": [["o", ESCAPES[i - 1], ESCAPES[i]] for i in range(5)]},
        ensure_ascii=False,
    ),
}

# golden file name -> (expected exit code, argv[, pinned output]).  The file
# pins stdout unless the case names "stderr" or a file the command writes;
# stderr is empty unless it is pinned, and stdout is empty when it is.  A case
# that pins a written file checks only the file and the exit code: the streams
# of the same command are pinned by another case (batch_fixtures.txt,
# gen_torus7.err).
CASES = {
    "suspension_torus7_exhaustive.txt": (
        1, ["check", "--gen", "suspension(torus7)", "--all", "--exhaustive"]
    ),
    "suspension_torus7_exhaustive.json": (
        1, ["check", "--gen", "suspension(torus7)", "--all", "--exhaustive", "--json"]
    ),
    "nonpure_all.txt": (1, ["check", "nonpure.facets", "--all"]),
    "nonpure_all.json": (1, ["check", "nonpure.facets", "--all", "--json"]),
    "nonpure_exhaustive.txt": (1, ["check", "nonpure.facets", "--all", "--exhaustive"]),
    "nonpure_exhaustive.json": (
        1, ["check", "nonpure.facets", "--all", "--exhaustive", "--json"]
    ),
    "empty_all.txt": (1, ["check", "empty.facets", "--all"]),
    "info_simplex_boundary3.txt": (0, ["info", "--gen", "simplex_boundary:3"]),
    "info_simplex_boundary3.json": (0, ["info", "--gen", "simplex_boundary:3", "--json"]),
    "polygon6_formula_flag.txt": (1, ["check", "--gen", "polygon:6", "formula", "flag"]),
    "cone_polygon4_all.txt": (1, ["check", "--gen", "cone(polygon:4)", "--all"]),
    "cone_polygon4_all.json": (1, ["check", "--gen", "cone(polygon:4)", "--all", "--json"]),
    "projective_plane6_all.txt": (0, ["check", "--gen", "projective_plane6", "--all"]),
    "bsd_cone_polygon4_exhaustive.txt": (
        1, ["check", "--gen", "barycentric_subdivision(cone(polygon:4))", "--all", "--exhaustive"]
    ),
    "bsd_cone_polygon4_exhaustive.json": (
        1,
        ["check", "--gen", "barycentric_subdivision(cone(polygon:4))", "--all", "--exhaustive",
         "--json"],
    ),
    "info_join_torus7_polygon4.txt": (0, ["info", "--gen", "join(torus7, polygon:4)"]),
    "info_join_polygon4_simplex_boundary2.json": (
        0, ["info", "--gen", "join(polygon:4, simplex_boundary:2)", "--json"]
    ),
    "info_disjoint_union_simplex_boundary3_projective_plane6.txt": (
        0, ["info", "--gen", "disjoint_union(simplex_boundary:3, projective_plane6)"]
    ),
    "info_join_bsd_torus7_polygon3.txt": (
        0, ["info", "--gen", "join(barycentric_subdivision(torus7), polygon:3)"]
    ),
    "help.txt": (0, ["--help"]),
    "info_help.txt": (0, ["info", "--help"]),
    "check_help.txt": (0, ["check", "--help"]),
    "batch_help.txt": (0, ["batch", "--help"]),
    "unknown_check.err": (2, ["check", "--gen", "torus7", "bogus"], "stderr"),
    "polygon6_proof_strict.err": (2, ["check", "--gen", "polygon:6", "proof"], "stderr"),
    "empty_ds_strict.err": (2, ["check", "empty.facets", "ds"], "stderr"),
    "check_leftover_option.err": (
        2, ["check", "nonpure.facets", "--json", "--bogus"], "stderr"
    ),
    "batch_fixtures.txt": (1, ["batch", "."]),
    "batch_fixtures_nonpure.report.json": (
        1, ["batch", "."], "reports/nonpure.facets.report.json"
    ),
    "gen_torus7.err": (0, ["gen", "torus7", "-o", "torus7.facets"], "stderr"),
    "gen_projective_plane6.err": (
        0, ["gen", "projective_plane6", "-o", "projective_plane6.facets"], "stderr"
    ),
    "gen_torus7.facets": (0, ["gen", "torus7", "-o", "torus7.facets"], "torus7.facets"),
    "gen_torus7.json": (
        0, ["gen", "torus7", "-o", "torus7.json", "--format", "json"], "torus7.json"
    ),
    "gen_projective_plane6.facets": (
        0, ["gen", "projective_plane6", "-o", "pp6.facets"], "pp6.facets"
    ),
    "gen_projective_plane6.json": (
        0, ["gen", "projective_plane6", "-o", "pp6.json", "--format", "json"], "pp6.json"
    ),
    "join_bsd_torus7_polygon5_dfp.txt": (
        1, ["check", "--gen", "join(barycentric_subdivision(torus7), polygon:5)",
            "ds", "formula", "proof"]
    ),
    "join_bsd_torus7_polygon5_dfp.json": (
        1, ["check", "--gen", "join(barycentric_subdivision(torus7), polygon:5)",
            "ds", "formula", "proof", "--json"]
    ),
    "disjoint_union_torus7_polygon6_ds_formula.txt": (
        1, ["check", "--gen", "disjoint_union(torus7, polygon:6)", "ds", "formula"]
    ),
    "suspension_polygon5_proof.json": (
        0, ["check", "--gen", "suspension(polygon:5)", "proof", "--json"]
    ),
    "disjoint_union_simplex_boundary3_projective_plane6_flag_eulerian.txt": (
        1, ["check", "--gen", "disjoint_union(simplex_boundary:3, projective_plane6)",
            "flag", "eulerian"]
    ),
    "join_polygon4_simplex_boundary2_all_flag.json": (
        1, ["check", "--gen", "join(polygon:4, simplex_boundary:2)", "--all", "flag", "--json"]
    ),
    "escapes_all_exhaustive.txt": (1, ["check", ESCAPES_FILE, "--all", "--exhaustive"]),
    "escapes_all_exhaustive.json": (
        1, ["check", ESCAPES_FILE, "--all", "--exhaustive", "--json"]
    ),
    "info_escapes.json": (0, ["info", ESCAPES_FILE, "--json"]),
}
COLOR_CASE = "suspension_torus7_color.txt"
# the terminal width --help is laid out for
HELP_COLUMNS = "80"


def run(argv):
    """Run the CLI in-process in the current directory; return (code, stdout, stderr).
    argparse's exit (help, usage errors) is caught and its code returned."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def pinned_output(name):
    """Run a case in the current directory; return (code, pinned output, the
    stream that should be empty)."""
    _, argv, *named = CASES[name]
    pinned = named[0] if named else "stdout"
    rc, out, err = run(argv)
    if pinned == "stdout":
        return rc, out, err
    if pinned == "stderr":
        return rc, err, out
    return rc, Path(pinned).read_text(encoding="utf-8"), ""


def colored_report():
    """The text report of a failing audit with ANSI colors, rendered from its JSON."""
    _, out, _ = run(["check", "--gen", "suspension(torus7)", "--all", "--json"])
    return render_text(json.loads(out), color=True) + "\n"


def write_fixtures(directory):
    for name, text in FILES.items():
        path = Path(directory) / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")


@pytest.fixture
def fixture_dir(tmp_path, monkeypatch):
    write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", HELP_COLUMNS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(fixture_dir, name):
    rc, pinned, empty = pinned_output(name)
    assert (rc, empty) == (CASES[name][0], "")
    assert pinned == (GOLDEN / name).read_text(encoding="utf-8")


def test_colored_text_matches_golden():
    assert colored_report() == (GOLDEN / COLOR_CASE).read_text(encoding="utf-8")


TEXT_FROM_JSON = sorted(
    name for name in CASES
    if name.endswith(".json") and name.removesuffix(".json") + ".txt" in CASES
)


@pytest.mark.parametrize("name", TEXT_FROM_JSON)
def test_text_report_is_rendered_from_the_json_report_alone(name):
    """The text report of a command is render_text of its JSON report: each
    line comes from the document, so each check renders only its own section."""
    doc = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    text = (GOLDEN / (name.removesuffix(".json") + ".txt")).read_text(encoding="utf-8")
    assert render_text(doc) + "\n" == text


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    outputs = {COLOR_CASE: colored_report()}
    os.environ["COLUMNS"] = HELP_COLUMNS
    here = os.getcwd()
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            write_fixtures(tmp)
            os.chdir(tmp)
            try:
                outputs[name] = pinned_output(name)[1]
            finally:
                os.chdir(here)
    for name, text in outputs.items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
