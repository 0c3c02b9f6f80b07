"""The package's public names, its records and its stdlib-only runtime."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import eulerian_kit
from eulerian_kit import CheckReport, DSResidualRow
from eulerian_kit.generators import FaceCounts, face_counts, parse_generator_expr

PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "eulerian_kit"


def test_every_public_name_resolves():
    missing = [name for name in eulerian_kit.__all__ if not hasattr(eulerian_kit, name)]
    assert missing == []


def _imported_modules(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    outside = {
        (path.name, module)
        for path in sources
        for module in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if module.split(".")[0] not in sys.stdlib_module_names  # holds __future__
    }
    assert outside == set()


def _json_writes(tree: ast.Module):
    """Calls of json.dumps or json.dump, and imports of either by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in ("dumps", "dump") and getattr(func.value, "id", None) == "json":
                yield f"json.{func.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            yield from (f"json.{a.name}" for a in node.names if a.name in ("dumps", "dump"))


def test_every_json_document_comes_from_the_one_writer():
    """No module writes JSON but through facetio.to_json."""
    found = {
        (path.name, call)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for call in _json_writes(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set()


# dataclasses imports these, and they took about 13 ms of each start of the CLI
INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_the_cli_starts_without_the_introspection_modules():
    """A fresh interpreter that imports the CLI and builds its parser, as
    every invocation does, loads none of INTROSPECTION."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import eulerian_kit.cli as cli\n"
        "cli.build_arg_parser()\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(run.stdout)
    assert "eulerian_kit.cli" in loaded
    assert sorted(set(INTROSPECTION) & set(loaded)) == []


def test_each_check_report_gets_its_own_values_and_failures():
    a, b = CheckReport(True), CheckReport(holds=True)
    a.values["chi"] = 2
    a.failures.append(0)
    assert b.values == {} and b.failures == []
    assert a._replace(holds=False) == CheckReport(False, None, {"chi": 2}, [0])
    assert a._asdict() == {"holds": True, "witness": None, "values": {"chi": 2}, "failures": [0]}


def test_generator_specs_compare_and_hash_through_a_round_trip():
    spec = parse_generator_expr("join(polygon:5, cone(torus7))")
    again = parse_generator_expr(spec.to_expr())
    assert again == spec and hash(again) == hash(spec)
    assert {spec: "seen"}[again] == "seen"
    assert spec != parse_generator_expr("join(polygon:5, cone(projective_plane6))")


def test_face_counts_refuse_attribute_assignment():
    counts = face_counts(parse_generator_expr("torus7"))
    with pytest.raises(AttributeError):
        counts.pure = False
    with pytest.raises(AttributeError):
        counts.chi = 0
    assert counts == FaceCounts((1, 7, 21, 14), True, (0, 1, 2), ((0, 7),))


@pytest.mark.parametrize(
    "record, text",
    [
        (CheckReport(True), "CheckReport(holds=True, witness=None, values={}, failures=[])"),
        (
            CheckReport(holds=False, witness=(0, 2), values={"chi_link": 1}, failures=[3]),
            "CheckReport(holds=False, witness=(0, 2), values={'chi_link': 1}, failures=[3])",
        ),
        (DSResidualRow(i=1, lhs=-2, rhs=-2), "DSResidualRow(i=1, lhs=-2, rhs=-2)"),
        (FaceCounts((1, 3, 3)), "FaceCounts(by_size=(1, 3, 3), pure=True, witness=None, digits=())"),
        (
            face_counts(parse_generator_expr("join(polygon:3, torus7)")),
            "FaceCounts(by_size=(1, 10, 45, 98, 105, 42), pure=True, witness=(0, 1, 2), "
            "digits=((0, 3), (3, 7)))",
        ),
        (
            parse_generator_expr("join(polygon:5, cone(torus7))"),
            "GeneratorSpec(name='join', params=(), args=(GeneratorSpec(name='polygon', "
            "params=(5,), args=()), GeneratorSpec(name='cone', params=(), "
            "args=(GeneratorSpec(name='torus7', params=(), args=()),))))",
        ),
    ],
)
def test_records_print_as_before(record, text):
    assert repr(record) == text
