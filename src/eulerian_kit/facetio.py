"""Facet file formats.

Plain format: one facet per line, whitespace-separated vertex tokens, `#`
starts a comment, blank lines are ignored.  JSON format: an object with a
"facets" key holding an array of arrays of string labels.  Parse failures
carry file/line/column diagnostics.  `to_json` writes every JSON document
the package emits: JSON facet files here, and the CLI's reports.
"""

from __future__ import annotations

import json
import os
import re
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .complexes import SimplicialComplex
from .errors import InputError

_TOKEN = re.compile(r"\S+")
_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f]")  # Unicode category Cc: C0, DEL and C1

FORMATS = ("plain", "json")


def escape_controls(text: str) -> str:
    """text with each control character as \\xNN, such as \\x1b for ESC."""
    return _CONTROL.sub(lambda m: f"\\x{ord(m.group()):02x}", text)


def display_path(path) -> str:
    """A file path as printable text on one line: bytes of its name that are
    not valid UTF-8 appear as backslash escapes such as \\xff, and control
    characters as \\xNN, such as \\x0a for a newline."""
    return escape_controls(os.fsencode(path).decode("utf-8", "backslashreplace"))


def to_json(value, indent: str = "\n") -> str:
    """value as json.dumps(value, indent=2) writes it, byte for byte.

    value is made of dicts with string keys, lists, strings, bools, None and
    ints; anything else, such as a float, a tuple or an int key, raises
    TypeError.  indent is the line break and indentation of value's level."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is list or kind is dict:
        if not value:
            return "[]" if kind is list else "{}"
        inner = indent + "  "
        if kind is list:
            items = [to_json(v, inner) for v in value]
            return "[" + inner + ("," + inner).join(items) + indent + "]"
        # the escaper refuses a key that is not a string
        items = [encode_basestring_ascii(k) + ": " + to_json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    raise TypeError(f"cannot write {kind.__name__} {value!r} as JSON")


def detect_format(path) -> str:
    return "json" if Path(path).suffix.lower() == ".json" else "plain"


def parse_plain(text: str, source: str = "<plain>") -> list[list[str]]:
    facets = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        cut = raw.find("#")
        content = raw[:cut] if cut >= 0 else raw
        row = []
        seen = set()
        for m in _TOKEN.finditer(content):
            tok = m.group()
            if tok in seen:
                raise InputError(
                    f"{source}:{lineno}:{m.start() + 1}: repeated vertex {tok!r} in facet"
                )
            seen.add(tok)
            row.append(tok)
        if row:
            facets.append(row)
    return facets


def parse_json_facets(text: str, source: str = "<json>") -> list[list[str]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{source}:{e.lineno}:{e.colno}: {e.msg}") from None
    except ValueError:  # an integer literal longer than sys.get_int_max_str_digits()
        raise InputError(f"{source}: integer literal too long") from None
    except RecursionError:
        raise InputError(f"{source}: nested too deeply") from None
    if not isinstance(doc, dict) or "facets" not in doc:
        raise InputError(f"{source}: expected an object with a 'facets' key")
    facets = doc["facets"]
    if not isinstance(facets, list):
        raise InputError(f"{source}: 'facets' must be an array")
    for i, row in enumerate(facets):
        if not isinstance(row, list) or not all(isinstance(t, str) for t in row):
            raise InputError(f"{source}: facet {i} must be an array of strings")
    return facets


def read_facets(path, fmt: str | None = None) -> list[list[str]]:
    fmt = fmt or detect_format(path)
    if fmt not in FORMATS:
        raise InputError(f"unknown facet format {fmt!r}")
    source = display_path(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"{source}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"{source}: not valid UTF-8 ({e.reason})") from None
    parse = parse_plain if fmt == "plain" else parse_json_facets
    return parse(text, source=source)


def load_complex(path, fmt: str | None = None) -> SimplicialComplex:
    rows = read_facets(path, fmt)
    try:
        return SimplicialComplex.from_facets(rows)
    except InputError as e:  # a bad label, or a vertex repeated in a JSON facet
        raise InputError(f"{display_path(path)}: {e}") from None


def facet_rows(K: SimplicialComplex) -> list[list[str]]:
    """Facets as label lists, in (dimension, lexicographic) order."""
    return [list(K.labels_of(f)) for f in K.facets]


def write_facets(K: SimplicialComplex, path, fmt: str = "plain") -> None:
    rows = facet_rows(K)
    if fmt == "plain":
        for row in rows:
            for tok in row:
                if "#" in tok:
                    raise InputError(
                        f"label {tok!r} cannot round-trip in plain format; use json"
                    )
        text = "".join(" ".join(row) + "\n" for row in rows)
    elif fmt == "json":
        text = to_json({"facets": rows}) + "\n"
    else:
        raise InputError(f"unknown facet format {fmt!r}")
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise InputError(f"{display_path(path)}: {e.strerror or e}") from None
