"""Facet file formats.

Plain format: one facet per line, whitespace-separated vertex tokens, `#`
starts a comment, blank lines are ignored.  JSON format: an object with a
"facets" key holding an array of arrays of string labels.  Parse failures
carry file/line/column diagnostics.  `to_json` writes every JSON document
the package emits: JSON facet files here, and the CLI's reports.

Both parsers check a whole file with builtins (`str.split`, `set`, `map`)
and walk it token by token only once it is known to be bad, to name its
first error: `_first_repeat` for a vertex repeated on a plain line,
`_first_bad_facet` for a JSON facet that is not an array of strings.
`str.split()` splits at exactly the characters that `str.isspace()` and
the pattern `\\s` match, so a line's tokens are its `\\S+` matches.
"""

from __future__ import annotations

import json
import os
import re
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .complexes import SimplicialComplex
from .errors import InputError

_TOKEN = re.compile(r"\S+")
# Unicode category Cc (C0, DEL and C1), the line and paragraph separators,
# the bidirectional marks, embeddings, overrides and isolates, the backslash
# that starts every escape, and the surrogates os.fsdecode gives bytes that
# are not UTF-8
_CONTROL = re.compile(
    "[\x00-\x1f\\\\\x7f-\x9f\u061c\u200e\u200f\u2028-\u202e\u2066-\u2069\udc80-\udcff]"
)

FORMATS = ("plain", "json")


def _escape(m: re.Match) -> str:
    code = ord(m.group())
    if code == 0x5C:
        return "\\\\"
    if code >= 0xDC80:  # a byte that is not UTF-8, as os.fsdecode escapes it
        return f"\\x{code - 0xDC00:02x}"
    return f"\\x{code:02x}" if code < 0x80 else f"\\u{code:04x}"


def escape_controls(text: str) -> str:
    """text with each character that changes how a line displays escaped, so
    that it reads back to exactly one string: a C0 control or DEL as \\xNN,
    such as \\x1b for ESC, a C1 control, line separator or bidirectional
    control as \\uNNNN, such as \\u009b for CSI and \\u202e for an override,
    a backslash as \\\\, and the surrogate os.fsdecode gives an undecodable
    byte as that byte, \\xNN."""
    return _CONTROL.sub(_escape, text)


def display_path(path) -> str:
    """A file path as printable text on one line, escaped by escape_controls:
    bytes of its name that are not valid UTF-8 appear as \\xNN, such as
    \\xff, and a newline as \\x0a."""
    return escape_controls(os.fsdecode(path))


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
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    facets = list(filter(None, map(str.split, lines)))
    # a row of distinct tokens is as long as its set, and no row is longer
    if sum(map(len, facets)) != sum(map(len, map(set, facets))):
        _first_repeat(lines, source)
    return facets


def _first_repeat(lines: list[str], source: str) -> None:
    """Raise the InputError of the first token repeated within a line, with
    its line and column, 1-based; lines are comment-stripped."""
    for lineno, content in enumerate(lines, 1):
        seen = set()
        for m in _TOKEN.finditer(content):
            tok = m.group()
            if tok in seen:
                raise InputError(
                    f"{source}:{lineno}:{m.start() + 1}: repeated vertex {tok!r} in facet"
                )
            seen.add(tok)


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
    # json.loads makes exact lists and strs, never a subclass
    if not (
        set(map(type, facets)) <= {list}
        and set(map(type, chain.from_iterable(facets))) <= {str}
    ):
        _first_bad_facet(facets, source)
    return facets


def _first_bad_facet(facets: list, source: str) -> None:
    """Raise the InputError of the first facet that is not an array of
    strings."""
    for i, row in enumerate(facets):
        if not isinstance(row, list) or not all(isinstance(t, str) for t in row):
            raise InputError(f"{source}: facet {i} must be an array of strings")


def read_facets(path, fmt: str | None = None) -> list[list[str]]:
    fmt = fmt or detect_format(path)
    if fmt not in FORMATS:
        raise InputError(f"unknown facet format {fmt!r}")
    source = display_path(path)
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not text
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
