"""Facet file parsing: the builtin scans agree with the token-by-token oracles,
and valid files never take the walks that name a first error."""

import json
import re
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_kit import facetio
from eulerian_kit.complexes import SimplicialComplex
from eulerian_kit.errors import InputError
from eulerian_kit.facetio import load_complex, parse_json_facets, parse_plain

import oracles


def outcome(parse, *args):
    """What a parse returns, or the text of the InputError it raises."""
    try:
        return "rows", parse(*args)
    except InputError as e:
        return "error", str(e)


# Line breaks, Unicode whitespace that is not a line break, comment marks and
# labels, some sharing characters, so that lines repeat tokens now and then.
PLAIN_PIECES = [
    " ", "\t", "\x1c", "\x85", "\xa0", "\u3000", "\u2028", "\r\n", "\n", "\r", "\x0b",
    "#", "a", "b", "ab", "b#a", "\xe9", "x\u200by", "\ufeff",
]


@settings(max_examples=200)
@given(st.lists(st.sampled_from(PLAIN_PIECES), max_size=40).map("".join))
def test_plain_parse_matches_the_token_scanner(text):
    assert outcome(parse_plain, text, "f.facets") == outcome(oracles.parse_plain, text, "f.facets")


JSON_TOKENS = st.one_of(
    st.sampled_from(["a", "b", "c", "a b", ""]),
    st.integers(-2, 2),
    st.none(),
    st.lists(st.sampled_from(["a", "b"]), max_size=2),
)
JSON_ROWS = st.one_of(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4),
    st.lists(JSON_TOKENS, max_size=3),
    st.sampled_from(["bc", ""]),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 1), max_size=2),
    st.integers(0, 3),
)


@settings(max_examples=200)
@given(st.lists(JSON_ROWS, max_size=6))
def test_json_parse_matches_the_row_loop(rows):
    text = json.dumps({"facets": rows})
    assert outcome(parse_json_facets, text, "f.json") == outcome(
        oracles.json_facet_rows, json.loads(text)["facets"], "f.json"
    )


def _text(codes) -> str:
    """The code points as one str, lone surrogates too, built in C."""
    return array("I", codes).tobytes().decode(f"utf-32-{sys.byteorder[0]}e", "surrogatepass")


def test_str_split_splits_at_exactly_the_whitespace_of_re():
    """The plain scanner's tokens are `\\S+` matches only because
    `str.split()`, `str.isspace()` and `re`'s `\\s` agree on every code
    point."""
    codes = array("I", range(sys.maxunicode + 1))
    every = _text(codes)
    space = "".join(filter(str.isspace, every))
    assert "".join(re.findall(r"\s", every)) == space
    # every code point alone between two letters: split() cuts at exactly
    # the characters where re.split cuts at \s
    cells = array("I", [ord("a")]) * (2 * len(codes) + 1)
    cells[1::2] = codes
    spread = _text(cells)
    assert spread.split() == re.split(r"\s", spread)


def test_valid_files_take_neither_first_error_walk_nor_the_checked_closure(
    tmp_path, monkeypatch
):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name in ("_first_repeat", "_first_bad_facet"):
        monkeypatch.setattr(facetio, name, counted(name, getattr(facetio, name)))
    checked = SimplicialComplex.from_indexed_facets
    monkeypatch.setattr(
        SimplicialComplex, "from_indexed_facets", staticmethod(counted("checked", checked))
    )
    plain = tmp_path / "ok.facets"
    plain.write_text("a b c  # a comment\n\nb c d\nd\n")
    doc = tmp_path / "ok.json"
    doc.write_text('{"facets": [["a", "b"], ["b", "c"], ["d"]]}')
    assert load_complex(plain).by_size == (1, 4, 5, 2)
    assert load_complex(doc).by_size == (1, 4, 2)
    assert calls == []

    repeat = tmp_path / "repeat.facets"
    repeat.write_text("a b\nc d c\n")
    with pytest.raises(InputError, match=r"repeat\.facets:2:5: repeated vertex 'c' in facet$"):
        load_complex(repeat)
    assert calls == ["_first_repeat"]
    bad = tmp_path / "bad.json"
    bad.write_text('{"facets": [["a"], ["b", 1]]}')
    with pytest.raises(InputError, match=r"bad\.json: facet 1 must be an array of strings$"):
        load_complex(bad)
    assert calls == ["_first_repeat", "_first_bad_facet"]
