"""File layouts through ``read_code_set``, judged by the dict reader.

The file reader decodes a document's integer arrays with numpy and hands
``json.loads`` only the rest.  Every file here must get the verdict that
``code_set_from_dict(json.loads(text))`` gives its UTF-8 text, and the
same set when accepted: hand-written layouts first, then a Hypothesis
property over re-rendered and edited copies of the README set.
"""
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from zccs.boolfn import parse_gbf
from zccs.cli import code_set_from_dict, code_set_to_dict, read_code_set
from zccs.construct import build_zccs
from zccs.errors import FileFormatError

# The README set, 12x4x24 at delta 6; its first exponent is 0.
BUILT = build_zccs(parse_gbf("x1*x2", 3, 2), [0], 2, p=3)
DOC = code_set_to_dict(BUILT)
TEXT = json.dumps(DOC)
FIRST = TEXT.index("[[") + 2
assert TEXT[FIRST : FIRST + 3] == "0, "


@pytest.fixture(scope="module")
def reads(tmp_path_factory):
    """The file reader's set for some bytes, None if it refuses them,
    checked against the dict reader.  Every call writes a new file:
    rewriting one in place can be slow where freeing blocks is."""
    root = tmp_path_factory.mktemp("layouts")
    names = itertools.count()

    def both(data: bytes):
        path = root / f"{next(names)}.json"
        path.write_bytes(data)
        try:
            read = read_code_set(str(path))
        except FileFormatError:
            read = None
        try:
            ref = code_set_from_dict(json.loads(data.decode("utf-8")))
        except (ValueError, RecursionError, FileFormatError):
            ref = None
        assert (read is None) == (ref is None), data[:300]
        assert read is None or read == ref, data[:300]
        return read

    return both


def _first_exponent(text: str) -> str:
    """TEXT with its first exponent, a 0, written as ``text``."""
    return TEXT[:FIRST] + text + TEXT[FIRST + 1 :]


# The README text holds no '-', tab, CR or LF, so in each "lone" layout
# below the one such byte, or CRLF, lies in one place only: in a key,
# between tokens before the first integer array, after the last array's
# ']' or inside one body.  The "lone_quote" layouts hold their only '"'
# between two bodies.
assert not set("-\t\r\n") & set(TEXT)
_WHITESPACE = [("tab", "\t"), ("cr", "\r"), ("lf", "\n")]

ACCEPTED = {
    "crlf_and_tab_in_arrays": TEXT.replace(", ", ",\r\n\t"),
    "whitespace_around_every_token": TEXT.replace(", ", " \t, \n").replace("[", "[\r\n ").replace("]", " \t]"),
    "minus_zero_exponent": _first_exponent("-0"),
    "sorted_keys": json.dumps(DOC, sort_keys=True),
    "reversed_keys": json.dumps({key: DOC[key] for key in reversed(DOC)}),
    "duplicate_keys": '{"delta": 99, "codes": [[1, 2], [3]], ' + TEXT[1:],
    "unknown_key_past_int64": '{"note": [123456789012345678901234567890], ' + TEXT[1:],
    "string_holding_an_array": '{"note": "[1, 2]", ' + TEXT[1:],
    "string_holding_an_escaped_quote": '{"note": "\\"[1 2]", ' + TEXT[1:],
    "string_ending_in_a_backslash": '{"note": "[\\\\", "more": [1, 2], ' + TEXT[1:],
    "lone_minus_in_a_key": '{"a-b": 0, ' + TEXT[1:],
    "lone_minus_in_a_string_after_the_arrays": TEXT[:-1] + ', "note": "-1"}',
    **{f"lone_{name}_before_the_arrays": "{" + ch + TEXT[1:] for name, ch in _WHITESPACE},
    **{f"lone_{name}_after_the_arrays": TEXT[:-1] + ch + "}" for name, ch in _WHITESPACE},
    "lone_tab_in_a_body": TEXT[:FIRST] + "0,\t" + TEXT[FIRST + 3 :],
    "lone_crlf_in_a_body": TEXT[:FIRST] + "0,\r\n" + TEXT[FIRST + 3 :],
    "lone_lf_in_a_body": TEXT[:FIRST] + "0,\n" + TEXT[FIRST + 3 :],
}

REFUSED = {
    "leading_zero": _first_exponent("01"),
    "two_leading_zeros": _first_exponent("00"),
    "space_inside_a_list": TEXT[:FIRST] + "0 1" + TEXT[FIRST + 2 :],
    "space_after_minus": _first_exponent("- 0"),
    "plus_sign": _first_exponent("+0"),
    "trailing_comma": TEXT.replace("]", ",]", 1),
    "leading_comma": TEXT[:FIRST] + "," + TEXT[FIRST:],
    "form_feed_as_whitespace": TEXT[:FIRST] + "0,\f" + TEXT[FIRST + 3 :],
    "float_exponent": _first_exponent("0.0"),
    "exponent_past_int64": _first_exponent("9223372036854775808"),
    "negative_exponent": _first_exponent("-1"),
    "lone_minus_before_the_arrays": "{-" + TEXT[1:],
    "lone_minus_after_the_arrays": TEXT[:-1] + "-}",
    **{f"lone_{name}_in_a_key": '{"a' + ch + 'b": 0, ' + TEXT[1:] for name, ch in _WHITESPACE},
    "lone_quote_between_two_bodies": '[[0, 1]"[2]]',
    "lone_quote_between_two_bodies_of_a_list": '[[0, 1], "[2], [3]]',
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_layout_reads_the_built_set(case, reads):
    assert reads(ACCEPTED[case].encode()) == BUILT


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_layout_is_refused(case, reads):
    assert reads(REFUSED[case].encode()) is None


@pytest.mark.parametrize("data", [
    TEXT.encode("utf-16"), TEXT.encode("utf-16-le"), b"\xef\xbb\xbf" + TEXT.encode(),
], ids=["utf16", "utf16_without_bom", "utf8_bom"])
def test_other_encodings_are_refused(data, reads):
    assert reads(data) is None


_WS = ["", "", " ", "\t", "\n", "\r", "\r\n", " \n\t "]


def _render(value, rng) -> str:
    """value as JSON with random whitespace between tokens and random key
    order."""
    def ws():
        return rng.choice(_WS)

    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return "{" + ",".join(f"{ws()}{json.dumps(k)}{ws()}:{ws()}{_render(v, rng)}{ws()}" for k, v in items) + "}"
    if isinstance(value, list):
        return "[" + ",".join(f"{ws()}{_render(v, rng)}{ws()}" for v in value) + ws() + "]"
    return json.dumps(value)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_any_layout_reads_the_built_set(seed, reads):
    assert reads(_render(DOC, random.Random(seed)).encode()) == BUILT


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), byte=st.sampled_from(b"0123456789-+,. \t\n\r\f[]\"e"), insert=st.booleans())
def test_one_byte_edited_in_an_exponent_array(seed, byte, insert, reads):
    rng = random.Random(seed)
    text = _render(DOC, rng).encode()
    body = rng.choice([m.span(1) for m in re.finditer(rb"\[([^\[\]{}\"]+)\]", text)])
    at = rng.randrange(*body)
    reads(text[:at] + bytes([byte]) + text[at + (not insert) :])
