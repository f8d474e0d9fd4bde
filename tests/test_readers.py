"""The model-file reader and the polynomial lexer checked against the
readers they replace (``reference_readers``): on every text both give the
same entries or tokens, or the same error, message included.

The one place they may differ: the reference takes any ch.isdigit()
character for a digit, and ``int`` refuses those that are not decimal,
such as "²", so the reference model reader crashes on one and the
reference lexer makes an int token of it that the parser then crashes
on.  The package reads such a character as part of a bare value, and
its lexer refuses it as an unexpected character.
"""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import reference_readers as ref
from equiblow import ModelFileError, PolyParseError, parse_model_text
from equiblow.modelfile import ModelFile, _read_entries
from equiblow.poly import _lex


def test_word_characters_are_isalnum_or_underscore():
    # both readers take a key, and the lexer a name's tail, as the
    # characters "\w" matches; the package tests them with str.isalnum()
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    words = set(re.findall(r"\w", everything))
    assert words == {ch for ch in everything if ch.isalnum() or ch == "_"}


# ---------------------------------------------------------------------------
# model files


def entries_outcome(read, text):
    """repr keeps int apart from Fraction and the order of the keys."""
    try:
        return "ok", repr(read(text))
    except ModelFileError as e:
        return "error", str(e)


def model_outcome(read, text):
    try:
        mf = read(text)
    except ModelFileError as e:
        return "error", str(e)
    return "ok", repr([getattr(mf, name) for name in ModelFile.__slots__])


def assert_readers_agree(text):
    try:
        want = entries_outcome(ref.scan_entries, text)
    except ValueError:
        # the reference's "²" crash: the package answers or refuses
        entries_outcome(_read_entries, text)
        return
    assert entries_outcome(_read_entries, text) == want, text
    assert model_outcome(parse_model_text, text) == model_outcome(
        ref.parse_model_text, text
    ), text


BLANK = st.sampled_from([" ", "\t", "\r", "\n", "  ", "# note\n", "#,]\"[\n", "\n\n"])
BLANKS = st.lists(BLANK, max_size=3).map("".join)
# between a key and its "=": mostly on one line, sometimes across a line
# break or a comment, which is refused
KEY_GAP = st.sampled_from(["", " ", "\t", " \r"] * 8 + ["\n", " # c\n", "#"])
KEYS = st.sampled_from(
    ["variables", "weights", "potential", "basepoint", "divisor", "x1", "_k", "é", "7"] * 3
    + ["a-b"]
)
ATOMS = st.one_of(
    st.integers(-30, 30).map(str),
    st.tuples(st.integers(-9, 9), st.integers(0, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(
        ["x", "y1", "_t", "α", "-", "--1", "+3", "1/2/3", "-1/-2", "/3", "3/",
         "a=b", 'a"b', "a[b", "1.5", "٣", "-٣/٢", "x²", "²", "1/²"]
    ),
)
STRINGS = st.text(alphabet="ab #,[]=*^+\n", max_size=8).map(lambda s: f'"{s}"')


def list_text(items, trailing, closing):
    body = ",".join(before + value + after for before, value, after in items)
    return "[" + body + ("," if trailing and items else "") + closing + "]"


VALUES = st.recursive(
    st.one_of(ATOMS, STRINGS),
    lambda inner: st.builds(
        list_text,
        st.lists(st.tuples(BLANKS, inner, BLANKS), max_size=4),
        st.booleans(),
        BLANKS,
    ),
    max_leaves=12,
)
ENTRY = st.builds(
    lambda key, gap, blanks, value: f"{key}{gap}={blanks}{value}",
    KEYS,
    KEY_GAP,
    BLANKS,
    VALUES,
)
JUNK = st.text(alphabet='[]",=#\n -/019ab²_', max_size=4)


@st.composite
def model_texts(draw):
    parts = [draw(BLANKS)]
    for entry in draw(st.lists(ENTRY, max_size=5)):
        parts += [entry, draw(BLANKS.filter(bool) | st.just("\n"))]
    text = "".join(parts)
    if draw(st.booleans()):
        # junk spliced in anywhere, or a slice cut out
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(JUNK) + text[at + cut :]
    return text


@given(model_texts())
def test_both_readers_agree_on_generated_texts(text):
    assert_readers_agree(text)


@given(st.text(alphabet='[]",=#\n\t -/0129abx_²', max_size=30))
def test_both_readers_agree_on_junk(text):
    assert_readers_agree(text)


VALID_LINES = st.permutations(
    [
        "variables = [x, y, z]",
        "weights=[[1, -1, 0],\n  [0, 1, -1],]",
        'potential = "x*y*z # not a comment"',
        "basepoint = [-1/2, 3, 0]",
    ]
)


@given(VALID_LINES, st.lists(BLANKS, min_size=5, max_size=5))
def test_both_readers_build_the_same_model_file(lines, gaps):
    text = gaps[0] + "".join(
        line + "\n" + gap for line, gap in zip(lines, gaps[1:])
    )
    assert model_outcome(parse_model_text, text)[0] == "ok"
    assert_readers_agree(text)


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("x = [1, -2, 3/4]", ("ok", "{'x': [1, -2, Fraction(3, 4)]}")),
        ("x=[[1,2],[3],]", ("ok", "{'x': [[1, 2], [3]]}")),
        ("x =[a]  y= \"#\" z=b", ("ok", "{'x': ['a'], 'y': '#', 'z': 'b'}")),
        ("x = [\n a, # c\n b,\n]", ("ok", "{'x': ['a', 'b']}")),
        ("x = a=b", ("ok", "{'x': 'a=b'}")),
        ("x\n= 1", ("error", "expected '=' at offset 1, found '\\n'")),
        ("x # c\n= 1", ("error", "expected '=' at offset 5, found '\\n'")),
        ("x-y = 1", ("error", "expected '=' at offset 1, found '-'")),
        ("x = [1, 2 3]", ("error", "expected ']' at offset 10, found '3'")),
        ("x = [1,, 2]", ("error", "empty value at offset 7")),
        ("x = [1, 1/0]", ("error", "zero denominator in '1/0' at offset 8")),
        ("x = [1,\n  -3/00]", ("error", "zero denominator in '-3/00' at offset 10")),
        ("x = 1/0", ("error", "zero denominator in '1/0' at offset 4")),
        ('x = "ab', ("error", "unterminated string")),
        ("= 1", ("error", "expected a key at offset 0")),
        ("x = 1\nx = 2", ("error", "duplicate key 'x'")),
        ("x = ", ("error", "empty value at offset 4")),
        ("x = [", ("error", "empty value at offset 5")),
    ],
)
def test_reader_examples(text, outcome):
    assert entries_outcome(_read_entries, text) == outcome
    assert entries_outcome(ref.scan_entries, text) == outcome


def test_a_non_decimal_digit_is_a_bare_value():
    # the reference crashes on int("²")
    assert _read_entries("x = [², -²]") == {"x": ["²", "-²"]}
    assert _read_entries("x = 1/²") == {"x": "1/²"}
    assert _read_entries("x = [٣, -٣/٢]") == {"x": [3, Fraction(-3, 2)]}


# ---------------------------------------------------------------------------
# polynomial text


def lex_outcome(lex, text):
    try:
        return "ok", lex(text)
    except PolyParseError as e:
        return "error", str(e), e.position


def reference_lex_outcome(text):
    """The reference's tokens or error, except that a digit int() refuses,
    which the reference puts in an int token, is an unexpected character."""
    out = lex_outcome(ref.lex, text)
    toks = out[1] if out[0] == "ok" else ref.lex(text[: out[2]])
    for kind, tok, start in toks:
        for i, ch in enumerate(tok):
            if kind == "int" and not ch.isdecimal():
                at = start + i
                return "error", f"unexpected character {ch!r} (at position {at})", at
    return out


@given(st.text(alphabet="xy_α19٣ \t\n\u00a0\u2028+-*^()/²½$.", max_size=20))
def test_lexers_agree(text):
    assert lex_outcome(_lex, text) == reference_lex_outcome(text)


@pytest.mark.parametrize("text, position", [("²", 0), ("2*³", 2), ("1²", 1)])
def test_a_non_decimal_digit_is_an_unexpected_character(text, position):
    with pytest.raises(PolyParseError, match="unexpected character") as e:
        _lex(text)
    assert e.value.position == position
