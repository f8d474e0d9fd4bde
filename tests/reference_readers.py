"""The two text readers as they were before the one-pattern rewrite, kept
here as the references the differential tests check the package's
readers against.

``parse_model_text`` reads a model file with four patterns and a
recursive ``_scan_value``; ``lex`` walks polynomial text character by
character.  Both take any ch.isdigit() character for a digit: the model
reader raises the ``ValueError`` of ``int`` on one that ``int`` does not
read (such as "²"), and ``lex`` makes an int token of it.
"""

import re
from fractions import Fraction

from equiblow import ModelFileError, PolyParseError
from equiblow.modelfile import ModelFile

# each pattern matches from a given offset and cannot fail; "\w" is
# exactly ch.isalnum() or ch == "_"
_BLANKS = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*")  # blanks and comments
_LINE_BLANKS = re.compile(r"(?:[ \t\r]|#[^\n]*)*")  # the same within a line
_KEY = re.compile(r"\w*")
_BARE = re.compile(r"[^,\]# \t\r\n]*")  # an unquoted value


def _scan_value(text: str, pos: int):
    """The value starting at ``pos`` (after blanks) and the offset past it."""
    pos = _BLANKS.match(text, pos).end()
    ch = text[pos : pos + 1]
    if ch == '"':
        end = text.find('"', pos + 1)
        if end < 0:
            raise ModelFileError("unterminated string")
        return text[pos + 1 : end], end + 1
    if ch == "[":
        items = []
        pos = _BLANKS.match(text, pos + 1).end()
        if text[pos : pos + 1] == "]":
            return items, pos + 1
        while True:
            value, pos = _scan_value(text, pos)
            items.append(value)
            pos = _BLANKS.match(text, pos).end()
            ch = text[pos : pos + 1]
            if ch == ",":
                pos = _BLANKS.match(text, pos + 1).end()
                if text[pos : pos + 1] == "]":  # trailing comma
                    return items, pos + 1
                continue
            if ch != "]":
                raise ModelFileError(f"expected ']' at offset {pos}, found {ch!r}")
            return items, pos + 1
    start = pos
    pos = _BARE.match(text, pos).end()
    atom = text[start:pos]
    if not atom:
        raise ModelFileError(f"empty value at offset {start}")
    neg = atom[1:] if atom.startswith("-") else atom
    if neg.isdigit():
        return int(atom), pos
    if "/" in atom:
        num, _, den = atom.partition("/")
        numneg = num[1:] if num.startswith("-") else num
        if numneg.isdigit() and den.isdigit():
            if not int(den):
                raise ModelFileError(f"zero denominator in {atom!r} at offset {start}")
            return Fraction(int(num), int(den)), pos
    return atom, pos


def scan_entries(text: str) -> dict:
    """The key-value entries of a model file, before ``ModelFile``
    validates them."""
    entries: dict = {}
    pos = _BLANKS.match(text).end()
    while pos < len(text):
        end = _KEY.match(text, pos).end()
        key = text[pos:end]
        if not key:
            raise ModelFileError(f"expected a key at offset {pos}")
        if key in entries:
            raise ModelFileError(f"duplicate key {key!r}")
        pos = _LINE_BLANKS.match(text, end).end()
        if text[pos : pos + 1] != "=":
            raise ModelFileError(
                f"expected '=' at offset {pos}, found {text[pos : pos + 1]!r}"
            )
        entries[key], pos = _scan_value(text, pos + 1)
        pos = _BLANKS.match(text, pos).end()
    return entries


def parse_model_text(text: str) -> ModelFile:
    return ModelFile(scan_entries(text))


_NAME_TAIL = re.compile(r"\w*")  # the characters ch.isalnum() or ch == "_"


def lex(text: str) -> list[tuple[str, str, int]]:
    """Tokens (kind, text, offset) of polynomial text, ending with "end"."""
    toks = []
    n = len(text)
    pos = 0
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            pos += 1
            while pos < n and text[pos].isdigit():
                pos += 1
            toks.append(("int", text[start:pos], start))
        elif ch.isalpha() or ch == "_":
            end = _NAME_TAIL.match(text, pos + 1).end()
            toks.append(("name", text[pos:end], pos))
            pos = end
        elif ch in "+-*^()/":
            toks.append((ch, ch, pos))
            pos += 1
        else:
            raise PolyParseError(f"unexpected character {ch!r}", pos)
    toks.append(("end", "", n))
    return toks
