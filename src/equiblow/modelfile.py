"""Flat key-value model files: one torus-equivariant model per file.

The format is deliberately primitive so fixtures stay diff-friendly:
`key = value` lines, arrays in brackets, polynomial strings in quotes,
`#` comments.  Example:

    variables = [x, y, z]
    weights = [[1, -1, 0]]
    potential = "x*y*z"
"""

import re
from fractions import Fraction

from .blowup import EquivariantBundle, LocalModel
from .dcrit import _dcritical_model, _require_invariant
from .errors import ModelFileError, PolyParseError, PreconditionError
from .groebner import Ideal
from .poly import Poly, Ring, canon, parse_poly
from .torus import WeightMatrix

_KEYS = {
    "variables",
    "weights",
    "potential",
    "ideal",
    "section",
    "frame_weights",
    "frame_labels",
    "divisor",
    "twist",
    "base_parameter",
    "basepoint",
    "hint",
}


class ModelFile:
    """Parsed but unbuilt model data, shapes validated."""

    __slots__ = (
        "variables",
        "weights",
        "potential",
        "ideal",
        "section",
        "frame_weights",
        "frame_labels",
        "divisor",
        "twist",
        "base_parameter",
        "basepoint",
        "hint",
    )

    def __init__(self, entries: dict):
        for key in entries:
            if key not in _KEYS:
                raise ModelFileError(f"unknown key {key!r}")
        try:
            variables = entries["variables"]
            weights = entries["weights"]
        except KeyError as e:
            raise ModelFileError(f"missing required key {e.args[0]!r}") from None
        if not isinstance(variables, list) or not all(
            isinstance(v, str) for v in variables
        ):
            raise ModelFileError("variables must be a list of names")
        self.variables = tuple(variables)
        if not isinstance(weights, list) or not all(
            isinstance(row, list) for row in weights
        ):
            raise ModelFileError("weights must be a list of integer rows")
        rows = []
        for row in weights:
            out = []
            for x in row:
                if not isinstance(x, int):
                    raise ModelFileError("weights must be integers")
                out.append(x)
            if len(out) != len(self.variables):
                raise ModelFileError("weight row width must match variables")
            rows.append(tuple(out))
        self.weights = tuple(rows)

        has_potential = "potential" in entries
        has_ideal = "ideal" in entries
        if has_potential == has_ideal:
            raise ModelFileError(
                "exactly one of 'potential' or 'ideal' is required"
            )
        self.potential = entries.get("potential")
        if self.potential is not None and not isinstance(self.potential, str):
            raise ModelFileError("potential must be a quoted string")
        ideal = entries.get("ideal")
        if ideal is not None:
            if not isinstance(ideal, list) or not all(
                isinstance(g, str) for g in ideal
            ):
                raise ModelFileError("ideal must be a list of quoted strings")
            ideal = tuple(ideal)
        self.ideal = ideal

        section = entries.get("section")
        if section is not None:
            if not isinstance(section, list) or not all(
                isinstance(g, str) for g in section
            ):
                raise ModelFileError("section must be a list of quoted strings")
            section = tuple(section)
        self.section = section

        fw = entries.get("frame_weights")
        if fw is not None:
            if not isinstance(fw, list) or not all(
                isinstance(row, list) and all(isinstance(x, int) for x in row)
                for row in fw
            ):
                raise ModelFileError("frame_weights must be integer rows")
            fw = tuple(tuple(row) for row in fw)
        self.frame_weights = fw

        fl = entries.get("frame_labels")
        if fl is not None:
            if not isinstance(fl, list) or not all(isinstance(s, str) for s in fl):
                raise ModelFileError("frame_labels must be a list of names")
            fl = tuple(fl)
        self.frame_labels = fl

        divisor = entries.get("divisor", [])
        if not isinstance(divisor, list):
            raise ModelFileError("divisor must be a list of [name, multiplicity]")
        div = {}
        for item in divisor:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not isinstance(item[0], str)
                or not isinstance(item[1], int)
                or item[1] <= 0
            ):
                raise ModelFileError(
                    "divisor entries must be [name, positive multiplicity]"
                )
            div[item[0]] = item[1]
        self.divisor = div

        twist = entries.get("twist", 0)
        if not isinstance(twist, int) or twist < 0:
            raise ModelFileError("twist must be a nonnegative integer")
        self.twist = twist

        bp = entries.get("base_parameter")
        if bp is not None:
            if not isinstance(bp, str) or bp not in self.variables:
                raise ModelFileError("base_parameter must name a variable")
            t = self.variables.index(bp)
            for row in self.weights:
                if row[t] != 0:
                    raise ModelFileError(
                        "base parameter must have weight zero in every row"
                    )
        self.base_parameter = bp

        basepoint = entries.get("basepoint")
        if basepoint is not None:
            if not isinstance(basepoint, list) or len(basepoint) != len(
                self.variables
            ):
                raise ModelFileError(
                    "basepoint must list one rational per variable"
                )
            try:
                basepoint = tuple(map(canon, basepoint))
            except (TypeError, ValueError, ZeroDivisionError):
                raise ModelFileError(
                    "basepoint must list one rational per variable"
                ) from None
        self.basepoint = basepoint

        hint = entries.get("hint")
        if hint is not None and not isinstance(hint, str):
            raise ModelFileError("hint must be a quoted string")
        self.hint = hint


# ---------------------------------------------------------------------------
# text parsing


# One pattern reads the whole file: each match is the blanks and ``#``
# comments before a token, then the token.  A token is a quoted string
# (its closing quote missing when the text ends first), "[", "]", ",",
# or a bare value, which runs up to the next blank, comma, "]" or "#"
# and is empty only at the end of the text.
_TOKEN = re.compile(
    r'([ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*)("[^"]*"?|[\[\],]|[^,\]# \t\r\n]*)'
)


def _word_prefix(tok: str) -> str:
    """The leading characters of ``tok`` that may form a key: those with
    ch.isalnum() or ch == "_", which are the characters "\\w" matches."""
    if tok.isalnum():
        return tok
    for j, ch in enumerate(tok):
        if not (ch.isalnum() or ch == "_"):
            return tok[:j]
    return tok


def _atom(atom: str, start):
    """A bare value: an int, a ``p/q`` rational, or else the text.
    ``start()`` is its offset, for the error on a zero denominator."""
    if (atom[1:] if atom[:1] == "-" else atom).isdecimal():
        return int(atom)
    num, slash, den = atom.partition("/")
    if slash and (num[1:] if num[:1] == "-" else num).isdecimal() and den.isdecimal():
        if not int(den):
            raise ModelFileError(f"zero denominator in {atom!r} at offset {start()}")
        return Fraction(int(num), int(den))
    return atom


def _read_entries(text: str) -> dict:
    """The ``key = value`` entries of a model file, in file order; the
    grammar is in README "Model files".

    One loop walks the tokens, with the open lists of a value on a
    stack, innermost last.  Offsets are summed up only for an error, or
    for an "=" glued to the text after it ("x=[1]", "x =[1]"): that text
    is read again from just past the "=", as a value of its own.
    """
    entries: dict = {}
    stack: list[list] = []
    toks = _TOKEN.findall(text)
    it = iter(toks)
    base = 0  # the offset toks starts at

    def start(before=None):
        # the offset of the token read last, or of the character at
        # ``before`` in its blanks; ``it`` is used up after this
        used = len(toks) - len(list(it)) - 1
        offset = base + sum(len(b) + len(t) for b, t in toks[:used])
        return offset + (len(toks[used][0]) if before is None else before)

    while True:
        blanks, tok = next(it)
        if not tok:
            return entries
        key = _word_prefix(tok)
        if not key:
            raise ModelFileError(f"expected a key at offset {start()}")
        if key in entries:
            raise ModelFileError(f"duplicate key {key!r}")
        eq = len(key)  # where the "=" must stand in tok
        if eq == len(tok):
            blanks, tok = next(it)
            newline = blanks.find("\n")
            if newline >= 0:
                raise ModelFileError(
                    f"expected '=' at offset {start(newline)}, found '\\n'"
                )
            eq = 0
        if tok[eq : eq + 1] != "=":
            offset = start() + eq
            raise ModelFileError(
                f"expected '=' at offset {offset}, found {tok[eq : eq + 1]!r}"
            )
        if len(tok) > eq + 1:
            # a value glued to the "=": read on from just past it
            base = start() + eq + 1
            toks = _TOKEN.findall(text, base)
            it = iter(toks)
        blanks, tok = next(it)
        while True:
            if tok == "[":
                blanks, tok = next(it)
                if tok != "]":
                    stack.append([])
                    continue
                value = []
            elif not tok or tok == "," or tok == "]":
                raise ModelFileError(f"empty value at offset {start()}")
            elif tok[0] == '"':
                if len(tok) < 2 or tok[-1] != '"':
                    raise ModelFileError("unterminated string")
                value = tok[1:-1]
            else:
                value = _atom(tok, start)
            # close each list the value completes
            while stack:
                stack[-1].append(value)
                blanks, tok = next(it)
                if tok == ",":
                    blanks, tok = next(it)
                    if tok != "]":  # else a trailing comma
                        break
                elif tok != "]":
                    offset = start()
                    raise ModelFileError(
                        f"expected ']' at offset {offset}, found {tok[:1]!r}"
                    )
                value = stack.pop()
            else:
                entries[key] = value
                break


def parse_model_text(text: str) -> ModelFile:
    return ModelFile(_read_entries(text))


def load_model_file(path: str) -> ModelFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ModelFileError(f"cannot read model file: {e}") from None
    return parse_model_text(text)


# ---------------------------------------------------------------------------
# building


class BuiltModel:
    """A model file resolved into live objects.

    ``model`` is present for potential files and for explicit
    section-plus-frame files; ideal-only inputs work at the ideal level.
    For a potential file, ``model`` and ``ideal`` are built on first read
    and then kept; a section file keeps its own ``ideal``, the locus its
    section must cut.  ``against`` holds the file's section when it
    accompanies a potential, as the comparison section for equivalence
    checks.
    """

    __slots__ = (
        "ring",
        "weights",
        "_ideal",
        "_model",
        "against",
        "source",
        "_potential",
    )

    def __init__(self, ring, weights, ideal, model, against, source):
        self.ring = ring
        self.weights = weights
        self._ideal = ideal
        self._model = model
        self.against = against
        self.source = source
        self._potential = None

    @classmethod
    def _of_potential(cls, ring, weights, f, against, source):
        """Defer the d-critical model of a potential ``build_model`` has
        checked."""
        built = cls(ring, weights, None, None, against, source)
        built._potential = f
        return built

    def _build(self):
        f = self._potential
        if f is not None:
            model = _dcritical_model(f, self.weights, self.source.base_parameter)
            self._model, self._ideal, self._potential = model, model.ideal, None

    @property
    def model(self):
        self._build()
        return self._model

    @property
    def ideal(self):
        self._build()
        return self._ideal


def build_model(mf: ModelFile) -> BuiltModel:
    try:
        ring = Ring(mf.variables)
    except ValueError as e:  # a bad or repeated variable name
        raise ModelFileError(str(e)) from None
    weights = WeightMatrix(mf.weights)
    try:
        if mf.potential is not None:
            f = parse_poly(mf.potential, ring)
            try:
                _require_invariant(f, weights)
            except PreconditionError:
                # the one precondition of a d-critical chart the file can break
                raise ModelFileError("potential is not invariant") from None
            against = None
            if mf.section is not None:
                # one frame per coordinate but the base parameter
                if len(mf.section) != ring.n - (mf.base_parameter is not None):
                    raise ModelFileError(
                        "comparison section must match the frame count"
                    )
                against = tuple(parse_poly(s, ring) for s in mf.section)
            return BuiltModel._of_potential(ring, weights, f, against, mf)
        gens = tuple(parse_poly(s, ring) for s in mf.ideal)
        ideal = Ideal(ring, gens)
        model = None
        if mf.section is not None:
            if mf.frame_weights is None:
                raise ModelFileError("section requires frame_weights")
            section = tuple(parse_poly(s, ring) for s in mf.section)
            labels = mf.frame_labels
            if labels is None:
                labels = tuple(f"e{i}" for i in range(len(section)))
            if len(labels) != len(section) or len(mf.frame_weights) != len(section):
                raise ModelFileError("frame data must match the section length")
            try:
                bundle = EquivariantBundle(labels, mf.frame_weights, mf.twist)
                model = LocalModel(
                    ring,
                    weights,
                    bundle,
                    section,
                    divisor=dict(mf.divisor),
                    base_param=mf.base_parameter,
                )
            except ValueError as e:  # e.g. a repeated label or a stray divisor
                raise ModelFileError(str(e)) from None
        return BuiltModel(ring, weights, ideal, model, None, mf)
    except PolyParseError as e:
        raise ModelFileError(f"bad polynomial: {e}") from None


def parse_hint(built: BuiltModel) -> Poly | None:
    if built.source.hint is None:
        return None
    try:
        return parse_poly(built.source.hint, built.ring)
    except PolyParseError as e:
        raise ModelFileError(f"bad hint polynomial: {e}") from None
