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
from functools import cached_property

from .blowup import (
    BlowupChart,
    EquivariantBundle,
    LocalModel,
    WeakModelReport,
    check_weak_local_model,
    make_charts,
)
from .dcrit import _dcritical_model, _require_invariant
from .errors import ModelFileError, PolyParseError, PreconditionError
from .family import fiber_space
from .groebner import Ideal
from .poly import Poly, Ring, canon, parse_poly
from .torus import Subtorus, WeightMatrix, poly_weight


def _strings(value, mf):
    if isinstance(value, list):
        for s in value:
            if not isinstance(s, str):
                return None
        return tuple(value)


def _string(value, mf):
    if isinstance(value, str):
        return value


def _int_rows(value, mf):
    if isinstance(value, list):
        for row in value:
            if not isinstance(row, list):
                return None
            for x in row:
                if not isinstance(x, int):
                    return None
        return tuple(map(tuple, value))


def _weights(value, mf):
    if isinstance(value, list):
        for row in value:
            if not isinstance(row, list):
                return None
        width = len(mf.variables)
        for row in value:
            for x in row:
                if not isinstance(x, int):
                    raise ModelFileError("weights must be integers")
            if len(row) != width:
                raise ModelFileError("weight row width must match variables")
        return tuple(map(tuple, value))


def _divisor(value, mf):
    if isinstance(value, list):
        div = {}
        for item in value:
            if not (
                isinstance(item, list)
                and len(item) == 2
                and isinstance(item[0], str)
                and isinstance(item[1], int)
                and item[1] > 0
            ):
                raise ModelFileError(
                    "divisor entries must be [name, positive multiplicity]"
                )
            div[item[0]] = item[1]
        return div


def _base_parameter(value, mf):
    if isinstance(value, str) and value in mf.variables:
        t = mf.variables.index(value)
        for row in mf.weights:
            if row[t]:
                raise ModelFileError(
                    "base parameter must have weight zero in every row"
                )
        return value


def _basepoint(value, mf):
    # the reader gives quoted text, and bare text that is no int or p/q,
    # as str: only numbers pass
    if isinstance(value, list) and len(value) == len(mf.variables):
        if all(isinstance(x, (int, Fraction)) for x in value):
            return tuple(map(canon, value))


# The optional keys, in the order they are checked, so a file with
# several faults is refused for the first.  A rule is (key, test,
# message): ``test(value, mf)`` gets the file's value for the key and
# the ``ModelFile`` with its variables and weights set, and returns the
# value the field keeps, or None to refuse the file with ``message``; a
# test with a second refusal raises it itself.  A key the file leaves
# out reads None.
_OPTIONAL = (
    ("potential", _string, "potential must be a quoted string"),
    ("ideal", _strings, "ideal must be a list of quoted strings"),
    ("section", _strings, "section must be a list of quoted strings"),
    ("frame_weights", _int_rows, "frame_weights must be integer rows"),
    ("frame_labels", _strings, "frame_labels must be a list of names"),
    ("divisor", _divisor, "divisor must be a list of [name, multiplicity]"),
    ("base_parameter", _base_parameter, "base_parameter must name a variable"),
    ("basepoint", _basepoint, "basepoint must list one rational per variable"),
    ("hint", _string, "hint must be a quoted string"),
)


class ModelFile:
    """Parsed but unbuilt model data, shapes validated."""

    __slots__ = ("variables", "weights", *(key for key, _, _ in _OPTIONAL))

    def __init__(self, entries: dict):
        for key in entries:
            if key not in _KEYS:
                raise ModelFileError(f"unknown key {key!r}")
        try:
            variables = entries["variables"]
            weights = entries["weights"]
        except KeyError as e:
            raise ModelFileError(f"missing required key {e.args[0]!r}") from None
        self.variables = _strings(variables, self)
        if self.variables is None:
            raise ModelFileError("variables must be a list of names")
        self.weights = _weights(weights, self)
        if self.weights is None:
            raise ModelFileError("weights must be a list of integer rows")
        if ("potential" in entries) == ("ideal" in entries):
            raise ModelFileError(
                "exactly one of 'potential' or 'ideal' is required"
            )
        for key, test, message in _OPTIONAL:
            if key in entries:
                value = test(entries[key], self)
                if value is None:
                    raise ModelFileError(message)
                setattr(self, key, value)
            else:
                setattr(self, key, None)


_KEYS = frozenset(ModelFile.__slots__)


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


def read_text(path: str) -> str:
    """The text of the model file at ``path``, decoded as UTF-8; a
    byte-order mark at its start is dropped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ModelFileError(f"cannot read model file: {e}") from None


def load_model_file(path: str) -> ModelFile:
    return parse_model_text(read_text(path))


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

    More facts of the model are kept once computed: its
    ``weak_report``, its ``atlas`` of stage-0 charts, which ``blowup``,
    ``semistable``, ``independence`` and the fiber check read, and
    ``fiber_atlas``, the one stage-0 atlas of all its fibers.  Each
    stage-0 chart keeps its tree node per ideal, model and budget
    (``desing.chart_node``), and the node computes each of its facts on
    its first read.  A fact that a budget bounds is read back only
    under an equal budget, and an error is never kept, so every exit
    under a budget is that of a first run.  ``ideal`` and
    ``model.ideal`` differ for a section file, and each has nodes of its
    own.
    """

    def __init__(self, ring, weights, source, potential=None, against=None):
        self.ring = ring
        self.weights = weights
        self.source = source
        self._potential = potential
        self.against = against

    @cached_property
    def model(self) -> LocalModel:
        """The d-critical model of the potential ``build_model`` has
        checked; a file without a potential sets its own."""
        f, base = self._potential, self.source.base_parameter
        return _dcritical_model(f, self.weights, base)

    @cached_property
    def ideal(self) -> Ideal:
        return self.model.ideal

    @cached_property
    def weak_report(self) -> WeakModelReport:
        """``check_weak_local_model`` of ``model``, which must not be None."""
        return check_weak_local_model(self.model)

    @cached_property
    def atlas(self) -> tuple[BlowupChart, ...]:
        """The stage-0 charts: ``make_charts`` along the full torus.  Its
        ``PreconditionError`` is raised on every read."""
        return make_charts(self.ring, self.weights, Subtorus.full(self.weights.k))

    @cached_property
    def fiber_atlas(self) -> tuple[BlowupChart, ...]:
        """The stage-0 atlas of every fiber of ``model``, which share one
        ring and one weight matrix (``family.fiber_space``), along the
        center of ``atlas``.  Its refusals come in the order a fiber
        check meets them: the base parameter's, then ``atlas``'s, then
        its own."""
        ring, weights = fiber_space(self.model)
        return make_charts(ring, weights, self.atlas[0].center)


def build_model(mf: ModelFile) -> BuiltModel:
    try:
        ring = Ring(mf.variables)
    except ValueError as e:  # a bad or repeated variable name
        raise ModelFileError(str(e)) from None
    weights = WeightMatrix(mf.weights)
    try:
        if mf.potential is not None:
            # a potential's frames and divisor are the d-critical model's own
            for key in ("frame_weights", "frame_labels", "divisor"):
                if getattr(mf, key) is not None:
                    raise ModelFileError(f"{key} belongs to a section file")
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
            return BuiltModel(ring, weights, mf, f, against)
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
                bundle = EquivariantBundle(labels, mf.frame_weights)
                model = LocalModel(
                    ring,
                    weights,
                    bundle,
                    section,
                    divisor=mf.divisor,
                    base_param=mf.base_parameter,
                )
            except ValueError as e:  # e.g. a repeated label or a stray divisor
                raise ModelFileError(str(e)) from None
            # each nonzero component pairs with its frame to weight zero
            for c, v in zip(section, bundle.weights):
                if c.terms and poly_weight(c, weights) != tuple(-x for x in v):
                    raise ModelFileError("section is not invariant")
        built = BuiltModel(ring, weights, mf)
        built.ideal, built.model = ideal, model
        return built
    except PolyParseError as e:
        raise ModelFileError(f"bad polynomial: {e}") from None


# The models built from the last ``_KEPT`` model texts, oldest first: a
# process that reads one text again takes its BuiltModel, with what that
# has kept, instead of parsing and building it again.  A text that fails
# to parse or build is not kept, so its error comes on every read.
_KEPT = 32
_built: dict = {}


def model_of_text(text: str) -> BuiltModel:
    """The BuiltModel of a model text, the one kept for it if any."""
    built = _built.get(text)
    if built is None:
        built = build_model(parse_model_text(text))
        if len(_built) == _KEPT:
            del _built[next(iter(_built))]
        _built[text] = built
    return built


def parse_hint(built: BuiltModel) -> Poly | None:
    if built.source.hint is None:
        return None
    try:
        return parse_poly(built.source.hint, built.ring)
    except PolyParseError as e:
        raise ModelFileError(f"bad hint polynomial: {e}") from None
