"""Deterministic report assembly.

Reports are plain dictionaries rendered to canonical JSON: keys sorted,
charts sorted by name, rationals printed exactly, and nothing
time-dependent, so two runs on one input are byte-identical.
"""

from json.encoder import encode_basestring_ascii

from . import __version__
from .poly import canon


def frac_str(x) -> str:
    """The exact text of a rational: "3", "-1/2"."""
    return str(canon(x))


def point_str(point) -> str:
    return ",".join(frac_str(x) for x in point)


def gb_strings(gb) -> list[str]:
    return [str(p) for p in gb.basis]


def ideal_strings(ideal) -> list[str]:
    return sorted(str(p) for p in ideal.generators)


def assemble(model: str, command: str, charts: list, ledger: dict) -> dict:
    return {
        "model": model,
        "command": command,
        "charts": sorted(charts, key=lambda c: c["name"]),
        "ledger": ledger,
        "version": __version__,
    }


def render(report: dict) -> str:
    """The bytes of ``json.dumps(report, sort_keys=True, indent=2)`` plus a
    newline.  A report holds only dicts with str keys, lists, tuples,
    str, int, bool and None; anything else raises TypeError.  Written
    here because ``json.dumps`` with an indent runs its pure-Python
    encoder, which is slower than this writer."""
    out: list[str] = []
    _write(report, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(value, out: list[str], newline: str):
    """Append the JSON of ``value`` to ``out``; ``newline`` is a line
    break plus the indent of the line the value starts on."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(
            f"report values cannot be of type {type(value).__name__}"
        )
