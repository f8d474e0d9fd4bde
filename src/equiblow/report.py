"""Deterministic report assembly.

Reports are plain dictionaries rendered to canonical JSON: keys sorted,
charts sorted by name, rationals printed exactly, and nothing
time-dependent, so two runs on one input are byte-identical.
"""

import json
from fractions import Fraction

VERSION = "0.1.0"


def frac_str(x) -> str:
    return str(Fraction(x))


def point_str(point) -> str:
    return ",".join(frac_str(x) for x in point)


def gb_strings(gb) -> list[str]:
    return [str(p) for p in gb.basis]


def ideal_strings(ideal) -> list[str]:
    return sorted(str(p) for p in ideal.generators)


def chart_entry(
    name: str,
    variables,
    weights,
    ideal_gb=None,
    unstable_gb=None,
    checks=None,
) -> dict:
    entry = {
        "name": name,
        "vars": list(variables),
        "weights": [list(row) for row in weights],
    }
    if ideal_gb is not None:
        entry["ideal_gb"] = list(ideal_gb)
    if unstable_gb is not None:
        entry["unstable_gb"] = list(unstable_gb)
    if checks is not None:
        entry["checks"] = checks
    return entry


def assemble(model: str, command: str, charts: list, ledger: dict) -> dict:
    return {
        "model": model,
        "command": command,
        "charts": sorted(charts, key=lambda c: c["name"]),
        "ledger": ledger,
        "version": VERSION,
    }


def render(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
