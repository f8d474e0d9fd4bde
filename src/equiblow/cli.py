"""Command-line driver: parse a model file, run one pipeline stage, and
emit a deterministic report.

Exit codes: 0 success, 1 corpus criterion failed, 2 unreadable input or
unwritable report, 3 precondition violated, 4 budget exceeded, 5
theorem-check failure.
"""

import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import report as rpt
from .dcrit import (
    SmallExtension,
    cohomology_dims,
    find_lift,
    four_term_at,
    lifting_data,
    obstruction_assignment,
    verify_omega_equivalence,
)
from .desing import (
    action_is_trivial,
    blowup_tree,
    embedding_independence_check,
    fiber_charts_commute,
)
from .errors import (
    BudgetExceededError,
    ModelFileError,
    PolyParseError,
    PreconditionError,
    TheoremCheckError,
)
from .groebner import Budget, contains_one, eliminate
from .modelfile import model_of_text, parse_hint, read_text
from .poly import canon
from .record import Record
from .stability import point_semistable

CORPUS_DIR = Path(__file__).parent / "corpus"


# Every subcommand validates the budget here.  `crit`, `semistable` and
# `obstruction` never read it: their work is a fixed number of
# evaluations, exact ranks and hull LPs sized by the model, and they
# compute no Groebner basis (no buchberger, saturate, normal_form or
# ideal_equal call), so there is nothing for it to bound.
def _parse_budget(args) -> Budget | None:
    value = args.budget
    if value is None:
        return None
    if value < 1:
        raise ModelFileError("budget must be a positive integer")
    return Budget(max_basis=value, max_degree=value)


# a coordinate spelled as a plain integer, which int() parses faster than
# Fraction's string parser would; every other spelling goes through canon
_INTEGER = re.compile(r"-?[0-9]+")


def _parse_point(text: str, n: int):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != n:
        raise ModelFileError(f"point needs {n} coordinates, got {len(parts)}")
    try:
        return tuple(
            int(s) if _INTEGER.fullmatch(s) else canon(s)
            for s in parts
        )
    except (ValueError, ZeroDivisionError):
        raise ModelFileError(f"bad point {text!r}") from None


def _stages(nodes) -> list[dict]:
    """The report's list of stages below a node: the one stage of
    ``nodes``, all along one center, or none when ``nodes`` is empty."""
    if not nodes:
        return []
    return [{
        "center": [list(r) for r in nodes[0].chart.center.cochar],
        "charts": [
            {
                "name": node.chart.name,
                "ideal_gb": rpt.gb_strings(node.gb),
                "unstable_gb": rpt.ideal_strings(node.unstable),
                "substages": _stages(node.children),
            }
            for node in nodes
        ],
    }]


def _chart_entry(node) -> dict:
    """The report entry of a stage-0 node."""
    chart = node.chart
    checks = {"xi": True}
    if node.coincides is not None:
        checks["coinc"] = node.coincides
    return {
        "name": chart.name,
        "vars": list(chart.ring.names),
        "weights": [list(row) for row in chart.weights.rows],
        "ideal_gb": rpt.gb_strings(node.gb),
        "unstable_gb": rpt.ideal_strings(node.unstable),
        "checks": checks,
    }


def cmd_blowup(args, built, budget) -> tuple[list, dict, int]:
    if args.full and built.model is None:
        raise PreconditionError(
            "--full requires a model with a section (potential or section file)"
        )
    # a trivial action has no charts, so any --chart is unknown; the
    # atlas is the model's, whose charts keep their nodes for later calls
    trivial = action_is_trivial(built.weights)
    atlas = () if trivial else built.atlas
    charts = [c for c in atlas if args.chart is None or c.name == args.chart]
    if args.chart is not None and not charts:
        raise ModelFileError(f"no chart named {args.chart!r}")
    ledger: dict = {}
    if trivial:
        ledger["dense"] = True
        ledger["stages"] = []
        return [], ledger, 0
    # coincidence is judged on the whole atlas, even under --chart
    judged = atlas if built.model is not None else charts
    nodes, first = blowup_tree(built.ideal, built.model, judged, budget, args.full)
    shown = [node for node in nodes if node.chart in charts]
    charts_out = [_chart_entry(node) for node in shown]
    ledger["u_hat_empty"] = all(contains_one(node.gb) for node in shown)
    if built.model is not None:
        ledger["coinc_all"] = all(node.coincides for node in nodes)
    if args.full:
        ledger["dense"] = False
        ledger["stages"] = _stages(first)
    return charts_out, ledger, 0


def cmd_crit(args, built, budget) -> tuple[list, dict, int]:
    if built.model is None:
        raise PreconditionError("crit requires a potential or section model")
    wm = built.weak_report
    ledger = {
        "factorization": wm.factorization,
        "composite_zero": wm.composite_zero,
        "fixed_projection": wm.fixed_projection,
        "passed": wm.passed,
        "witnesses": list(wm.witnesses),
    }
    if args.point is not None:
        point = _parse_point(args.point, built.ring.n)
        K = four_term_at(built.model, point)
        h = cohomology_dims(K)
        ledger["point"] = rpt.point_str(point)
        ledger["cohomology_dims"] = list(h)
        ledger["reduced_obstruction_dim"] = h[2]
    return [], ledger, 0


def cmd_semistable(args, built, budget) -> tuple[list, dict, int]:
    # the model's atlas, built once per model, holds the named chart and
    # the chart of every limit
    atlas = built.atlas
    if args.chart is None:
        if len(atlas) != 1:
            raise ModelFileError(
                "--chart is required when the atlas has several charts"
            )
        chart = atlas[0]
    else:
        chart = next((c for c in atlas if c.name == args.chart), None)
        if chart is None:
            raise ModelFileError(f"no chart named {args.chart!r}")
    if args.point is None:
        raise ModelFileError("--point is required")
    point = _parse_point(args.point, chart.ring.n)
    verdict = point_semistable(point, chart)
    ledger = {
        "chart": chart.name,
        "point": rpt.point_str(point),
        "semistable": verdict.semistable,
    }
    if not verdict.semistable:
        ledger["direction"] = list(verdict.direction)
        if verdict.limit is not None:
            ledger["limit"] = rpt.point_str(verdict.limit)
            ledger["limit_chart"] = verdict.chart
    return [], ledger, 0


def cmd_obstruction(args, built, budget) -> tuple[list, dict, int]:
    if built.model is None:
        raise PreconditionError("obstruction requires a potential or section model")
    n = built.ring.n
    if args.point is not None:
        point = _parse_point(args.point, n)
    elif built.source.basepoint is not None:
        point = built.source.basepoint
    else:
        raise ModelFileError("--point or a basepoint in the file is required")
    direction = (
        _parse_point(args.direction, n)
        if args.direction is not None
        else (0,) * n
    )
    ext = SmallExtension(
        args.ext_order, [(point[i], direction[i]) for i in range(n)]
    )
    data = lifting_data(built.model, ext)
    ob = obstruction_assignment(built.model, ext, data=data)
    lifted = find_lift(built.model, ext, data=data)
    if ob.liftable != (lifted is not None):
        raise TheoremCheckError(
            "obstruction verdict disagrees with the lift search"
        )
    ledger = {
        "point": rpt.point_str(point),
        "order": ext.m,
        "vector": [rpt.frac_str(x) for x in ob.vector],
        "coker_dim": ob.coker_dim,
        "liftable": ob.liftable,
    }
    return [], ledger, 0


def cmd_omega_verify(args, built, budget) -> tuple[list, dict, int]:
    if built.model is None or built.against is None:
        raise ModelFileError(
            "omega-verify needs a potential file with a comparison 'section'"
        )
    hint = parse_hint(built)
    rep = verify_omega_equivalence(
        built.model,
        built.against,
        hint=hint,
        basepoint=built.source.basepoint,
        budget=budget,
    )
    ledger = {
        "same_ideal": rep.same_ideal,
        "identity_forward": rep.identity_forward,
        "identity_backward": rep.identity_backward,
        "equivariant": rep.equivariant,
        "passed": rep.passed,
        "witnesses": list(rep.witnesses),
        "corrections": "zero",
    }
    return [], ledger, 0


def cmd_fiber_check(args, built, budget) -> tuple[list, dict, int]:
    if built.model is None:
        raise PreconditionError("fiber-check requires a potential or section model")
    try:
        c = canon(args.at)
    except (ValueError, ZeroDivisionError):
        raise ModelFileError(f"bad fiber value {args.at!r}") from None
    # the family's atlas with its nodes, and the fibers' atlas, are the
    # model's, kept for every base value; the fibers' atlas is read
    # first, so the base parameter's refusals come before the atlas's
    fiber_atlas = built.fiber_atlas
    results = fiber_charts_commute(
        built.model, c, built.atlas, fiber_atlas, budget
    )
    ledger = {
        "at": rpt.frac_str(c),
        "charts": {name: ok for name, ok in sorted(results.items())},
        "commutes": all(results.values()),
    }
    return [], ledger, 0


def cmd_independence(args, built, budget) -> tuple[list, dict, int]:
    aux = tuple(s.strip() for s in args.aux.split(",") if s.strip())
    if not aux:
        raise ModelFileError("--aux needs at least one variable name")
    for i, a in enumerate(aux):
        if a not in built.ring.index:
            raise ModelFileError(f"auxiliary variable {a!r} is not in the model")
        if a in aux[:i]:
            raise ModelFileError(f"auxiliary variable {a!r} is repeated")
    # eliminate the auxiliary coordinates to get the small ideal, then
    # check that its intrinsic chart ideals match the model's on the
    # model's atlas
    small = eliminate(built.ideal, aux, budget)
    independent = embedding_independence_check(
        small, built.ideal, built.atlas, aux, budget
    )
    return [], {"aux": list(aux), "independent": independent}, 0


# ---------------------------------------------------------------------------
# corpus runner: every bundled example as subcommand lines


# the files whose stage-0 charts the corpus report lists, each chart named
# after its file, with the coincidence check of each file with a section
_PIPELINE = ("e1.kb", "e2.kb", "conic.kb", "square.kb", "fat.kb")
# the rank-0 models of the obstruction spot checks, which have no file
_INLINE_MODELS = {
    "cubic": 'variables = [x]\nweights = []\npotential = "1/3*x^3"\n',
    "quadratic": 'variables = [x]\nweights = []\npotential = "1/2*x^2"\n',
}


def _holds(key, expected=True):
    """The verdict that a line's ledger holds ``expected`` at ``key``."""
    return lambda charts, ledger: ledger[key] == expected


_DIMS = "cohomology_dims"
_CHART_X = "semistable e2.kb --chart chart_x"
# the named checks past the pipeline's, in report order: (name, command
# line, verdict on the line's chart entries and ledger)
_CORPUS_CHECKS = (
    ("dense:trivial.kb", "blowup trivial.kb", _holds("dense")),
    ("fiber:family.kb:at=0", "fiber-check family.kb --at=0", _holds("commutes")),
    ("fiber:family.kb:at=1", "fiber-check family.kb --at=1", _holds("commutes")),
    ("fiber:family.kb:at=-2", "fiber-check family.kb --at=-2", _holds("commutes")),
    ("omega:square_pair.kb", "omega-verify square_pair.kb", _holds("passed")),
    ("independence:e1aux.kb", "independence e1aux.kb --aux u", _holds("independent")),
    ("independence:e2aux.kb", "independence e2aux.kb --aux u", _holds("independent")),
    # worked cohomology dimensions, frozen
    ("dims:square:(1,0)", "crit square.kb --point=1,0", _holds(_DIMS, [0, 0, 0, 0])),
    ("dims:square:origin", "crit square.kb --point=0,0", _holds(_DIMS, [1, 2, 2, 1])),
    ("dims:xyz:(1,0,0)", "crit e2.kb --point=1,0,0", _holds(_DIMS, [0, 0, 0, 0])),
    ("obstruction:cubic", "obstruction cubic --point=0 --direction=1", _holds("liftable", False)),
    ("obstruction:quadratic", "obstruction quadratic --point=0 --direction=0", _holds("liftable")),
    # the pipeline's line again, whose first chart is chart_x: it reads
    # the nodes that e2's charts kept from the pipeline's run
    ("unstable:e2:chart_x", "blowup e2.kb", lambda c, _: c[0]["unstable_gb"] == ["T_y"]),
    ("semistable:e2:(0,1,0)", f"{_CHART_X} --point=0,1,0", _holds("semistable")),
    ("unstable-point:e2:(1,0,0)", f"{_CHART_X} --point=1,0,0", _holds("semistable", False)),
    ("semistable:e2:(0,1,5)", f"{_CHART_X} --point=0,1,5", _holds("semistable")),
)


def cmd_corpus(args, built, budget) -> tuple[list, dict, int]:
    def run(line: str) -> tuple[list, dict]:
        parsed = _parse_words(line.split())
        text = _INLINE_MODELS.get(parsed.file)
        if text is None:
            text = read_text(str(CORPUS_DIR / parsed.file))
        command = _COMMANDS[parsed.command][0]
        return command(parsed, model_of_text(text), budget)[:2]

    charts_out: list[dict] = []
    checks: list[dict] = []
    for name in _PIPELINE:
        charts, ledger = run(f"blowup {name}")
        charts_out += [{**c, "name": f"{name}:{c['name']}"} for c in charts]
        if "coinc_all" in ledger:
            checks.append({"name": f"coinc:{name}", "passed": ledger["coinc_all"]})
    for name, line, verdict in _CORPUS_CHECKS:
        checks.append({"name": name, "passed": verdict(*run(line))})
    failed = [c["name"] for c in checks if not c["passed"]]
    return charts_out, {"checks": checks, "failed": failed}, 1 if failed else 0


# ---------------------------------------------------------------------------


class _Arg(Record):
    """One argument of a subcommand as ``add_argument`` declares it: its
    flag, or its name if it is positional (a positional is always
    required), and the ``dest`` argparse derives from that.  ``signed``
    marks an option whose value may start with a minus sign."""

    __slots__ = (
        "flag", "dest", "type", "default", "required", "store_true",
        "signed", "help", "metavar",
    )

    def __init__(self, flag, *, type=None, default=None, required=False,
                 store_true=False, signed=False, help=None, metavar=None):
        dest = flag.lstrip("-").replace("-", "_")
        super().__init__(flag, dest, type, default, required, store_true,
                         signed, help, metavar)


_FILE = _Arg("file")
_CHART = _Arg("--chart", metavar="NAME")
_POINT = _Arg("--point", signed=True, metavar="a,b,c")
_COMMON = (
    _Arg("--json", metavar="PATH", help="write the JSON report here"),
    _Arg("--budget", type=int, metavar="N",
         help="cap Groebner basis size and degree at N"),
)
# each subcommand's function, summary and arguments, declared once:
# ``main`` and ``cmd_corpus`` call the function, ``_scan`` reads the
# arguments, and ``_build_parser`` makes argparse's parser of them.  The
# function takes the parsed arguments, the built model (None for
# corpus) and the validated budget, and returns its report's chart
# entries, its ledger and the exit code
_COMMANDS = {
    "blowup": (cmd_blowup, "charts, intrinsic ideals, stability", (
        _FILE, _CHART,
        _Arg("--full", store_true=True, default=False, help="iterate to termination"),
        *_COMMON,
    )),
    "crit": (cmd_crit, "critical-locus model and its checks", (_FILE, _POINT, *_COMMON)),
    "semistable": (cmd_semistable, "judge one point of a blowup chart", (
        _FILE, _CHART, _POINT, *_COMMON,
    )),
    "obstruction": (cmd_obstruction, "obstruction class of a small extension", (
        _FILE, _POINT,
        _Arg("--direction", signed=True, metavar="a,b,c"),
        _Arg("--ext-order", type=int, default=2, metavar="m"),
        *_COMMON,
    )),
    "omega-verify": (cmd_omega_verify, "section equivalence report", (_FILE, *_COMMON)),
    "fiber-check": (cmd_fiber_check, "blowup commutes with the fiber", (
        _FILE, _Arg("--at", signed=True, default="0", metavar="c"), *_COMMON,
    )),
    "independence": (cmd_independence, "embedding independence of charts", (
        _FILE, _Arg("--aux", required=True, metavar="u,v"), *_COMMON,
    )),
    "corpus": (cmd_corpus, "run every bundled example", _COMMON),
}


def _build_parser():
    """The top-level argparse parser of ``_COMMANDS``, for the lines that
    ``_scan`` refuses; argparse is imported only then."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="equiblow",
        description=(
            "Exact toolkit for torus-equivariant Kirwan blowups of affine "
            "models: intrinsic ideals, stability, obstruction data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, arguments) in _COMMANDS.items():
        add = sub.add_parser(command, help=summary).add_argument
        for a in arguments:
            kwargs = {"default": a.default, "help": a.help}
            if a.flag.startswith("-"):
                kwargs["required"] = a.required
            if a.store_true:
                kwargs["action"] = "store_true"
            else:
                kwargs.update(type=a.type, metavar=a.metavar)
            add(a.flag, **kwargs)
    return parser


def _scan(words: list[str], arguments: tuple) -> SimpleNamespace | None:
    """The namespace of a well-formed command line, read in one pass over
    its command's ``arguments``, or None for any line that is not.

    Well formed: exact long flags, each at most once; a ``store_true``
    flag bare; any other flag as ``--flag=value`` or ``--flag value``
    with a value that does not start with '-' and that the flag's
    ``type`` accepts; every required flag; one word per positional
    argument.  Such a line means the same to argparse: a flag's value
    is converted by its ``type``, an absent argument takes its default.
    """
    values = {"command": words[0]}
    given = []
    i, n = 1, len(words)
    while i < n:
        word = words[i]
        i += 1
        if not word.startswith("-"):
            given.append(word)
            continue
        flag, eq, value = word.partition("=")
        for arg in arguments:  # an exact flag, not given before
            if arg.flag == flag and arg.dest not in values:
                break
        else:
            return None
        if arg.store_true:  # takes no value
            if eq:
                return None
            values[arg.dest] = True
            continue
        if not eq:
            if i == n or words[i].startswith("-"):
                return None
            value = words[i]
            i += 1
        if arg.type is not None:
            try:
                value = arg.type(value)
            except ValueError:
                return None
        values[arg.dest] = value
    positionals = [a.dest for a in arguments if not a.flag.startswith("-")]
    if len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    for a in arguments:
        if a.dest not in values:
            if a.required:
                return None
            values[a.dest] = a.default
    return SimpleNamespace(**values)


def _parse_words(words: list[str]) -> SimpleNamespace:
    """Parse a well-formed command line (see ``_scan``) by one scan of
    its command's arguments.  Every other line, and every line whose
    first word is no command, goes to argparse's parser, built for it
    from the same table, so usage, help and every error message are
    argparse's own."""
    command = _COMMANDS.get(words[0]) if words else None
    if command is not None:
        args = _scan(words, command[2])
        if args is not None:
            return args
    return _build_parser().parse_args(words)


_NEGATIVE = re.compile(r"-[0-9.]")


def main(argv=None) -> int:
    # argparse takes "-1,0,0" for a flag, so glue such a value to its
    # signed option, or to a unique prefix of one, as in "--poi -1,0,0"
    words: list[str] = []
    for word in sys.argv[1:] if argv is None else argv:
        if (
            words
            and _NEGATIVE.match(word)
            and len(words[-1]) > 2
            and any(
                a.signed and a.flag.startswith(words[-1])
                for *_, arguments in _COMMANDS.values()
                for a in arguments
            )
        ):
            words[-1] += "=" + word
        else:
            words.append(word)
    args = _parse_words(words)
    try:
        # the model file's errors come before the budget's
        if args.command == "corpus":
            name, built = "corpus", None
        else:
            name = os.path.basename(args.file)
            built = model_of_text(read_text(args.file))
        budget = _parse_budget(args)
        charts, ledger, code = _COMMANDS[args.command][0](args, built, budget)
    except (ModelFileError, PolyParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"precondition: {e}", file=sys.stderr)
        return 3
    except BudgetExceededError as e:
        print(f"budget: {e}", file=sys.stderr)
        return 4
    except TheoremCheckError as e:
        print(f"THEOREM CHECK FAILED: {e}", file=sys.stderr)
        return 5
    text = rpt.render(rpt.assemble(name, args.command, charts, ledger))
    if args.json:
        try:
            Path(args.json).write_text(text, encoding="utf-8")
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
