"""Line-reach sweep: which statements of `equiblow` no command line reaches.

    python3 tests/reach.py

Runs, in one process under a `sys.settrace` line tracer:
- every operation of every `perfbench` workload for seeds 1 and 2;
- `blowup`, `blowup --full`, `blowup --full --budget 3`, `crit`,
  `omega-verify` and `fiber-check` on every corpus and bench model file,
  and on two section files written to a temporary directory, the second
  with its base parameter on the divisor;
- `blowup` on each malformed file of `ref.REFUSALS`, the table of
  refusals that `test_modelfile` and `test_cli` pin too, written next to
  it, each an exit 2;
- every subcommand once with `--budget 0`, on its line of
  `ref.EVERY_SUBCOMMAND`, which `test_cli` runs too;
- `blowup` on a model file that is not UTF-8, `blowup --json` into a
  directory that does not exist, and `independence` with a repeated
  auxiliary name, each an exit 2, `blowup` on a model file that
  opens with a byte-order mark, and `obstruction` at the largest
  extension order, whose lift is one order past it;
- three lines that `cli._scan`, the scan of the declared argument
  table `cli._COMMANDS`, refuses, so that `cli._parse_words` builds
  argparse's parser from that table: one with flag prefixes, one with a
  repeated flag, one with a value that starts with '-';
- five lines that argparse rejects, so `cli.main` raises `SystemExit`:
  a store_true flag given a value, a budget that is no integer, a
  missing required flag, a missing positional argument and an unknown
  command.  The sweep counts the exit code and goes on;
- a `fiber-check` line it ran before, and `blowup e2.kb --budget 1`
  after the unbudgeted `blowup e2.kb` (an exit 4), which read the nodes
  the model's stage-0 charts kept;
- last, its first line once more, which takes the model that
  `modelfile` kept from the first run.

The sweep runs 391 command lines, with exit codes
{0: 269, 2: 85, 3: 27, 4: 10}, and leaves 411 of 2666 statements
unreached.

Then, per module of `src/equiblow`, it prints the statements no run
reached (as line ranges) and the functions no run entered, then the
totals, and last the functions of `equiblow.__all__` that no run
entered.  Standard library only; pytest does not collect this file (no
`test_` prefix).

A statement is one `ast.stmt` node, docstrings and `global`/`nonlocal`
excepted.  A simple statement is reached when a line event fires on one
of its lines; a compound one (`if`, `for`, `def`, ...) when one fires on
its header lines or one of its direct children is reached.
"""

import ast
import contextlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

from ref import BASE_ON_DIVISOR, EVERY_SUBCOMMAND, REFUSALS, subcommand_line

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "equiblow"
SEEDS = (1, 2)
PER_FILE = (
    [],
    ["--full"],
    ["--full", "--budget", "3"],
)
# a section-plus-frame file, whose ideal is not its section's
SECTION_FILE = (
    'variables = [x, y]\nweights = [[1, -1]]\nideal = ["x^2*y^2 + 1"]\n'
    'section = ["y", "x"]\nframe_weights = [[1], [-1]]\n'
)
# well-formed lines take the table scan; for these argparse is built
ARGPARSE_LINES = (
    ["semistable", "src/equiblow/corpus/e2.kb", "--cha", "chart_x", "--poi", "-1,0,0"],
    ["crit", "src/equiblow/corpus/square.kb", "--point=1,0", "--point", "0,0"],
    ["obstruction", "src/equiblow/corpus/square.kb", "--budget", "-1"],
)
# lines the table scan refuses and argparse rejects
REJECTED_LINES = (
    ["blowup", "src/equiblow/corpus/e2.kb", "--full=x"],
    ["crit", "src/equiblow/corpus/e2.kb", "--budget", "x"],
    ["independence", "src/equiblow/corpus/e1aux.kb"],
    ["crit"],
    ["nope", "src/equiblow/corpus/e2.kb"],
)


def command_lines(scratch: Path) -> list[list[str]]:
    """The argv lists of the sweep, in run order, each distinct but a
    fiber-check that ran before and the last line, which repeats the
    first; the section files and the malformed
    files are written into the directory ``scratch``, where no report
    can be written into its subdirectory ``missing``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out, seen = [], set()

    def add(argv):
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            out.append(argv)

    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, seed, ROOT):
                add(op.argv)
    sections = [scratch / "section.kb", scratch / "base-on-divisor.kb"]
    for path, text in zip(sections, (SECTION_FILE, BASE_ON_DIVISOR)):
        path.write_text(text)
    files = sorted((PACKAGE / "corpus").glob("*.kb")) + sorted(
        (ROOT / "perfbench" / "models").glob("*.kb")
    )
    for rel in [str(path.relative_to(ROOT)) for path in files] + list(map(str, sections)):
        for extra in PER_FILE:
            add(["blowup", rel, *extra])
        for cmd in ("crit", "omega-verify", "fiber-check"):
            add([cmd, rel])
    for name, (text, _) in REFUSALS.items():
        bad = scratch / f"bad-{name}.kb"
        bad.write_text(text, encoding="utf-8")
        add(["blowup", str(bad)])
    not_utf_8 = scratch / "not-utf-8.kb"
    not_utf_8.write_bytes(b'variables = [x]\nweights = [[1]]\npotential = "x\xff"\n')
    add(["blowup", str(not_utf_8)])
    marked = scratch / "byte-order-mark.kb"
    marked.write_bytes(b"\xef\xbb\xbf" + (PACKAGE / "corpus" / "e2.kb").read_bytes())
    add(["blowup", str(marked)])
    add(["blowup", "src/equiblow/corpus/e2.kb", "--json", str(scratch / "missing" / "x.json")])
    add(["independence", "src/equiblow/corpus/e1aux.kb", "--aux", "u,u"])
    add(["obstruction", "src/equiblow/corpus/e2.kb", "--point=1,0,0",
         "--direction=1,0,0", "--ext-order", "6"])
    for command in EVERY_SUBCOMMAND:
        add([*subcommand_line(command, "src/equiblow/corpus"), "--budget", "0"])
    for argv in ARGPARSE_LINES + REJECTED_LINES:
        add(list(argv))
    # lines that read what the models of earlier lines kept
    fiber = ["fiber-check", "src/equiblow/corpus/family.kb", "--at=3"]
    add(fiber)
    out.append(fiber)
    add(["blowup", "src/equiblow/corpus/e2.kb", "--budget", "1"])
    out.append(out[0])
    return out


def _trace(hits: set, entered: set):
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        hits.add((code.co_filename, frame.f_lineno))
        return local

    return tracer


def _is_docstring(node) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _children(node):
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, field, ()) or ():
            if isinstance(child, (ast.ExceptHandler, getattr(ast, "match_case", ()))):
                yield from child.body
            elif isinstance(child, ast.stmt):
                yield child


def _header(node):
    """First and last line of a statement's own code."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    kids = list(_children(node))
    if not kids:
        return first, node.end_lineno
    return first, max(first, kids[0].lineno - 1)


def module_report(path: Path, lines: set, entered: set):
    """(statement count, unreached statement line numbers, names of
    functions never entered) of one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    total, missed = 0, []

    def reached(node) -> bool:
        nonlocal total
        kids = [k for k in _children(node) if _counted(k)]
        got = [reached(k) for k in kids]  # visit every child
        first, last = _header(node)
        hit = any(ln in lines for ln in range(first, last + 1))
        if kids and not hit:
            hit = any(got)
        total += 1
        if not hit:
            missed.append(node.lineno)
        return hit

    def _counted(node) -> bool:
        return not _is_docstring(node) and not isinstance(node, (ast.Global, ast.Nonlocal))

    for node in tree.body:
        if _counted(node):
            reached(node)
    never = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if first not in entered:
                never.append(f"{node.name} (line {node.lineno})")
    return total, sorted(missed), never


def _ranges(numbers):
    out, start, prev = [], None, None
    for n in numbers:
        if start is None:
            start = prev = n
        elif n == prev + 1:
            prev = n
        else:
            out.append(f"{start}" if start == prev else f"{start}-{prev}")
            start = prev = n
    if start is not None:
        out.append(f"{start}" if start == prev else f"{start}-{prev}")
    return ", ".join(out)


def main() -> int:
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as scratch:
        return _sweep(command_lines(Path(scratch)))


def _sweep(argvs) -> int:
    """Run every argv of ``argvs`` under the line tracer, then print the
    unreached statements."""
    hits: set = set()
    entered: set = set()
    sys.path.insert(0, str(SRC))
    sys.settrace(_trace(hits, entered))
    try:
        from equiblow import cli

        codes: dict = {}
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                try:
                    code = cli.main(argv)
                except SystemExit as stop:
                    code = stop.code
            codes[code] = codes.get(code, 0) + 1
    finally:
        sys.settrace(None)
    print(f"{len(argvs)} command lines, exit codes {dict(sorted(codes.items()))}")
    grand_total = grand_missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path)
        lines = {ln for f, ln in hits if f == name}
        firsts = {ln for f, ln in entered if f == name}
        total, missed, never = module_report(path, lines, firsts)
        grand_total += total
        grand_missed += len(missed)
        print(f"\n{path.name}: {len(missed)} of {total} statements unreached")
        if missed:
            print(f"  lines: {_ranges(missed)}")
        for fn in never:
            print(f"  never entered: {fn}")
    print(f"\ntotal: {grand_missed} of {grand_total} statements unreached")
    import equiblow

    unentered = []
    for name in equiblow.__all__:
        fn = getattr(equiblow, name)
        if inspect.isfunction(fn):
            code = fn.__code__
            if (code.co_filename, code.co_firstlineno) not in entered:
                unentered.append(name)
    print(f"exports never entered: {', '.join(unentered)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
