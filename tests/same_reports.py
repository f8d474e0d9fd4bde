"""Byte-identity gate: the same command lines on two trees must give the
same exit code, stdout and stderr, line by line.

    python3 tests/same_reports.py PARENT_ROOT

The lines are every operation of every `perfbench` workload for seeds
1-3, then every line of the `tests/reach.py` sweep
(`reach.command_lines`), all taken from this tree.  Each tree runs them
in one child process of its own, with its `src` first on the path and
its root as the working directory: first in order, then in reverse, so
the second half reads the models, charts and nodes the first half kept.

Prints each line whose outcome differs, with its position and the two
exit codes, then a count; exits 1 if any line differs, else 0.
PARENT_ROOT is usually a `git archive` copy of the parent commit.
Standard library only; pytest does not collect this file (no `test_`
prefix).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import reach

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def command_lines(scratch: Path) -> list[list[str]]:
    """The workload lines of ``SEEDS``, then the reach sweep's lines,
    whose files are written into ``scratch``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = [
        op.argv
        for seed in SEEDS
        for name in workloads.WORKLOADS
        for op in workloads.build(name, seed, ROOT)
    ]
    return out + reach.command_lines(scratch)


def outcomes(root: Path, argvs) -> list:
    """(exit code, stdout, stderr) of each of ``argvs`` and then of each
    in reverse, run by the tree at ``root`` in one child process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(root)],
        input=json.dumps(argvs), stdout=subprocess.PIPE, text=True, env=env,
        check=True,
    )
    return json.loads(done.stdout)


def _child(root: str) -> None:
    os.chdir(root)
    sys.path.insert(0, str(Path(root) / "src"))
    from equiblow import cli

    argvs = json.load(sys.stdin)
    out = []
    for argv in argvs + argvs[::-1]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(argv))
            except SystemExit as stop:
                code = stop.code
        out.append((code, stdout.getvalue(), stderr.getvalue()))
    json.dump(out, sys.stdout)


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tests/same_reports.py PARENT_ROOT", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as scratch:
        argvs = command_lines(Path(scratch))
        mine, theirs = outcomes(ROOT, argvs), outcomes(parent, argvs)
    runs = [("in order", i, a) for i, a in enumerate(argvs)]
    runs += [("reversed", i, a) for i, a in enumerate(argvs[::-1])]
    differ = 0
    for (order, i, argv), new, old in zip(runs, mine, theirs):
        if new != old:
            differ += 1
            streams = [s for s, a, b in zip(("code", "stdout", "stderr"), new, old) if a != b]
            print(f"{order} #{i}: {' '.join(argv)}")
            print(f"  differs in {', '.join(streams)}: exit {old[0]} -> {new[0]}")
    print(f"{differ} of {len(runs)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2])
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
