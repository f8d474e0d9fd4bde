"""Warm and cold pass times of the gated workloads, on one tree or two.

    python3 tests/cold.py [ROOT] [--passes N] [--against PARENT_ROOT] [--rounds R]

For `point-queries` and `chart-sweep` at seeds 1-3, the seed's workload
lines (`perfbench/workloads.build`, which it only reads, from this tree)
run in one child process of the tree at ROOT, by default this tree, with
its `src` first on the path and its root as the working directory, as
`tests/same_reports.py` runs them.  A pass calls `cli.main` once per
line, with stdout and stderr captured.  Two modes alternate, N passes
each (default 8):
- warm: `modelfile._built` is emptied before the pass, so a line reads
  what the pass's earlier lines kept, as in a benchmark pass;
- cold: `modelfile._built` is emptied before each line, which drops
  every kept model, chart and node, so each line pays what a one-shot
  `equiblow` call pays past start-up.

Prints the minimum pass time of each mode, in ms, per workload and seed.

With `--rounds R` (default 1) every workload and seed is measured R
times, and each cell is the minimum over the rounds: one round of a
few passes can fall wholly inside a burst of outside load.  With
`--against PARENT_ROOT` a round runs each workload and seed on both
trees in turn, and the tree that goes first alternates from round to
round; the table gains the second tree's warm and cold columns.
Standard library only; pytest does not collect this file (no `test_`
prefix).
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("point-queries", "chart-sweep")
SEEDS = (1, 2, 3)


def pass_times(root: Path, argvs, passes: int) -> dict:
    """The minimum warm and cold pass times, in seconds, of ``argvs`` run
    ``passes`` times in each mode by the tree at ``root``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(root), str(passes)],
        input=json.dumps(argvs), stdout=subprocess.PIPE, text=True, env=env,
        check=True,
    )
    return json.loads(done.stdout)


def _child(root: str, passes: int) -> None:
    os.chdir(root)
    sys.path.insert(0, str(Path(root) / "src"))
    from equiblow import cli, modelfile

    argvs = json.load(sys.stdin)
    sink = io.StringIO()

    def run_pass(cold: bool) -> float:
        modelfile._built.clear()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in argvs:
                if cold:
                    modelfile._built.clear()
                try:
                    cli.main(list(argv))
                except SystemExit:
                    pass
        elapsed = time.perf_counter() - start
        sink.seek(0)
        sink.truncate()
        return elapsed

    best = {"warm": float("inf"), "cold": float("inf")}
    for _ in range(passes):
        for mode in best:
            best[mode] = min(best[mode], run_pass(mode == "cold"))
    json.dump(best, sys.stdout)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="warm and cold pass times")
    parser.add_argument("root", nargs="?", default=str(HERE), help="tree to run")
    parser.add_argument("--passes", type=int, default=8, help="passes per mode")
    parser.add_argument(
        "--against", metavar="PARENT_ROOT", help="second tree, run in turn with ROOT"
    )
    parser.add_argument(
        "--rounds", type=int, default=1, help="rounds; each cell is their minimum"
    )
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be positive")
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    trees = [Path(args.root).resolve()]
    if args.against is not None:
        trees.append(Path(args.against).resolve())
    passes, rounds = args.passes, args.rounds
    sys.path.insert(0, str(HERE / "perfbench"))
    import workloads

    cells = [
        (name, seed, [op.argv for op in workloads.build(name, seed, HERE)])
        for name in WORKLOADS
        for seed in SEEDS
    ]
    best = {
        (name, seed, tree): {"warm": float("inf"), "cold": float("inf")}
        for name, seed, _ in cells
        for tree in trees
    }
    for r in range(rounds):
        order = trees if r % 2 == 0 else trees[::-1]
        for name, seed, argvs in cells:
            for tree in order:
                times = pass_times(tree, argvs, passes)
                cell = best[name, seed, tree]
                for mode in cell:
                    cell[mode] = min(cell[mode], times[mode])

    over = f" over {rounds} rounds" if rounds > 1 else ""
    if len(trees) == 1:
        print(f"tree: {trees[0]}, minimum of {passes} passes per mode{over}")
        print(f"{'workload':<14} {'seed':>4} {'lines':>5} {'warm ms':>8} {'cold ms':>8}")
    else:
        print(f"tree: {trees[0]}")
        print(f"against: {trees[1]}")
        print(f"minimum of {passes} passes per mode{over}, the first tree alternating")
        print(
            f"{'workload':<14} {'seed':>4} {'lines':>5} {'warm ms':>8} {'cold ms':>8}"
            f" {'vs warm':>8} {'vs cold':>8}"
        )
    for name, seed, argvs in cells:
        row = f"{name:<14} {seed:>4} {len(argvs):>5}"
        for tree in trees:
            cell = best[name, seed, tree]
            row += f" {cell['warm'] * 1e3:>8.2f} {cell['cold'] * 1e3:>8.2f}"
        print(row)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2], int(sys.argv[3]))
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
