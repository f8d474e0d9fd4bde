"""Benchmark for equiblow: the Kirwan tree, point queries and the chart sweep.

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --regen-digests

One run is one workload in this fresh interpreter, single-threaded.  It
times the interpreter set-up in child processes, then calls
`equiblow.cli.main(argv)` once per operation, with stdout captured, in
whole passes over the workload for about `--seconds`.  The package is
imported anew before each pass, so no state of it outlives a pass.
Set-up and operation times are scaled by probes of the machine's speed
(PROBE_REF_S, SETUP_PROBE_REF_S).  After
the timed region it checks every report with the oracles in
`oracles.py` (sympy, which only the benchmark imports).  The last line
of stdout is one JSON object: `correct`, `attempted`, `failed` and the
end-to-end metrics, or with `--trace 1` the per-layer metrics of a
traced run.  See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference_digests.json"
REFERENCE_SEED = 1
# Interpreter set-ups timed before and after the timed region; machine
# load comes in bursts of seconds, so the two groups rarely share one.
SETUP_REPS = 5
# Each operation's time is its fastest of the run's passes: load from
# outside only ever adds time, so the minimum over two or more passes
# filters it out where a median over passes does not.  Every pass starts
# from a fresh import, so a pass cannot hit what an earlier one cached.
MIN_PASSES = 2
# The machine's speed drifts in phases of minutes, which slow every
# operation of a run alike and which no statistic inside a run removes.
# A fixed probe measures that speed, and timings are scaled by
# PROBE_REF_S, the fastest time of one probe round on the reference
# machine, over the run's fastest time per round.  An operation's
# fastest call needs a fast stretch of the machine as long as the call,
# so a probe call lasts about as long as the median operation: the
# power of two of rounds nearest to it, set after the first pass.  The
# probe is called PROBE_REPS times before every operation that starts
# PROBE_EVERY_S or more after the last probe, and after the last pass.
# A fastest call is only steady over many calls, so a run that cannot
# make SCALE_MIN_PASSES passes (operations of seconds) is not scaled.
PROBE_REPS = 3
PROBE_EVERY_S = 0.25
PROBE_REF_S = 0.46e-3
SCALE_MIN_PASSES = 10
# Candidate tail percentiles, highest first; a workload reports the
# highest one with at least ten operations of one pass beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# After `ready`, the set-up child times one probe call of about its own
# set-up's length, and each set-up is scaled by SETUP_PROBE_REF_S, that
# call's time per round on the reference machine, over the child's: so
# by the speed of the CPU the child ran on, at that moment, for the two
# cores are loaded apart.
SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import equiblow.cli; "
    "from equiblow.modelfile import build_model, load_model_file; "
    "[build_model(load_model_file(f)) for f in sys.argv[3:]]; "
    "print('ready', flush=True); "
    "sys.path.insert(0, sys.argv[2]); from run import probe_s, SETUP_PROBE_ROUNDS; "
    "print(probe_s(SETUP_PROBE_ROUNDS))"
)
SETUP_PROBE_ROUNDS = 256
SETUP_PROBE_REF_S = 0.8e-3


def tail_percentile(ops_per_pass):
    """The op_tail_ms percentile of a workload.  Below 40 operations per
    pass no percentile is a tail, and the median stands in for it."""
    for p in TAIL_PERCENTILES:
        if ops_per_pass * (100 - p) / 100 >= 10:
            return p
    return 50.0


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def measure_setup(files):
    """Seconds from starting a fresh interpreter until it has imported
    `equiblow.cli` and parsed the workload's model files, SETUP_REPS
    times: (unscaled seconds, the child's probe seconds per round)."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), *files],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            out, err = child.communicate()
        if line.strip() != "ready" or child.returncode != 0:
            raise SystemExit(f"set-up child failed ({child.returncode}): {err.strip()}")
        times.append((t1 - t0, float(out)))
    return times


def run_op(cli, argv):
    """One `cli.main(argv)` call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc(file=err)
            code = -1
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def probe_s(rounds):
    """Seconds per round of one call of the probe, `rounds` rounds of a
    fixed loop of Fraction and dict arithmetic, the kind of work
    equiblow does."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        acc, seen = Fraction(0), {}
        for i in range(1, 120):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
            seen[(i, i % 5)] = acc
    return (time.perf_counter() - t0) / rounds


def digest(code, text):
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


class Runs:
    """Outputs and timings of the passes of one run."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)  # (code, stdout, stderr, digest)
        self.best = [float("inf")] * len(ops)  # fastest time of each op
        self.unsteady = set()  # ops whose report changed between passes
        self.failed = 0
        self.probe = float("inf")  # fastest probe_s() of the run
        self.probe_rounds = None  # rounds per probe call; None: no probe
        self.probed_at = -math.inf

    def passes(self, seconds, min_passes=1, tracer=None):
        """At least `min_passes` whole passes, and another only while the
        median pass still fits in `seconds`, so a run's length stays near
        `seconds` whatever a pass costs.  Each pass runs on a fresh import
        of the package, traced by `tracer` if one is given.  Returns the
        pass times."""
        passes = []
        start = time.perf_counter()
        while len(passes) < min_passes or (
            time.perf_counter() - start + statistics.median(passes) <= seconds
        ):
            cli = fresh_cli()
            if tracer is not None:
                tracer.install()
            try:
                t0, probing = time.perf_counter(), 0.0
                for i, op in enumerate(self.ops):
                    if self.probe_rounds and time.perf_counter() - self.probed_at >= PROBE_EVERY_S:
                        probing += self.measure_probe()
                    t, code, out, err = run_op(cli, op.argv)
                    self.best[i] = min(self.best[i], t)
                    d = digest(code, out)
                    if self.first[i] is None:
                        self.first[i] = (code, out, err, d)
                    elif self.first[i][3] != d:
                        self.unsteady.add(i)
                    if code != 0:
                        self.failed += 1
                passes.append(time.perf_counter() - t0 - probing)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if (self.probe_rounds is None and len(passes) == 1
                    and passes[0] * SCALE_MIN_PASSES <= seconds):
                # self.best holds the first pass's times here
                op_rounds = statistics.median(self.best) / min(probe_s(1) for _ in range(20))
                self.probe_rounds = 2 ** max(0, round(math.log2(op_rounds)))
        if self.probe_rounds:
            self.measure_probe()
        return passes

    def measure_probe(self):
        """Time the probe; returns the seconds it took."""
        t0 = time.perf_counter()
        self.probe = min(self.probe, *(probe_s(self.probe_rounds) for _ in range(PROBE_REPS)))
        self.probed_at = time.perf_counter()
        return self.probed_at - t0


def fresh_cli():
    """`equiblow.cli`, imported anew: every `equiblow` module is dropped
    from `sys.modules` first, so no cache of the package survives from
    an earlier import, as none survives between two CLI processes."""
    for name in [n for n in sys.modules if n == "equiblow" or n.startswith("equiblow.")]:
        del sys.modules[name]
    gc.collect()  # the dropped modules are cycles; free them before the pass
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    from equiblow import cli

    if Path(cli.__file__).resolve().parent != SRC / "equiblow":
        raise SystemExit(f"equiblow imported from {cli.__file__}, not from {SRC}")
    return cli


def layer_metrics(tracer, traced, untraced):
    """Per-layer metrics, per pass, of the traced passes."""
    n = len(traced)
    s = tracer.summary()
    calls, self_s, layer = s["calls"], s["self_s"], s["layer_self_s"]
    gb_calls = calls.get("groebner.buchberger", 0)
    m = {
        "groebner.buchberger.self_s": (self_s.get("groebner.buchberger", 0.0) / n, "s"),
        "groebner.buchberger.calls": (gb_calls / n, "count"),
        # every pass repeats the same inputs, so distinct inputs are per pass
        "groebner.buchberger.distinct_ratio": (
            len(tracer.buchberger_inputs) * n / gb_calls if gb_calls else 1.0, "ratio"),
    }
    for name in ("groebner.saturate", "groebner.in_radical", "torus.support_is_realized",
                 "torus.orbit_is_closed", "torus.closed_orbit_stabilizers",
                 "linalg.lp_feasible", "blowup.intrinsic_ideal",
                 "stability.point_semistable", "dcrit.four_term_at"):
        m[name + ".calls"] = (calls.get(name, 0) / n, "count")
    for name, value in layer.items():
        m[name + ".self_s"] = (value / n, "s")
    m["poly.polys_built"] = (tracer.polys_built / n, "count")
    # the layers' self times sum to the time inside cli.main; the rest of
    # a pass is the harness's own
    traced_pass = statistics.fmean(traced)
    m["bench.self_s"] = (traced_pass - sum(layer.values()) / n, "s")
    m["trace.pass_s"] = (traced_pass, "s")
    m["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return m


def regen_digests():
    """Rewrite reference_digests.json from one pass of every workload on
    the reference seed."""
    os.chdir(ROOT)
    ref = {}
    for workload in workloads.WORKLOADS:
        cli = fresh_cli()
        for op in workloads.build(workload, REFERENCE_SEED, ROOT):
            if op.key not in ref:
                _, code, out, _ = run_op(cli, op.argv)
                ref[op.key] = digest(code, out)
    REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(ref)} digests to {REFERENCE.relative_to(ROOT)}")


def report_digests(runs):
    """Print each operation's report digest and fastest time, and list
    the digests that differ from the reference.  A changed digest is for
    review; the oracles decide correctness."""
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    changed = 0
    for op, (code, _, _, d), best in zip(runs.ops, runs.first, runs.best):
        old = ref.get(op.key)
        mark = "" if old is None or old == d else "  CHANGED"
        changed += bool(mark)
        print(f"digest {d} exit={code} best={1000 * best:.3f}ms {op.key}{mark}")
    known = sum(op.key in ref for op in runs.ops)
    print(f"digests: {known} of {len(runs.ops)} operations have a reference, {changed} changed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-digests", action="store_true",
                    help="rewrite the reference digests and exit")
    args = ap.parse_args()
    if not (SRC / "equiblow" / "cli.py").is_file():
        raise SystemExit(f"no equiblow sources under {SRC}")
    os.environ.pop("EQUIBLOW_BUDGET", None)
    if args.regen_digests:
        return regen_digests()
    if args.workload is None:
        ap.error("--workload is required")
    os.chdir(ROOT)

    ops = workloads.build(args.workload, args.seed, ROOT)
    files = [str(ROOT / f) for f in workloads.model_files(ops)]
    if args.workload == "chart-sweep":  # `corpus` reads every bundled model
        files = sorted(set(files) | {str(p) for p in (SRC / "equiblow" / "corpus").glob("*.kb")})
    setup_times = measure_setup(files)

    runs = Runs(ops)
    if args.trace:
        import layertrace

        untraced = runs.passes(args.seconds / 2)
        tracer = layertrace.Tracer()
        traced = runs.passes(args.seconds / 2, tracer=tracer)
        n_passes = len(untraced) + len(traced)
    else:
        n_passes = len(runs.passes(args.seconds, MIN_PASSES))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times += measure_setup(files)
    setup_s = statistics.median(t * SETUP_PROBE_REF_S / probe for t, probe in setup_times)
    print(f"set-up: unscaled median {statistics.median(t for t, _ in setup_times):.6g} s")

    import oracles  # sympy is imported here, after the memory reading

    problems = []
    for i in sorted(runs.unsteady):
        problems.append(f"{ops[i].key}: report changed between passes")
    checked = set()
    for op, (code, out, err, _) in zip(ops, runs.first):
        if op.key not in checked:
            checked.add(op.key)
            problems += [f"{op.key}: {p}" for p in oracles.check_outcome(op, code, out, err)]
    mutant_problems, mutated = oracles.self_test(ops, runs.first)
    problems += mutant_problems
    print(f"oracle self-test: mutants of {', '.join(mutated)} reports "
          f"{'rejected' if not mutant_problems else 'NOT all rejected'}")

    report_digests(runs)
    for line in problems:
        print("ORACLE:", line)

    attempted = len(ops) * n_passes
    if args.trace:
        metrics = layer_metrics(tracer, traced, untraced)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    else:
        p = tail_percentile(len(ops))
        scale = PROBE_REF_S / runs.probe if runs.probe_rounds else 1.0
        best = [scale * t for t in runs.best]
        print(f"probe: {runs.probe_rounds} rounds a call, fastest {1000 * runs.probe:.5f} ms "
              f"a round, times scaled by {scale:.4f}; unscaled pass {sum(runs.best):.6g} s")
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (sum(best), "s"),
            "op_p50_ms": (1000 * statistics.median(best), "ms"),
            "op_tail_ms": (1000 * (statistics.median(best) if p == 50 else
                                   percentile(best, p)), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"op_tail_ms is p{p:g} over the {len(ops)} operations of a pass")
    print(f"passes: {n_passes}, attempted: {attempted}, failed: {runs.failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": runs.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
