"""The operations of each workload, built from the seed.

A workload is a fixed list of `equiblow` command lines; one pass runs
each once.  The number of operations of each kind and model is fixed, so
every seed does the same mix of work and only the points, directions and
base values change.  Each workload holds at most one known-fault
operation, on inputs that do not depend on the seed.
"""

import random
from fractions import Fraction
from pathlib import Path

import gen

BENCH = "perfbench/models/"
CORPUS = "src/equiblow/corpus/"

SEMISTABLE_MODELS = [
    CORPUS + f
    for f in ("e1.kb", "e2.kb", "conic.kb", "square.kb", "family.kb",
              "fat.kb", "e1aux.kb", "e2aux.kb")
] + [BENCH + f for f in ("heavy.kb", "quiver3.kb", "conifold.kb")]
CRIT_MODELS = [
    CORPUS + f for f in ("e1.kb", "e2.kb", "conic.kb", "square.kb")
] + [BENCH + f for f in ("heavy.kb", "quiver3.kb", "conifold.kb")]
SEMISTABLE_PER_MODEL = 5
CRIT_PER_MODEL = 4
OBSTRUCTION_PER_MODEL = 4

CORPUS_FILES = (
    "conic.kb", "e1.kb", "e1aux.kb", "e2.kb", "e2aux.kb", "family.kb",
    "fat.kb", "square.kb", "square_pair.kb", "trivial.kb",
)
FULL_SMALL = ("e1.kb", "e2.kb", "conic.kb", "square.kb", "square_pair.kb", "family.kb")
FIBER_VALUES = 20

WORKLOADS = ("kirwan-tree", "point-queries", "chart-sweep")


class Op:
    """One CLI invocation: its argv, what the oracles need to check it,
    and whether it is a known-fault operation expected to exit 5."""

    __slots__ = ("argv", "kind", "model", "data", "known_fault")

    def __init__(self, argv, kind, model=None, data=None, known_fault=False):
        self.argv = list(argv)
        self.kind = kind
        self.model = model
        self.data = data or {}
        self.known_fault = known_fault

    @property
    def key(self):
        return " ".join(self.argv)


def _kirwan_tree():
    ops = [
        Op(["blowup", BENCH + m, "--full"], "blowup-full", BENCH + m)
        for m in ("heavy.kb", "quiver3.kb", "conifold.kb")
    ]
    ops.append(
        Op(["blowup", BENCH + "onesign.kb", "--full"], "blowup-full",
           BENCH + "onesign.kb", known_fault=True)
    )
    return ops


def _point_queries(rng, root):
    ops = []
    for path in SEMISTABLE_MODELS:
        model = gen.read_model(root / path)
        pivots = gen.moving(model)
        for i in range(SEMISTABLE_PER_MODEL):
            pivot = pivots[i % len(pivots)]
            p = gen.chart_point(rng, model)
            chart = "chart_" + model["variables"][pivot]
            ops.append(Op(
                ["semistable", path, "--chart", chart, "--point=" + gen.fmt(p)],
                "semistable", path, {"pivot": pivot, "point": p},
            ))
    for path in CRIT_MODELS:
        model = gen.read_model(root / path)
        for p in gen.critical_points(rng, model, CRIT_PER_MODEL):
            ops.append(Op(["crit", path, "--point=" + gen.fmt(p)], "crit", path,
                          {"point": p}))
        for p, d, m in gen.obstruction_triples(rng, model, OBSTRUCTION_PER_MODEL):
            ops.append(Op(
                ["obstruction", path, "--point=" + gen.fmt(p),
                 "--direction=" + gen.fmt(d), "--ext-order", str(m)],
                "obstruction", path, {"point": p, "direction": d, "order": m},
            ))
    ops.append(Op(
        ["semistable", BENCH + "rank2.kb", "--chart", "chart_x", "--point=0,0,0,0"],
        "semistable", BENCH + "rank2.kb",
        {"pivot": 0, "point": (Fraction(0),) * 4}, known_fault=True,
    ))
    return ops


def _chart_sweep(rng):
    ops = [Op(["corpus"], "corpus")]
    ops += [Op(["blowup", CORPUS + f], "blowup", CORPUS + f) for f in CORPUS_FILES]
    ops += [
        Op(["blowup", CORPUS + f, "--full"], "blowup-full", CORPUS + f)
        for f in FULL_SMALL
    ]
    ops += [
        Op(["fiber-check", CORPUS + "family.kb", "--at=" + str(c)], "fiber-check",
           CORPUS + "family.kb", {"at": c})
        for c in gen.fiber_values(rng, FIBER_VALUES)
    ]
    ops += [
        Op(["independence", CORPUS + f, "--aux", "u"], "independence", CORPUS + f)
        for f in ("e1aux.kb", "e2aux.kb")
    ]
    ops.append(Op(["omega-verify", CORPUS + "square_pair.kb"], "omega-verify",
                  CORPUS + "square_pair.kb"))
    return ops


def build(workload, seed, root):
    """Operations of one pass of `workload` for `seed`, in run order.
    Paths in the argv are relative to the checkout root `root`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "kirwan-tree":
        # Fixed models in a fixed order: which model runs first in the
        # process changes its cost, so the seed must not reorder them.
        return _kirwan_tree()
    if workload == "point-queries":
        ops = _point_queries(rng, Path(root))
    elif workload == "chart-sweep":
        ops = _chart_sweep(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def model_files(ops):
    """Distinct model files a list of operations reads."""
    return sorted({op.model for op in ops if op.model})
