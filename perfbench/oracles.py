"""Independent checks of every report the benchmark times.

Nothing here imports equiblow.  Model files are read by `gen.py`'s own
reader; bases are recomputed with sympy's Groebner engine; stability,
cohomology and liftability come from first principles.  `check(op,
report)` returns a list of problems, empty when the report is right.
`self_test` feeds the checks reports with one basis element dropped or
one verdict flipped and expects each to be rejected.

Conventions of the program that the checks rely on, all from the model
file format and its documentation: the chart of pivot x_k renames x_k to
xi_k and every other moving x_i to T_i (x_i = xi_k*T_i), keeps fixed
coordinates, and orders chart variables as the parent's; chart weights
are w_k for xi_k and w_i - w_k for T_i; bases are reduced degrevlex
bases in chart-variable order.
"""

import functools
import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import sympy

import gen

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# polynomials


def grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def monic_key(p):
    """Canonical, hashable form of a dict polynomial made monic."""
    if not p:
        return frozenset()
    lc = p[max(p, key=grevlex_key)]
    return frozenset((m, c / lc) for m, c in p.items())


def to_sympy(p, syms):
    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.items()},
        *syms, domain=sympy.QQ,
    )


def from_sympy(poly):
    return {
        tuple(m): Fraction(int(c.p), int(c.q)) for m, c in poly.as_dict().items()
    }


@functools.lru_cache(maxsize=None)
def _sympy_basis(names, gens):
    """Reduced grevlex basis (monic keys) of generators given as sorted
    term tuples, in variable order `names`."""
    syms = sympy.symbols(names)
    polys = [to_sympy(dict(g), syms) for g in gens if g]
    if not polys:
        return frozenset()
    G = sympy.groebner(polys, *syms, order="grevlex", domain=sympy.QQ)
    return frozenset(monic_key(from_sympy(p)) for p in G.polys)


def reduced_basis(names, polys):
    return _sympy_basis(
        tuple(names), tuple(sorted(tuple(sorted(p.items())) for p in polys if p))
    )


def parse_all(strings, names):
    return [gen.parse(s, names) for s in strings]


def basis_problems(strings, names, expected=None):
    """The reported basis must equal `expected` (monic keys) when given,
    and in any case be a reduced basis of itself."""
    got = parse_all(strings, names)
    keys = frozenset(monic_key(p) for p in got)
    problems = []
    if len(keys) != len(strings) or any(monic_key(p) != frozenset(p.items()) for p in got):
        problems.append("basis elements are not distinct and monic")
    if expected is not None:
        if keys != expected:
            problems.append(
                f"basis differs from the recomputed one ({len(strings)} vs "
                f"{len(expected)} elements)"
            )
    elif reduced_basis(names, got) != keys:
        problems.append("basis is not a reduced Groebner basis of itself")
    return problems


# ---------------------------------------------------------------------------
# charts


class Chart:
    """A blowup chart built from its parent's names and weights."""

    def __init__(self, names, weights, cochar, pivot_name):
        k = len(weights)
        cols = [tuple(weights[a][i] for a in range(k)) for i in range(len(names))]
        self.fiber = [
            tuple(sum(r[a] * col[a] for a in range(k)) for r in cochar) for col in cols
        ]
        self.moving = [i for i, f in enumerate(self.fiber) if any(f)]
        self.pivot = names.index(pivot_name)
        p = self.pivot
        self.parent_names = list(names)
        self.names = [
            ("xi_" if i == p else "T_" if i in self.moving else "") + nm
            for i, nm in enumerate(names)
        ]
        new_cols = [
            col if i == p or i not in self.moving
            else tuple(a - b for a, b in zip(col, cols[p]))
            for i, col in enumerate(cols)
        ]
        self.weights = [[c[a] for c in new_cols] for a in range(k)]

    def transform(self, piece, moving_piece):
        """Pull a weight-homogeneous piece back; divide a moving one by xi."""
        out = {}
        for m, c in piece.items():
            e = list(m)
            e[self.pivot] = sum(m[i] for i in self.moving)
            if moving_piece:
                e[self.pivot] -= 1
                if e[self.pivot] < 0:
                    raise AssertionError("moving piece not divisible by xi")
            out[tuple(e)] = c
        return out

    def hull_unstable(self, support):
        """Rank one: unstable iff the support's fiber weights share a sign."""
        signs = {self.fiber[i][0] > 0 for i in support}
        return len(signs) == 1


def chart_ideal(model, chart):
    """Generators of the stage-0 chart ideal: split each generator by
    weight, pull back, divide the moving pieces by xi."""
    W = model["weights"]
    out = []
    for g in model["generators"]:
        pieces = {}
        for m, c in g.items():
            w = tuple(sum(row[i] * m[i] for i in range(len(m))) for row in W)
            pieces.setdefault(w, {})[m] = c
        for w, piece in sorted(pieces.items()):
            out.append(chart.transform(piece, any(w)))
    return out


@functools.lru_cache(maxsize=None)
def stage0_basis(path, pivot_name):
    model = gen.read_model(ROOT / path)
    chart = Chart(model["variables"], model["weights"], [[1]], pivot_name)
    return reduced_basis(chart.names, chart_ideal(model, chart))


def unstable_problems(strings, chart):
    """On a grid of exceptional-fiber points, the reported unstable ideal
    must vanish exactly where the hull rule says unstable."""
    polys = parse_all(strings, chart.names)
    n = len(chart.names)
    others = [i for i in range(n) if i != chart.pivot]
    values = [((0, 1, -2) if i in chart.moving else (0, 1)) for i in others]
    for combo in product(*values):
        point = [Fraction(0)] * n
        for i, v in zip(others, combo):
            point[i] = Fraction(v)
        support = [chart.pivot] + [i for i in chart.moving if point[i] != 0]
        vanishes = all(gen.evaluate(p, point) == 0 for p in polys)
        if vanishes != chart.hull_unstable(support):
            return [f"unstable_gb {strings} wrong at exceptional point {point}"]
    return []


def chart_entry_problems(entry, path, chart):
    problems = []
    if entry["vars"] != chart.names or entry["weights"] != chart.weights:
        problems.append(f"{entry['name']}: chart variables or weights differ")
    pivot_name = chart.parent_names[chart.pivot]
    expected = stage0_basis(path, pivot_name)
    problems += [f"{entry['name']}: {p}" for p in
                 basis_problems(entry["ideal_gb"], chart.names, expected)]
    if entry.get("unstable_gb") is not None:
        problems += unstable_problems(entry["unstable_gb"], chart)
    if not all(entry.get("checks", {}).values()):
        problems.append(f"{entry['name']}: a chart check is false")
    return problems


def model_charts(path):
    model = gen.read_model(ROOT / path)
    names, W = model["variables"], model["weights"]
    return model, [
        Chart(names, W, [[1]], names[i]) for i in gen.moving(model)
    ] if any(any(row) for row in W) else []


# ---------------------------------------------------------------------------
# per-command checks


def check_blowup(op, rep):
    model, charts = model_charts(op.model)
    ledger = rep["ledger"]
    if not charts:
        return [] if ledger.get("dense") and not rep["charts"] else ["trivial action not reported dense"]
    problems = []
    by_name = {e["name"]: e for e in rep["charts"]}
    if sorted(by_name) != sorted("chart_" + c.parent_names[c.pivot] for c in charts):
        return [f"chart names {sorted(by_name)} differ"]
    for chart in charts:
        entry = by_name["chart_" + chart.parent_names[chart.pivot]]
        problems += chart_entry_problems(entry, op.model, chart)
    if ledger.get("coinc_all") is False:
        problems.append("coinc_all is false")
    if "--full" in op.argv:
        problems += tree_problems(ledger, model, op.model)
    return problems


def tree_problems(ledger, model, path):
    if ledger.get("dense"):
        return ["a nontrivial action reported dense"]
    problems = []

    def walk(stages, names, weights, depth):
        for stage in stages:
            for co in stage["charts"]:
                pivot_name = co["name"][len("chart_"):]
                chart = Chart(names, weights, stage["center"], pivot_name)
                expected = stage0_basis(path, pivot_name) if depth == 0 else None
                problems.extend(
                    f"stage {depth} {co['name']}: {p}"
                    for p in basis_problems(co["ideal_gb"], chart.names, expected)
                )
                if co["unstable_gb"] is not None:
                    problems.extend(unstable_problems(co["unstable_gb"], chart))
                walk(co["substages"], chart.names, chart.weights, depth + 1)

    walk(ledger["stages"], model["variables"], model["weights"], 0)
    return problems


def semistable_truth(model, pivot, point):
    """(semistable, direction, {chart name: limit}) by the Hilbert-Mumford
    test over the two one-parameter subgroups of a rank-one torus.

    The point's fiber direction in the blowup has coordinate 1 at the
    pivot and T_i at the other moving coordinates.  Under t -> t^lam the
    coordinate i scales by t^(lam*w_i); a limit destabilizes exactly when
    every nonzero coordinate has positive pairing, and the limit keeps
    the coordinates of least pairing.
    """
    (w,) = model["weights"]
    names = model["variables"]
    mov = [i for i in range(len(w)) if w[i]]
    v = {i: (Fraction(1) if i == pivot else point[i]) for i in mov}
    support = [i for i in mov if v[i] != 0]
    for lam in (1, -1):
        if all(lam * w[i] > 0 for i in support):
            low = min(lam * w[i] for i in support)
            keep = [i for i in support if lam * w[i] == low]
            limits = {}
            for c in keep:
                lim = []
                for i in range(len(w)):
                    if i == c:
                        lim.append(Fraction(0))
                    elif i in mov:
                        lim.append(v[i] / v[c] if i in keep else Fraction(0))
                    else:
                        lim.append(point[i])
                limits["chart_" + names[c]] = lim
            return False, [lam], limits
    return True, None, {}


def check_semistable(op, rep):
    model = gen.read_model(ROOT / op.model)
    pivot, point = op.data["pivot"], op.data["point"]
    led = rep["ledger"]
    if len(model["weights"]) == 1:
        ok, direction, limits = semistable_truth(model, pivot, point)
    else:
        # The rank-2 repro: a fiber point supported on the pivot alone is
        # torus-fixed and unstable, its own limit under any direction that
        # pairs positively with the pivot's weight.
        ok, limits = False, {"chart_" + model["variables"][pivot]: list(point)}
        d = led.get("direction", ())
        pairing = sum(a * row[pivot] for a, row in zip(d, model["weights"]))
        direction = d if pairing > 0 else None
    problems = []
    if led["point"] != gen.fmt(point) or led["chart"] != "chart_" + model["variables"][pivot]:
        problems.append("point or chart echoed wrong")
    if led["semistable"] != ok:
        problems.append(f"verdict {led['semistable']}, Hilbert-Mumford says {ok}")
    elif not ok:
        if led.get("direction") != direction:
            problems.append(f"direction {led.get('direction')}, expected {direction}")
        chart = led.get("limit_chart")
        got = [Fraction(x) for x in led["limit"].split(",")] if "limit" in led else None
        if chart not in limits or got != limits[chart]:
            problems.append(f"limit {led.get('limit')} on {chart} is not the t->0 limit")
    return problems


@functools.lru_cache(maxsize=None)
def _potential(path):
    model = gen.read_model(ROOT / path)
    syms = sympy.symbols(model["variables"])
    f = to_sympy(model["potential"], syms).as_expr()
    return model, syms, sympy.hessian(f, syms)


def _q(x):
    return sympy.Rational(x.numerator, x.denominator)


def _at(expr, syms, point):
    return expr.subs({s: _q(x) for s, x in zip(syms, point)})


def check_crit(op, rep):
    model, syms, H = _potential(op.model)
    point = op.data["point"]
    W = model["weights"]
    n, k = len(syms), len(W)
    rH = _at(H, syms, point).rank()
    M0 = sympy.Matrix(n, k, lambda i, a: W[a][i] * _q(point[i]))
    rM, rMt = (M0.rank(), M0.T.rank()) if k else (0, 0)
    dims = [k - rM, n - rH - rM, n - rH - rMt, k - rMt]
    led = rep["ledger"]
    problems = []
    if led.get("cohomology_dims") != dims:
        problems.append(f"cohomology_dims {led.get('cohomology_dims')}, expected {dims}")
    if led.get("reduced_obstruction_dim") != dims[2]:
        problems.append("reduced_obstruction_dim is not h2")
    if not (led["passed"] and led["factorization"] and led["composite_zero"]
            and led["fixed_projection"]) or led["witnesses"]:
        problems.append("weak-local-model checks did not all pass")
    if led.get("point") != gen.fmt(point):
        problems.append("point echoed wrong")
    return problems


def check_obstruction(op, rep):
    model, syms, H = _potential(op.model)
    p, d, m = op.data["point"], op.data["direction"], op.data["order"]
    # t^0..t^m of each partial derivative of the potential along p + t*d
    series = [
        gen.along_line(gen.derivative(model["potential"], i), p, d, m)
        for i in range(len(syms))
    ]
    if any(any(s[:m]) for s in series):
        return ["generated input does not land in the locus (generator fault)"]
    top = sympy.Matrix([_q(s[m]) for s in series])
    Hp = _at(H, syms, p)
    rH = Hp.rank()
    liftable = Hp.row_join(-top).rank() == rH
    problems = []
    led = rep["ledger"]
    if led["liftable"] != liftable:
        problems.append(f"liftable {led['liftable']}, solving H*delta = -top says {liftable}")
    if led["coker_dim"] != len(syms) - rH:
        problems.append(f"coker_dim {led['coker_dim']}, expected {len(syms) - rH}")
    if len(led["vector"]) != led["coker_dim"] or (
        all(Fraction(x) == 0 for x in led["vector"]) != led["liftable"]
    ):
        problems.append("obstruction vector disagrees with the verdict")
    if led["order"] != m or led["point"] != gen.fmt(p):
        problems.append("order or point echoed wrong")
    return problems


def check_corpus(op, rep):
    led = rep["ledger"]
    problems = []
    if led["failed"] or not all(c["passed"] for c in led["checks"]):
        problems.append(f"corpus checks failed: {led['failed']}")
    charts = {}
    for entry in rep["charts"]:
        fname, cname = entry["name"].split(":")
        path = "src/equiblow/corpus/" + fname
        if path not in charts:
            charts[path] = {"chart_" + c.parent_names[c.pivot]: c for c in model_charts(path)[1]}
        problems += chart_entry_problems(dict(entry, name=cname), path, charts[path][cname])
    return problems


def check_fiber(op, rep):
    led = rep["ledger"]
    problems = []
    if led["at"] != str(op.data["at"]):
        problems.append("base value echoed wrong")
    if not led["commutes"] or not led["charts"] or not all(led["charts"].values()):
        problems.append("blowup does not commute with the fiber")
    return problems


def check_flags(keys):
    def check(op, rep):
        led = rep["ledger"]
        bad = [k for k in keys if led.get(k) is not True]
        return [f"{', '.join(bad)} not true"] if bad else []

    return check


CHECKS = {
    "blowup": check_blowup,
    "blowup-full": check_blowup,
    "semistable": check_semistable,
    "crit": check_crit,
    "obstruction": check_obstruction,
    "corpus": check_corpus,
    "fiber-check": check_fiber,
    "independence": check_flags(("independent",)),
    "omega-verify": check_flags(("passed", "same_ideal", "identity_forward",
                                 "identity_backward", "equivariant")),
}


def check(op, report):
    if report.get("command") != op.argv[0]:
        return [f"report is for command {report.get('command')!r}"]
    return CHECKS[op.kind](op, report)


# Exit code of `cli.main` on a failed theorem check, which each
# known-fault operation gives until its fault is mended.
THEOREM_CHECK_EXIT = 5


def check_outcome(op, code, out, err):
    """Problems with the exit code of one operation, and with its report
    if it printed one.  A known-fault operation must exit with
    THEOREM_CHECK_EXIT, or exit 0 with a correct report once its fault
    is mended; every other operation must exit 0.  A report printed with
    a non-zero exit, as `corpus` prints one when a check fails, is
    checked too."""
    if op.known_fault and code == THEOREM_CHECK_EXIT:
        return []
    problems = [f"exit {code}: {err.strip()[-300:]}"] if code != 0 else []
    try:
        report = json.loads(out)
    except ValueError:
        return problems or ["exit 0 without a JSON report"]
    return problems + check(op, report)


# ---------------------------------------------------------------------------
# mutants


def _drop_basis_element(rep):
    for entry in rep["charts"]:
        if entry.get("ideal_gb"):
            entry["ideal_gb"].pop()
            return True
    return False


def _flip(path):
    def mutate(rep):
        node = rep
        for key in path[:-1]:
            node = node[key]
        if path[-1] not in node:
            return False
        value = node[path[-1]]
        node[path[-1]] = (not value) if isinstance(value, bool) else (
            [value[0] + 1] + value[1:] if isinstance(value, list) and value else ["x"])
        return True

    return mutate


MUTANTS = {
    "blowup": _drop_basis_element,
    "blowup-full": _drop_basis_element,
    "corpus": _drop_basis_element,
    "semistable": _flip(("ledger", "semistable")),
    "crit": _flip(("ledger", "cohomology_dims")),
    "obstruction": _flip(("ledger", "liftable")),
    "fiber-check": _flip(("ledger", "commutes")),
    "independence": _flip(("ledger", "independent")),
    "omega-verify": _flip(("ledger", "passed")),
}


def self_test(ops, outputs):
    """For the smallest passing report of each kind, a mutant (one basis
    element dropped, or one verdict flipped) must be rejected.  Returns
    the problems and the kinds tested."""
    passing = sorted(
        ((len(out), i) for i, (code, out, _, _) in enumerate(outputs) if code == 0)
    )
    problems, tested = [], set()
    for _, i in passing:
        op = ops[i]
        if op.kind in tested:
            continue
        mutant = json.loads(outputs[i][1])
        if MUTANTS[op.kind](mutant):
            tested.add(op.kind)
            if not check(op, mutant):
                problems.append(f"self-test: a mutated report of {op.key} was accepted")
    return problems, sorted(tested)
