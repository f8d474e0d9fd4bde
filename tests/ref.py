"""Reference oracles and fixtures that share no code with equiblow.

Nothing here imports from ``equiblow`` (``test_imports`` checks that).
A polynomial is read through its ``terms``, a dict from exponent tuples
to ``Fraction`` coefficients, and a chart through its coordinate names,
pivot and moving set; an ideal through its ``ring`` and ``generators``,
and a weight matrix through its ``rows``.  The first three oracles need
only the standard library; the others use sympy, which each imports in
its own body, so this module loads without it.

- ``strict_destabilizer_exists``: the Hilbert-Mumford grid search;
- ``closedness_limit_oracle``: one-parameter limit analysis of a torus
  orbit, for tori of rank at most 2;
- ``frac_rank``: the rank of a rational matrix by row reduction over
  ``Fraction``;
- ``_to_sympy`` and ``_sympy_basis``: a polynomial as a sympy
  expression, and sympy's monic reduced basis of a generator list;
- ``sympy_rref`` and ``caratheodory_oracles``: sympy's reduced row
  echelon form, and hull and relative-interior membership of 0 by
  Caratheodory enumeration on it;
- ``_reference_centers``: the blowup centers by a brute-force scan of
  every coordinate support, with ``_is_unit_ideal``, ``_rabinowitsch``,
  ``_row_space`` and ``_stabilizer``;
- ``charts_glue``: two chart ideals of one blowup agree on the charts'
  overlap;
- ``REFUSALS``: one malformed model file per refusal of the reader and
  of the builder, with its exact message.
- ``EVERY_SUBCOMMAND``: one command line per subcommand, on corpus files.
"""

import itertools
from fractions import Fraction


def strict_destabilizer_exists(cols, bound=4):
    """Grid oracle: a cochar with strictly positive pairing against every
    column of ``cols`` exists iff one exists with entries within
    ``bound``.  With defining data in {-1,0,1} the vertices of the
    normalized cone have coordinates within 2 (Cramer's rule), so the
    default bound is exhaustive for such columns."""
    if not cols:
        return False
    k = len(cols[0])
    rng = range(-bound, bound + 1)
    for s in itertools.product(rng, repeat=k):
        if all(v == 0 for v in s):
            continue
        if all(sum(a * b for a, b in zip(s, w)) > 0 for w in cols):
            return True
    return False


def closedness_limit_oracle(cols):
    """One-parameter limit analysis on a set of distinct restricted
    weights, of a torus of rank k <= 2.

    The orbit is not closed exactly when some cochar s pairs >= 0 with
    every column, one value strictly positive: then t^s sends those
    coordinates to 0 and the limit leaves the orbit.  For k <= 2 any
    nonempty destabilizing cone contains an axis ray or a ray orthogonal
    to a column, so scanning those is exhaustive.
    """
    if not cols:
        return True
    k = len(next(iter(cols)))
    if k == 1:
        cands = [(1,), (-1,)]
    else:
        cands = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        for w in cols:
            cands.append((-w[1], w[0]))
            cands.append((w[1], -w[0]))
    for s in cands:
        dots = [sum(si * wi for si, wi in zip(s, w)) for w in cols]
        if all(d >= 0 for d in dots) and any(d > 0 for d in dots):
            return False
    return True


def frac_rank(M):
    """Row reduction over the rationals, written out so that a rank check
    does not lean on the package's own linear algebra."""
    rows = [list(map(Fraction, r)) for r in M]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        rows[rank] = [v / lead for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _to_sympy(p, gens):
    """The polynomial with ``terms`` ``p.terms`` as a sympy expression in
    the symbols ``gens``."""
    import sympy

    return sympy.Add(
        *[
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[g**e for g, e in zip(gens, m)])
            for m, c in p.terms.items()
        ]
    )


def _sympy_basis(polys, order) -> set[frozenset]:
    """sympy's reduced basis of ``polys``, whose variables are named by
    ``polys[0].ring.names``, made monic, as sets of (monomial,
    coefficient)."""
    import sympy

    gens = sympy.symbols(polys[0].ring.names)
    G = sympy.groebner([_to_sympy(p, gens) for p in polys], *gens, order=order)
    out = set()
    for g in G.exprs:
        lc = sympy.Poly(g, *gens).LC(order=order)
        out.add(
            frozenset(
                (m, Fraction(int(c.p), int(c.q)))
                for m, c in sympy.Poly(g / lc, *gens).terms()
            )
        )
    return out


def sympy_rref(rows):
    """Reduced row echelon form over QQ by sympy's DomainMatrix: the
    reduced rows, with Fraction entries, and the pivot columns."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    QQ = sympy.QQ
    M = [[QQ(x.numerator, x.denominator) for x in row] for row in rows]
    reduced, pivots = DomainMatrix(M, (len(M), len(M[0])), QQ).rref()
    return [
        [Fraction(int(e.numerator), int(e.denominator)) for e in row]
        for row in reduced.to_list()
    ], pivots


def caratheodory_oracles():
    """Hull and relative-interior membership by Caratheodory enumeration,
    with every linear system solved exactly by sympy.

    0 is in conv(V) iff the barycentric system of some affinely
    independent subset has a (unique) nonnegative solution.  0 is a
    strictly positive combination of V iff, for each i, -v_i is a
    nonnegative combination of a linearly independent subset of the
    other vectors: adding up those combinations gives every weight a
    positive coefficient.  (sympy's own simplex, `lpmin`, accepts
    infeasible equality systems here, so it is no oracle.)
    """

    def unique_nonnegative(cols, rhs):
        n = len(cols)
        rows = [[c[i] for c in cols] + [rhs[i]] for i in range(len(rhs))]
        reduced, pivots = sympy_rref(rows)
        if tuple(pivots) != tuple(range(n)):  # singular or inconsistent
            return False
        return all(reduced[j][n] >= 0 for j in range(n))

    def hull(vs):
        d = len(vs[0])
        return any(
            unique_nonnegative([v + (1,) for v in sub], (0,) * d + (1,))
            for size in range(1, min(len(vs), d + 1) + 1)
            for sub in itertools.combinations(vs, size)
        )

    def in_cone(target, others, d):
        return not any(target) or any(
            unique_nonnegative(sub, target)
            for size in range(1, min(len(others), d) + 1)
            for sub in itertools.combinations(others, size)
        )

    def relint(vs):
        d = len(vs[0])
        return all(
            in_cone(tuple(-x for x in v), vs[:i] + vs[i + 1 :], d)
            for i, v in enumerate(vs)
        )

    return hull, relint


def _is_unit_ideal(polys, gens) -> bool:
    """The sympy expressions ``polys`` in the symbols ``gens`` generate
    the unit ideal: their reduced grevlex basis is [1]."""
    import sympy

    return list(sympy.groebner(polys, *gens, order="grevlex").exprs) == [1]


def _rabinowitsch(ideal, support, xs, t) -> list:
    """I, the off-support coordinates and ``1 - t * prod_{i in S} x_i``."""
    import sympy

    system = [_to_sympy(g, xs) for g in ideal.generators]
    system += [xs[i] for i in range(ideal.ring.n) if i not in support]
    system.append(1 - t * sympy.Mul(*[xs[i] for i in support]))
    return system


def _row_space(rows) -> tuple:
    """The reduced row echelon basis of the rational span of ``rows``."""
    if not rows:
        return ()
    reduced, pivots = sympy_rref(rows)
    return tuple(map(tuple, reduced[: len(pivots)]))


def _stabilizer(columns, k: int) -> tuple:
    """Row space of the cocharacters pairing to zero with every column."""
    import sympy

    if not columns:
        return _row_space([[int(i == j) for j in range(k)] for i in range(k)])
    return _row_space([list(v) for v in sympy.Matrix(columns).nullspace()])


def _reference_centers(weights, ideal, unstable) -> set:
    """The row spaces of the blowup centers of ``ideal``: every
    coordinate support S is scanned, and the stabilizer of a point with
    support S is a center when its orbit is closed (the Caratheodory
    relative interior), it acts nontrivially on the ambient space, V(I)
    has a point with support S (the Rabinowitsch system is not the unit
    ideal), and, when ``unstable`` is given, not every such point lies
    in V(unstable)."""
    import sympy

    ring = ideal.ring
    k = len(weights.rows)
    cols = list(zip(*weights.rows))
    _, relint = caratheodory_oracles()
    xs = sympy.symbols(ring.names)
    t, s = sympy.Dummy("t"), sympy.Dummy("s")
    found = set()
    for size in range(ring.n + 1):
        for support in itertools.combinations(range(ring.n), size):
            carried = [cols[i] for i in support]
            if carried and not relint(carried):
                continue  # the orbit is not closed
            R = _stabilizer(carried, k)
            if not R or R in found:
                continue
            if all(sum(a * b for a, b in zip(r, w)) == 0 for r in R for w in cols):
                continue  # acts trivially on the ambient space
            system = _rabinowitsch(ideal, support, xs, t)
            if _is_unit_ideal(system, (t, *xs)):
                continue  # no point of V(I) has this support
            if unstable is not None and all(
                _is_unit_ideal(system + [1 - s * _to_sympy(g, xs)], (s, t, *xs))
                for g in unstable.generators
            ):
                continue  # every realizing point is unstable
            found.add(R)
    return found


def charts_glue(ideal_a, chart_a, ideal_b, chart_b) -> bool:
    """Two chart ideals of one blowup agree on the charts' overlap.

    Both charts keep every coordinate position of the parent: at its
    pivot k a chart has the exceptional coordinate xi (x_k = xi), at
    every other moving position i the ratio T_i (x_i = xi*T_i), and at a
    fixed position the parent coordinate.  On the overlap, chart b's
    coordinates in chart a's are xi_b = xi_a*T, T_a = 1/T and T_i = T_i/T
    for the link coordinate T, chart a's ratio at chart b's pivot.  Each
    generator of chart b is carried over and cleared of its denominator,
    a power of T; then both ideals are saturated by T, with a
    Rabinowitsch variable and a block order, and their reduced grevlex
    bases compared.
    """
    import sympy
    from sympy.polys.orderings import ProductOrder, grevlex

    xs = sympy.symbols(chart_a.ring.names)
    a, b, t = chart_a.pivot, chart_b.pivot, xs[chart_b.pivot]
    images = list(xs)
    for i in chart_b.moving:
        images[i] = xs[a] * t if i == b else (1 if i == a else xs[i]) / t

    def carried(p):
        # the image's denominator is a power of T
        return sympy.fraction(sympy.together(_to_sympy(p, images)))[0]

    s = sympy.Dummy("s")
    order = ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))

    def saturated(exprs):
        G = sympy.groebner([*exprs, 1 - s * t], s, *xs, order=order)
        return {g for g in G.exprs if s not in g.free_symbols}

    return saturated(carried(g) for g in ideal_b.generators) == saturated(
        _to_sympy(g, xs) for g in ideal_a.generators
    )


# One malformed body per refusal of the reader and the builder, with the
# exact message, in the order the checks run; a body with two faults
# pins which check comes first, whatever the file order.  The
# acceptance of every body is pinned three ways: ``test_modelfile`` by
# the message of ``build_model``, ``test_cli`` by the stderr line and
# exit 2 of three subcommands, and ``reach.py`` runs ``blowup`` on each.
V = "variables = [x, y]\nweights = [[1, -1]]\n"
P = V + 'potential = "x*y"\n'
S = V + 'ideal = ["x*y"]\nsection = ["y", "x"]\n'
FRAMES = "frame_weights = [[1], [-1]]\n"
# a weight-zero coordinate t, for a base parameter and a third frame
VT = "variables = [x, y, t]\nweights = [[1, -1, 0]]\n"
_BASEPOINT = "basepoint must list one rational per variable"
_FRAME_COUNT = "comparison section must match the frame count"
REFUSALS = {
    "unknown-key": (P + "colour = [red]\n", "unknown key 'colour'"),
    "twist": (P + "twist = -1\n", "unknown key 'twist'"),
    "missing-weights": ('variables = [x]\npotential = "x"\n', "missing required key 'weights'"),
    "missing-variables": ('weights = [[1]]\npotential = "x"\n', "missing required key 'variables'"),
    "variables-shape": (
        'variables = [x, 1]\nweights = [[1, -1]]\npotential = "x"\n',
        "variables must be a list of names",
    ),
    "weights-shape": (
        'variables = [x]\nweights = [1]\npotential = "x"\n',
        "weights must be a list of integer rows",
    ),
    "weights-entries": (
        'variables = [x]\nweights = [[a]]\npotential = "x"\n',
        "weights must be integers",
    ),
    "weights-width": (
        'variables = [x, y]\nweights = [[1, -1, 0]]\npotential = "x*y"\n',
        "weight row width must match variables",
    ),
    "neither-potential-nor-ideal": (V, "exactly one of 'potential' or 'ideal' is required"),
    "both-potential-and-ideal": (
        P + 'ideal = ["x"]\n',
        "exactly one of 'potential' or 'ideal' is required",
    ),
    "potential-shape": (V + "potential = [x]\n", "potential must be a quoted string"),
    "ideal-shape": (V + 'ideal = "x"\n', "ideal must be a list of quoted strings"),
    "section-shape": (P + "section = [1, 2]\n", "section must be a list of quoted strings"),
    "frame-weights-shape": (
        S + "frame_weights = [1, -1]\n",
        "frame_weights must be integer rows",
    ),
    "frame-labels-shape": (
        S + FRAMES + "frame_labels = [1, 2]\n",
        "frame_labels must be a list of names",
    ),
    "divisor-shape": (P + "divisor = x\n", "divisor must be a list of [name, multiplicity]"),
    "divisor-entry": (
        P + "divisor = [[x, 0]]\n",
        "divisor entries must be [name, positive multiplicity]",
    ),
    "base-parameter-name": (P + "base_parameter = z\n", "base_parameter must name a variable"),
    "base-parameter-weight": (
        P + "base_parameter = x\n",
        "base parameter must have weight zero in every row",
    ),
    "basepoint-length": (P + "basepoint = [0]\n", _BASEPOINT),
    "basepoint-entry": (P + "basepoint = [a, 0]\n", _BASEPOINT),
    # a quoted entry is text, as a bare one that is no int or p/q is
    "basepoint-text": (P + 'basepoint = ["1/2", 0]\n', _BASEPOINT),
    # a digit int() does not read is no digit of either reader
    "superscript-in-basepoint": (VT + 'potential = "x*y"\nbasepoint = [², 0, 0]\n', _BASEPOINT),
    "hint-shape": (P + "hint = 1\n", "hint must be a quoted string"),
    # the ring's own checks, before the bad potential
    "bad-variable-name": (
        'variables = [1x, y, t]\nweights = [[1, -1, 0]]\npotential = "x*("\n',
        "bad variable name '1x'",
    ),
    "duplicate-variable-name": (
        'variables = [x, x, t]\nweights = [[1, -1, 0]]\npotential = "x*("\n',
        "duplicate variable name 'x'",
    ),
    "duplicate-variable": (
        'variables = [x, x]\nweights = [[1, -1]]\nideal = ["x*("]\n',
        "duplicate variable name 'x'",
    ),
    # a section file's keys in a potential file, before its potential
    "potential-frame-weights": (P + FRAMES, "frame_weights belongs to a section file"),
    "potential-frame-labels": (
        P + "frame_labels = [a, b]\n",
        "frame_labels belongs to a section file",
    ),
    "potential-divisor": (
        V + 'potential = "x*("\ndivisor = [[x, 1]]\n',
        "divisor belongs to a section file",
    ),
    "bad-potential": (
        V + 'potential = "x*y +"\n',
        "bad polynomial: expected a term, found '' (at position 5)",
    ),
    "superscript-in-potential": (
        VT + 'potential = "²*x*y"\n',
        "bad polynomial: unexpected character '²' (at position 0)",
    ),
    "bad-polynomial": (
        V + 'ideal = ["x", "x*y +"]\n',
        "bad polynomial: expected a term, found '' (at position 5)",
    ),
    "not-invariant": (V + 'potential = "x + y"\n', "potential is not invariant"),
    # the invariance test and the potential's parse come before the frame
    # count, and the frame count before the section's parse
    "skew-and-short": (VT + 'potential = "x^2*y"\nsection = ["x"]\n', "potential is not invariant"),
    "bad-potential-and-short": (
        VT + 'potential = "x*(y"\nsection = ["x"]\n',
        "bad polynomial: expected ), found '' (at position 4)",
    ),
    "short": (P + 'section = ["y"]\n', _FRAME_COUNT),
    "comparison-section": (P + 'section = ["y", "x", "x"]\n', _FRAME_COUNT),
    "short-and-bad": (VT + 'potential = "x*y"\nsection = ["x^"]\n', _FRAME_COUNT),
    # one frame per coordinate but the base parameter
    "base-parameter-frames": (
        VT + 'potential = "x*y*t"\nbase_parameter = t\nsection = ["y*t", "x*t", "x*y"]\n',
        _FRAME_COUNT,
    ),
    "bad-section": (
        VT + 'potential = "x*y"\nsection = ["y", "x^", "t"]\n',
        "bad polynomial: expected int, found '' (at position 2)",
    ),
    # the frame data of a section file, which the model's classes check
    "section-without-frames": (S, "section requires frame_weights"),
    "frame-data-length": (
        S + "frame_weights = [[1]]\n",
        "frame data must match the section length",
    ),
    "duplicate-frame-labels": (S + FRAMES + "frame_labels = [a, a]\n", "duplicate frame labels"),
    # the labels are checked before the divisor
    "repeated-frame-label": (
        S + FRAMES + "frame_labels = [a, a]\ndivisor = [[q, 1]]\n",
        "duplicate frame labels",
    ),
    "frame-weight-length": (
        S + "frame_weights = [[1, 2], [-1]]\n",
        "frame weight length must match the torus rank",
    ),
    "stray-divisor": (
        S + FRAMES + "divisor = [[q, 1]]\n",
        "divisor coordinate 'q' is not a ring variable",
    ),
    # a component whose weight is not its frame's negated, after the
    # frame checks; at the parent the first reached exit 5 in `blowup`
    # and the second in `crit --point=1,-1`
    "section-not-invariant": (
        V + 'ideal = ["x*y"]\nsection = ["1 + y", "x"]\n' + FRAMES,
        "section is not invariant",
    ),
    "section-not-invariant-at-a-point": (
        V + 'ideal = ["x*y + 1"]\nsection = ["x + y", "x*y + 1"]\n' + FRAMES,
        "section is not invariant",
    ),
    "skew-section-and-frame-weight-length": (
        V + 'ideal = ["x*y"]\nsection = ["1 + y", "x"]\nframe_weights = [[1, 2], [-1]]\n',
        "frame weight length must match the torus rank",
    ),
    # the first rule of the reader's order decides, whatever the file order
    "first-rule-wins": (
        V + "hint = 1\nbasepoint = [0]\npotential = 3\n",
        "potential must be a quoted string",
    ),
    "divisor-before-basepoint": (
        P + "basepoint = [0]\ndivisor = [[x, 0]]\n",
        "divisor entries must be [name, positive multiplicity]",
    ),
}


# one command line per subcommand: the arguments after the subcommand,
# each ``.kb`` name a file of the bundled corpus
EVERY_SUBCOMMAND = {
    "blowup": ("e2.kb",),
    "crit": ("e2.kb",),
    "semistable": ("e2.kb", "--chart", "chart_x", "--point=0,1,0"),
    "obstruction": ("e2.kb",),
    "omega-verify": ("square_pair.kb",),
    "fiber-check": ("family.kb",),
    "independence": ("e1aux.kb", "--aux", "u"),
    "corpus": (),
}


def subcommand_line(command, corpus):
    """The argv of ``command``'s line in ``EVERY_SUBCOMMAND``, with each
    model file named under the directory ``corpus``."""
    return [
        command,
        *(f"{corpus}/{w}" if w.endswith(".kb") else w for w in EVERY_SUBCOMMAND[command]),
    ]
