"""d-critical charts, pointwise four-term complexes, obstruction assignments
for small extensions, and equivalence of sections cutting the same locus.

Everything pointwise happens over exact rationals: matrices of the complex
are evaluated at rational points, ranks come from fraction-free elimination,
and obstruction classes live in explicit cokernel coordinates.
"""

import warnings

from .blowup import (
    EquivariantBundle,
    LocalModel,
    action_pairing,
    cleared_lift,
    frame_moving,
    poly_mat_mul,
    twisted_cofactor,
    zero_matrix,
)
from .errors import PreconditionError, TheoremCheckError
from .groebner import (
    Budget, Ideal, buchberger, ideal_equal, lift_certificate, normal_form, saturate
)
from .linalg import coker_projection, mat_mul, rank, solve
from .poly import DEGREVLEX, Poly, Ring, canon, divide_exact, exact_div
from .record import Record
from .torus import (
    WeightMatrix,
    isotypic_pieces,
    orbit_is_closed,
    poly_weight,
    stabilizer_subtorus,
)


def dcritical_chart(
    f: Poly,
    weights: WeightMatrix,
    base_param: str | None = None,
) -> LocalModel:
    """Local model of the critical locus of an invariant potential.

    The bundle is the cotangent frame (minus the base direction for a
    family), the section collects the partial derivatives, the divisor is
    empty and the cofactor is the action pairing, with the identity as
    factorization witness.
    """
    ring = f.ring
    if weights.k and weights.n != ring.n:
        raise ValueError("weight matrix width must match the ring")
    _require_invariant(f, weights)
    return _dcritical_model(f, weights, base_param)


def _require_invariant(f: Poly, weights: WeightMatrix):
    # invariant iff every term has weight zero, so the Reynolds
    # projection would return f itself
    if poly_weight(f, weights) != (0,) * weights.k:
        raise PreconditionError(f"potential is not invariant: {f}")


def _dcritical_model(f: Poly, weights: WeightMatrix, base_param: str | None):
    """The model of ``dcritical_chart`` without its input checks, for a
    caller that has made them."""
    ring = f.ring
    frame_idx = [i for i in range(ring.n) if ring.names[i] != base_param]
    labels = ["d" + ring.names[i] for i in frame_idx]
    frame_weights = [weights.column(i) for i in frame_idx]
    section = tuple(f.derivative(i) for i in frame_idx)
    pairing = action_pairing(ring, weights)
    cofactor = tuple(tuple(row[i] for i in frame_idx) for row in pairing)
    one, zero = ring.one(), ring.zero()
    lift = tuple(
        tuple(one if i == fi else zero for i in range(ring.n)) for fi in frame_idx
    )
    return LocalModel(
        ring,
        weights,
        EquivariantBundle(labels, frame_weights),
        section,
        divisor={},
        cofactor=cofactor,
        sigma_lift=lift,
        potential=f,
        base_param=base_param,
    )


def derivative_matrix(section, ring: Ring):
    """Jacobian of a section: one row per component, one column per
    coordinate."""
    return tuple(
        tuple(comp.derivative(i) for i in range(ring.n)) for comp in section
    )


class FourTermComplexAtPoint(Record):
    """Evaluated complex (torus) -> (tangent) -> (bundle) -> (torus dual)
    at a rational point of the section's zero locus.

    The last map is the cofactor in the divisor-twisted frame, so its
    entries are the exact quotients by the divisor equation.
    """

    __slots__ = ("point", "m0", "m1", "m2", "k", "n", "r")

    def __init__(self, point, m0, m1, m2, k, n, r):
        """Both compositions m1·m0 and m2·m1 must vanish, or
        ``TheoremCheckError`` is raised."""
        point = tuple(point)
        if r and k and not _iszero_matrix(mat_mul(m1, m0)):
            raise TheoremCheckError(
                f"middle map does not kill the action column at {point}"
            )
        if r and k and not _iszero_matrix(mat_mul(m2, m1)):
            raise TheoremCheckError(
                f"twisted cofactor does not kill the middle map at {point}"
            )
        m0, m1, m2 = (tuple(tuple(row) for row in m) for m in (m0, m1, m2))
        Record.__init__(self, point, m0, m1, m2, k, n, r)


def _eval_matrix(rows, point):
    """The entries' values at a point of canonical coordinates."""
    return [[e._at(point) for e in row] for row in rows]


def _jacobian_at(section, point):
    """``derivative_matrix(section)`` evaluated at ``point``, read off the
    terms.  A term with a zero coordinate of exponent 2 or more, or with
    two zero coordinates, has no partial that is nonzero there; with one
    zero coordinate of exponent 1 only the partial along it survives."""
    n = len(point)
    rows = []
    for comp in section:
        row = [0] * n
        for m, c in comp.terms.items():
            hit = -1  # the zero coordinate of the support, if any
            rest = c  # the term without that coordinate, at the point
            for i, e in enumerate(m):
                if not e:
                    continue
                x = point[i]
                if x:
                    rest *= x if e == 1 else x**e
                elif e == 1 and hit < 0:
                    hit = i
                else:
                    break
            else:
                if hit >= 0:
                    row[hit] += rest
                else:
                    for i, e in enumerate(m):
                        if e:
                            row[i] += exact_div(rest * e, point[i])
        rows.append(list(map(canon, row)))
    return rows


def _iszero_matrix(M) -> bool:
    return all(all(x == 0 for x in row) for row in M)


def four_term_at(model: LocalModel, point) -> FourTermComplexAtPoint:
    """Evaluate the four-term complex of a local model at a point of its
    zero locus, verifying the two composition identities and, for a
    d-critical model, the symmetry of the middle map."""
    ring = model.ring
    k = model.weights.k
    n = ring.n
    r = model.bundle.rank
    point = tuple(map(canon, point))
    if len(point) != n:
        raise ValueError("point length must match the ambient ring")
    for comp in model.section:
        value = comp._at(point)
        if value != 0:
            raise PreconditionError(
                f"point is not on the zero locus: component {comp} evaluates to "
                f"{value}"
            )
    m0 = [
        [canon(model.weights.rows[a][i] * point[i]) for a in range(k)]
        for i in range(n)
    ]
    m1 = _jacobian_at(model.section, point)
    twisted = twisted_cofactor(model)
    if model.divisor:
        for row, twisted_row in zip(model.cofactor, twisted):
            for e, q in zip(row, twisted_row):
                if q is None:
                    raise PreconditionError(
                        "cofactor entry is not divisible by the divisor equation: "
                        f"{e}"
                    )
    m2 = _eval_matrix(twisted, point)

    K = FourTermComplexAtPoint(point, m0, m1, m2, k, n, r)
    if model.potential is not None:
        cols = [i for i in range(n) if ring.names[i] != model.base_param]
        for bi, i in enumerate(cols):
            for bj, j in enumerate(cols):
                if m1[bi][j] != m1[bj][i]:
                    raise TheoremCheckError(
                        f"second-derivative matrix is not symmetric at {point}"
                    )
    return K


def cohomology_dims(K: FourTermComplexAtPoint) -> tuple[int, int, int, int]:
    """Exact cohomology dimensions of the evaluated complex, whose
    compositions its constructor has checked."""
    r0, r1, r2 = rank(K.m0), rank(K.m1), rank(K.m2)
    h0 = K.k - r0
    h1 = (K.n - r1) - r0
    h2 = (K.r - r2) - r1
    h3 = K.k - r2
    return (h0, h1, h2, h3)


def reduced_obstruction_dim(model: LocalModel, point) -> int:
    """Dimension of the reduced obstruction fiber at a finite-stabilizer
    point: the h2 of the four-term complex there.

    Points whose ambient orbit is not closed still get a formal answer,
    flagged with a warning; a positive-dimensional stabilizer is refused
    since the reduced theory does not see it.
    """
    point = tuple(map(canon, point))
    W = model.weights
    if W.k:
        support = [i for i in range(len(point)) if point[i] != 0]
        stab = stabilizer_subtorus(support, W)
        if not stab.is_trivial():
            raise PreconditionError(
                "point has a positive-dimensional stabilizer; the reduced "
                "theory is defined only at finite-stabilizer points"
            )
        if not orbit_is_closed(support, W):
            warnings.warn(
                "ambient orbit of the point is not closed; reduced dimensions "
                "are formal here",
                stacklevel=2,
            )
    K = four_term_at(model, point)
    return cohomology_dims(K)[2]


# ---------------------------------------------------------------------------
# small extensions and obstruction assignments


def _series_trim(c, order):
    c = tuple(map(canon, c))
    if len(c) > order + 1:
        c = c[: order + 1]
    return c + (0,) * (order + 1 - len(c))


def _series_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j > order:
                break
            out[i + j] += x * y
    return tuple(map(canon, out))


def _series_powers(series, order):
    """Truncated powers of coordinate series, built on first use and shared
    by every polynomial evaluated along them: ``power(i, e)`` is the e-th
    power of series i, or None when that series is identically zero."""
    cache = [{1: c} if any(c) else None for c in series]

    def power(i, e):
        known = cache[i]
        if known is None:
            return None
        if e not in known:
            known[e] = _series_mul(power(i, e - 1), known[1], order)
        return known[e]

    return power


def _series_eval(p: Poly, power, order):
    """Truncated series of p along the coordinate series behind ``power``
    (a ``_series_powers`` result).  Terms that contain a coordinate with a
    zero series are skipped."""
    total = [0] * (order + 1)
    for m, c in p.terms.items():
        term = None
        for i, e in enumerate(m):
            if e:
                pw = power(i, e)
                if pw is None:
                    break
                term = pw if term is None else _series_mul(term, pw, order)
        else:
            if term is None:
                total[0] += c
            else:
                for d, x in enumerate(term):
                    total[d] += c * x
    return tuple(map(canon, total))


class SmallExtension(Record):
    """A square-zero extension of the dual-number tower together with a
    map into the locus: coordinates given as truncated power series in
    one parameter, defined to order m - 1 inclusive."""

    __slots__ = ("m", "series")

    MAX_ORDER = 6

    def __init__(self, m: int, series):
        m = int(m)
        if m < 1 or m > self.MAX_ORDER:
            raise PreconditionError(
                f"extension order must lie between 1 and {self.MAX_ORDER}"
            )
        Record.__init__(self, m, tuple(_series_trim(c, m - 1) for c in series))

    @property
    def basepoint(self):
        return tuple(c[0] for c in self.series)


class ObstructionAssignment(Record):
    """Obstruction class of a small extension in cokernel coordinates,
    along with its dimension count and the liftability verdict."""

    __slots__ = ("vector", "coker_dim", "liftable")


def _extension_residual(model: LocalModel, ext: SmallExtension):
    """Coefficients of the section along the naive coordinate lift, to one
    order beyond the extension; validates that the map lands in the locus
    to the stated order."""
    ring = model.ring
    if len(ext.series) != ring.n:
        raise PreconditionError("series count must match the ambient ring")
    order = ext.m
    power = _series_powers([_series_trim(c, order) for c in ext.series], order)
    values = [_series_eval(comp, power, order) for comp in model.section]
    for b, v in enumerate(values):
        for d in range(ext.m):
            if v[d] != 0:
                raise PreconditionError(
                    "map does not land in the locus to the stated order: "
                    f"component {b} has residue {v[d]} at degree {d}"
                )
    return [v[order] for v in values]


def lifting_data(model: LocalModel, ext: SmallExtension):
    """The top residual of the extension and the four-term complex at its
    basepoint: the data both the obstruction class and the lift search read."""
    return _extension_residual(model, ext), four_term_at(model, ext.basepoint)


def obstruction_assignment(
    model: LocalModel, ext: SmallExtension, data=None
) -> ObstructionAssignment:
    """Obstruction class of the lifting problem across one more order.

    The section is evaluated along the naive lift, the top coefficient is
    projected to the cokernel of the middle map at the basepoint, and the
    class vanishes exactly when a lift exists.  ``data`` is a
    ``lifting_data`` result already in hand.
    """
    top, K = data if data is not None else lifting_data(model, ext)
    dim, project = coker_projection(K.m1, model.bundle.rank)
    vector = project(top)
    return ObstructionAssignment(vector, dim, all(x == 0 for x in vector))


def find_lift(model: LocalModel, ext: SmallExtension, data=None):
    """Search for a lift of the extension map one order higher by solving
    the linear correction system; independent of the cokernel route.

    Returns the lifted extension, or None when no correction works.
    ``data`` is a ``lifting_data`` result already in hand.
    """
    top, K = data if data is not None else lifting_data(model, ext)
    # columns of the middle map multiply the unknown correction
    delta = solve(K.m1, [-x for x in top])
    if delta is None:
        return None
    series = [c + (delta[i],) for i, c in enumerate(ext.series)]
    return SmallExtension(ext.m + 1, series)


# ---------------------------------------------------------------------------
# equivalence of sections


class OmegaEquivalenceReport(Record):
    """Per-condition outcome of a section-equivalence check: equality of
    the cut ideals after localization, both correction identities modulo
    the squared ideal, and equivariance of the correction matrices."""

    __slots__ = (
        "same_ideal",
        "identity_forward",
        "identity_backward",
        "equivariant",
        "witnesses",
    )

    @property
    def passed(self) -> bool:
        return (
            self.same_ideal
            and self.identity_forward
            and self.identity_backward
            and self.equivariant
        )


def verify_omega_equivalence(
    model: LocalModel,
    omega_bar,
    A=None,
    B=None,
    hint: Poly | None = None,
    basepoint=None,
    budget: Budget | None = None,
) -> OmegaEquivalenceReport:
    """Check that two sections of one bundle cut the same locus and differ
    by tangent-valued corrections modulo the squared ideal.

    The ideal comparison happens after saturating by the hint polynomial,
    the algebraic stand-in for shrinking the chart around a basepoint
    where the hint does not vanish, and goes through ``ideal_equal``.
    The squared ideal's basis is built only for a nonzero residual.
    """
    return _omega_check(model, omega_bar, hint, basepoint, budget)(A, B)


def _omega_check(model: LocalModel, omega_bar, hint, basepoint, budget):
    """The part of ``verify_omega_equivalence`` that does not read the
    corrections, made once: returns ``check(A, B)``, the report for one
    pair of corrections, which builds the squared ideal's basis at most
    once over all its calls."""
    ring = model.ring
    r = model.bundle.rank
    n = ring.n
    omega = model.section
    omega_bar = tuple(omega_bar)
    if len(omega_bar) != r:
        raise PreconditionError("sections must share the bundle rank")
    for c in omega_bar:
        if c.ring != ring:
            raise PreconditionError("sections must live in one ring")
    if hint is None:
        hint = ring.one()
    if basepoint is not None and hint.evaluate(basepoint) == 0:
        raise PreconditionError("hint polynomial vanishes at the basepoint")

    ideal_a = Ideal(ring, omega)
    ideal_b = Ideal(ring, omega_bar)
    if not hint.is_constant():
        ideal_a = saturate(ideal_a, hint, budget)
        ideal_b = saturate(ideal_b, hint, budget)
    same_ideal = ideal_equal(ideal_a, ideal_b, budget)
    # forward: omega = omega_bar + d(omega_bar)·A·omega_bar modulo the
    # squared ideal; backward the same with the sections and B for A
    sides = (
        ("identity_forward", derivative_matrix(omega_bar, ring), omega_bar, omega),
        ("identity_backward", derivative_matrix(omega, ring), omega, omega_bar),
    )
    squared = []  # the squared ideal's basis, once a residual needs it

    def in_squared_ideal(residual: Poly) -> bool:
        if residual.is_zero():
            return True
        if not squared:
            # the pairwise products of generators generate the square
            gens = ideal_a.generators
            products = [p * q for i, p in enumerate(gens) for q in gens[i:]]
            squared.append(buchberger(Ideal(ring, products), DEGREVLEX, budget))
        return normal_form(residual, squared[0]).is_zero()

    def check(A, B) -> OmegaEquivalenceReport:
        A, B = (
            zero_matrix(ring, n, r) if M is None else tuple(tuple(row) for row in M)
            for M in (A, B)
        )
        for M in (A, B):
            if len(M) != n or any(len(row) != r for row in M):
                raise PreconditionError("correction matrices must be n x rank")
        witnesses: list[str] = []
        if not same_ideal:
            witnesses.append("same_ideal: the two sections cut different ideals")

        identity = []
        for (name, jac, src, dst), M in zip(sides, (A, B)):
            corr = poly_mat_mul(jac, poly_mat_mul(M, [(c,) for c in src], ring), ring)
            holds = True
            for b in range(r):
                residual = dst[b] - src[b] - corr[b][0]
                if not in_squared_ideal(residual):
                    holds = False
                    witnesses.append(
                        f"{name}: component {b} leaves residual {residual} "
                        "modulo the squared ideal"
                    )
            identity.append(holds)

        equivariant = True
        for label, M in (("A", A), ("B", B)):
            for i, c, e, expected in _off_weight_entries(M, model):
                equivariant = False
                witnesses.append(
                    f"equivariant: entry {label}[{i}][{c}] = {e} is not of "
                    f"weight {expected}"
                )
        return OmegaEquivalenceReport(same_ideal, *identity, equivariant, tuple(witnesses))

    return check


def _off_weight_entries(M, model: LocalModel):
    """(i, c, entry, expected weight) for each nonzero entry of the
    n x rank correction matrix M that is not of the weight of frame c
    plus coordinate i, the equivariant weight of a tangent-valued map."""
    W = model.weights
    for i, row in enumerate(M):
        for c, e in enumerate(row):
            if e.is_zero():
                continue
            expected = tuple(
                model.bundle.weights[c][a] + W.rows[a][i] for a in range(W.k)
            )
            if poly_weight(e, W) != expected:
                yield i, c, e, expected


def _detect_unit_cofactor(omega, omega_bar, ring: Ring):
    unit = None
    for f_i, g_i in zip(omega, omega_bar):
        if f_i.is_zero() and g_i.is_zero():
            continue
        if f_i.is_zero() or g_i.is_zero():
            return None
        q = divide_exact(g_i, f_i)
        if q is None:
            return None
        if unit is None:
            unit = q
        elif unit != q:
            return None
    if unit is None or unit.is_constant():
        return None
    if unit.constant_coefficient() == 0:
        return None
    return unit


def _assemble_correction(diff: Poly, partials, weights: WeightMatrix, budget):
    """Symmetric correction matrix from a certificate of the difference
    over the pairwise products of the partials, averaged onto the
    equivariant weight piece entry by entry."""
    ring = diff.ring
    n = len(partials)
    pairs = []
    products = []
    for i in range(n):
        for j in range(i, n):
            p = partials[i] * partials[j]
            if p.is_zero():
                continue
            pairs.append((i, j))
            products.append(p)
    if not products:
        return None
    cert = lift_certificate(diff, Ideal(ring, products), budget)
    if cert is None:
        return None
    M = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for (i, j), c in zip(pairs, cert):
        if i == j:
            M[i][i] = M[i][i] + c + c
        else:
            M[i][j] = M[i][j] + c
            M[j][i] = M[j][i] + c
    columns = weights.columns()
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            target = tuple(
                weights.rows[a][i] + weights.rows[a][j] for a in range(weights.k)
            )
            # at most one piece carries the target weight
            pieces = isotypic_pieces(M[i][j], columns, weights.k)
            row.append(
                next((gp.part for gp in pieces if gp.weight == target), ring.zero())
            )
        out.append(tuple(row))
    return tuple(out)


def construct_equivalence(
    f: Poly, g: Poly, weights: WeightMatrix, budget: Budget | None = None
):
    """Equivalence data for the critical sections of two potentials that
    differ by an element of the squared critical ideal.

    Returns correction matrices and a localization hint.  Zero matrices
    are verified first; the forward identity reads only A and the
    backward one only B, so a correction is assembled only for an
    identity that fails, and the pair is verified once more by the same
    check, which keeps the bases it computed the first time.
    """
    ring = f.ring
    if g.ring != ring:
        raise PreconditionError("potentials must live in one ring")
    model = dcritical_chart(f, weights)
    omega = model.section
    omega_bar = dcritical_chart(g, weights).section

    unit = _detect_unit_cofactor(omega, omega_bar, ring)
    hint = unit if unit is not None else ring.one()

    check = _omega_check(model, omega_bar, hint, None, budget)
    A = B = zero_matrix(ring, ring.n, ring.n)
    report = check(A, B)
    if report.same_ideal and not report.passed:
        if not report.identity_forward:
            A = _assemble_correction(f - g, omega_bar, weights, budget)
        if A is not None and not report.identity_backward:
            B = _assemble_correction(g - f, omega, weights, budget)
        if A is not None and B is not None:
            report = check(A, B)
    if report.passed:
        return A, B, hint
    raise PreconditionError(
        "no equivalence certificate found; if the sections only agree "
        "locally, supply a localization hint that does not vanish there"
    )


def lift_morphism_to_blowup(A, model: LocalModel, chart):
    """Carry a tangent-valued correction matrix to a blowup chart.

    The correction is n x rank, so its transpose has one row of parent
    forms per frame element, and ``blowup.cleared_lift`` carries those
    rows as it does the factorization witness of ``transport_model``:
    the cleared matrix holds xi^2 times the inverse transpose Jacobian,
    so each row is divided by xi^2 on a fixed frame and by xi on a
    moving one, whose xi twist keeps the other xi.
    Equivariance of the input is required and the output stays
    polynomial.
    """
    n = model.ring.n
    r = model.bundle.rank
    A = tuple(tuple(row) for row in A)
    if len(A) != n or any(len(row) != r for row in A):
        raise PreconditionError("correction matrix must be n x rank")
    bad = next(_off_weight_entries(A, model), None)
    if bad is not None:
        i, c, e, _ = bad
        raise PreconditionError(f"correction entry ({i},{c}) = {e} is not equivariant")
    powers = [1 if m else 2 for m in frame_moving(model, chart)]
    rows = tuple(tuple(A[i][c] for i in range(n)) for c in range(r))
    lifted = cleared_lift(rows, chart, powers, "lifted correction")
    return tuple(tuple(lifted[c][j] for c in range(r)) for j in range(n))


class CokernelComparison(Record):
    """Comparison of obstruction cokernels along a coordinate inclusion:
    dimensions on both sides and whether dropping the auxiliary frame
    components induces a bijection."""

    __slots__ = ("compatible", "dim_small", "dim_big", "witnesses")


def phi_ck_at_point(
    small: LocalModel, big: LocalModel, point, budget: Budget | None = None
) -> CokernelComparison:
    """Compare obstruction cokernels at a point along the inclusion of the
    small ambient into the big one (extra coordinates set to zero).

    The sections must agree on the shared frames after restriction; the
    verdict records both cokernel dimensions and whether the induced map
    is a bijection.  Dropping the auxiliary frame components sends the
    big frame's unit vectors onto every unit vector of the small frame,
    so a well-defined induced map is onto, and with equal dimensions
    bijective: no rank test is needed.
    """
    ring_s = small.ring
    ring_b = big.ring
    aux = [i for i, nm in enumerate(ring_b.names) if nm not in ring_s.index]
    if set(ring_s.names) - set(ring_b.names):
        raise PreconditionError("small ambient must embed into the big one")
    shared_frames = []
    for lab in small.bundle.labels:
        if lab not in big.bundle.labels:
            raise PreconditionError(f"frame {lab!r} missing from the big bundle")
        shared_frames.append(big.bundle.labels.index(lab))
    point = tuple(map(canon, point))
    if len(point) != ring_s.n:
        raise ValueError("point length must match the small ambient")
    big_point = tuple(
        point[ring_s.index[nm]] if nm in ring_s.index else 0
        for nm in ring_b.names
    )
    restricted = []
    for pos in shared_frames:
        # setting the auxiliary coordinates to zero keeps the terms free of them
        terms = big.section[pos].terms
        kept = {m: c for m, c in terms.items() if not any(m[i] for i in aux)}
        restricted.append(Poly._make(ring_b, kept).rename_ring(ring_s))
    report = verify_omega_equivalence(small, restricted, budget=budget)
    if not report.passed:
        raise PreconditionError(
            "sections are incompatible along the inclusion: "
            + "; ".join(report.witnesses)
        )

    Ks = four_term_at(small, point)
    Kb = four_term_at(big, big_point)
    dim_s, project_s = coker_projection(Ks.m1, small.bundle.rank)
    dim_b, _ = coker_projection(Kb.m1, big.bundle.rank)
    witnesses: list[str] = []
    compatible = True
    if dim_s != dim_b:
        compatible = False
        witnesses.append(
            f"cokernel dimensions differ: {dim_b} on the big side, {dim_s} on "
            "the small side"
        )

    if compatible:
        for j in range(len(Kb.m1[0]) if Kb.m1 else 0):
            # middle-map column j without its auxiliary frame components
            image = project_s([Kb.m1[pos][j] for pos in shared_frames])
            if any(x != 0 for x in image):
                compatible = False
                witnesses.append(
                    "induced map is not defined on cokernels: middle-map "
                    f"column {j} survives projection"
                )
                break
    return CokernelComparison(compatible, dim_s, dim_b, tuple(witnesses))
