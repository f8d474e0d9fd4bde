"""Blowup charts along torus-fixed centers and transport of local models.

The blowup of affine space along the fixed locus of a subtorus is covered
by one affine chart per moving coordinate.  Everything here is chart-wise:
substitution maps, induced weights, intrinsic ideals (pullbacks of fixed
pieces together with moving pieces divided by the exceptional coordinate),
equivariant bundles with their twisted sections, and the cofactor data
that make a weak local model.
"""


from .errors import PreconditionError, TheoremCheckError
from .groebner import (
    Budget,
    Ideal,
    buchberger,
    eliminate,
    ideal_equal,
    normal_form,
)
from .poly import DEGREVLEX, Poly, Ring, divide_exact
from .record import Record
from .torus import (
    Subtorus,
    WeightMatrix,
    closed_orbit_stabilizers,
    fixed_locus,
    isotypic_pieces,
    poly_weight,
    restricted_columns,
)


def action_pairing(ring: Ring, weights: WeightMatrix) -> tuple[tuple[Poly, ...], ...]:
    """Matrix of the pairing between torus directions and coordinate forms.

    Row a, column i holds w_{a,i}·x_i: the coefficient of dx_i on the
    vector field generated by the a-th torus factor.  A d-critical chart
    uses exactly this matrix as its cofactor.
    """
    # each entry is the single term w·x_i, or zero for a zero weight
    return tuple(
        tuple(
            Poly._make(ring, {u: w} if w else {})
            for u, w in zip(ring.units, row)
        )
        for row in weights.rows
    )


def zero_matrix(ring: Ring, rows: int, cols: int):
    return tuple(tuple(ring.zero() for _ in range(cols)) for _ in range(rows))


class EquivariantBundle(Record):
    """Trivialized equivariant bundle: a labeled frame with one integer
    weight vector per frame element."""

    __slots__ = ("labels", "weights")

    def __init__(self, labels, weights):
        labels = tuple(str(s) for s in labels)
        weights = tuple(tuple(int(x) for x in w) for w in weights)
        if len(labels) != len(weights):
            raise ValueError("frame labels and weights must pair up")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate frame labels")
        Record.__init__(self, labels, weights)

    @property
    def rank(self) -> int:
        return len(self.labels)


class LocalModel:
    """Weak local-model data on an affine chart.

    An ambient polynomial ring with torus weights, an equivariant bundle
    carrying an invariant section whose zero scheme is the locus of
    interest, a record of the exceptional divisor accumulated so far, and
    the cofactor matrix through which the twisted action pairing factors.
    ``sigma_lift`` is the factorization witness: a bundle-valued matrix
    alpha with cofactor·alpha = h_D·(action pairing).
    """

    __slots__ = (
        "ring",
        "weights",
        "bundle",
        "section",
        "divisor",
        "cofactor",
        "sigma_lift",
        "potential",
        "base_param",
    )

    def __init__(
        self,
        ring: Ring,
        weights: WeightMatrix,
        bundle: EquivariantBundle,
        section,
        divisor=None,
        cofactor=None,
        sigma_lift=None,
        potential: Poly | None = None,
        base_param: str | None = None,
    ):
        if weights.k and weights.n != ring.n:
            raise ValueError("weight matrix width must match the ring")
        k = weights.k
        for v in bundle.weights:
            if len(v) != k:
                raise ValueError("frame weight length must match the torus rank")
        section = tuple(section)
        if len(section) != bundle.rank:
            raise ValueError("one section component per frame element")
        for c in section:
            if not isinstance(c, Poly) or c.ring != ring:
                raise ValueError("section components must live in the ambient ring")
        divisor = dict(divisor or {})
        for name, mult in divisor.items():
            if name not in ring.index:
                raise ValueError(f"divisor coordinate {name!r} is not a ring variable")
            if int(mult) <= 0:
                raise ValueError("divisor multiplicities must be positive")
        if cofactor is None:
            cofactor = zero_matrix(ring, k, bundle.rank)
        cofactor = tuple(tuple(row) for row in cofactor)
        if len(cofactor) != k or any(len(row) != bundle.rank for row in cofactor):
            raise ValueError("cofactor must be a (torus rank) x (bundle rank) matrix")
        for row in cofactor:
            for e in row:
                if not isinstance(e, Poly) or e.ring != ring:
                    raise ValueError("cofactor entries must live in the ambient ring")
        if sigma_lift is not None:
            sigma_lift = tuple(tuple(row) for row in sigma_lift)
            if len(sigma_lift) != bundle.rank or any(
                len(row) != ring.n for row in sigma_lift
            ):
                raise ValueError("sigma_lift must be a (bundle rank) x n matrix")
        if base_param is not None and base_param not in ring.index:
            raise ValueError(f"base parameter {base_param!r} is not a ring variable")
        self.ring = ring
        self.weights = weights
        self.bundle = bundle
        self.section = section
        self.divisor = {name: int(m) for name, m in sorted(divisor.items())}
        self.cofactor = cofactor
        self.sigma_lift = sigma_lift
        self.potential = potential
        self.base_param = base_param

    @property
    def ideal(self) -> Ideal:
        return Ideal(self.ring, self.section)

    def divisor_equation(self) -> Poly:
        h = self.ring.one()
        for name, mult in self.divisor.items():
            h = h * self.ring.var(name) ** mult
        return h

    def __repr__(self):
        return (
            f"LocalModel(ring={self.ring!r}, rank={self.bundle.rank}, "
            f"divisor={self.divisor})"
        )


class BlowupChart:
    """One affine chart of the blowup along the fixed locus of a subtorus.

    The chart for pivot coordinate x_k keeps every variable position of
    the parent ring: x_k becomes the exceptional coordinate xi_k, every
    other moving x_i becomes the ratio coordinate T_i (so x_i = xi_k·T_i),
    fixed coordinates are untouched.  Induced weights: w(xi_k) = w_k,
    w(T_i) = w_i - w_k, fixed unchanged.

    The pullback is a map on exponent vectors: x^m goes to the monomial
    with the same exponents except at the pivot, which becomes the sum of
    the moving exponents.  Multiplying or dividing by xi shifts that sum,
    so pullback, exceptional division and the xi twist are one routine,
    ``shifted_pullback``, that copies coefficients as they are.

    Every chart of one atlas shares the parent's int weight columns
    (``columns``), the same columns restricted to the center
    (``restricted``) and the moving coordinates, the ones whose
    restricted column is nonzero.  ``make_charts`` is the one builder
    of charts: it computes these once per atlas, checks every chart's
    coordinate names, and gives each chart its ``atlas``, the tuple of
    all the charts built with it.  The chart weights, the isotypic split
    of ``intrinsic_ideal`` and the fiber weights of ``stability`` are
    all read off the shared columns.

    ``kept`` holds the chart's ``desing.ChartFacts`` by ideal, model and
    budget (``desing.chart_facts``), for as long as the chart lives.
    """

    __slots__ = (
        "parent_ring",
        "parent_weights",
        "center",
        "pivot",
        "name",
        "ring",
        "weights",
        "exceptional",
        "columns",
        "restricted",
        "moving",
        "fixed",
        "kept",
        "atlas",
    )

    def __init__(
        self,
        parent_ring: Ring,
        parent_weights: WeightMatrix,
        center: Subtorus,
        pivot: int,
        columns: list[tuple[int, ...]],
        restricted: list[tuple[int, ...]],
        moving: tuple[int, ...],
    ):
        """``columns``, ``restricted`` and ``moving`` are the atlas-wide
        data that ``make_charts`` computes, and name checks, once."""
        moving_set = set(moving)
        self.parent_ring = parent_ring
        self.parent_weights = parent_weights
        self.center = center
        self.pivot = pivot
        self.name = chart_name(parent_ring, pivot)
        self.ring = Ring(_chart_names(parent_ring.names, pivot, moving_set))
        # w(T_i) = w_i - w_k in every row
        ratios = moving_set - {pivot}
        self.weights = WeightMatrix(
            [
                [w - row[pivot] if i in ratios else w for i, w in enumerate(row)]
                for row in parent_weights.rows
            ]
        )
        self.exceptional = self.ring.names[pivot]
        self.columns = columns
        self.restricted = restricted
        self.moving = moving
        self.fixed = tuple(i for i in range(parent_ring.n) if i not in moving_set)
        self.kept = {}

    @property
    def xi(self) -> Poly:
        return self.ring.var(self.exceptional)

    def pullback(self, p: Poly) -> Poly:
        return self.shifted_pullback(p, 0)

    def shifted_pullback(self, p: Poly, shift: int) -> Poly | None:
        """xi^shift times the pullback of p, or None when shift is
        negative and some term of the pullback lacks xi^(-shift).

        The pivot exponent of the image of x^m is the sum of the moving
        exponents of m.  The other exponents stay, so the map is
        injective: terms never collide and keep their coefficients and
        their order.
        """
        if p.ring is not self.parent_ring and p.ring != self.parent_ring:
            raise ValueError("polynomial does not live in the parent ring")
        k = self.pivot
        fixed = self.fixed
        out: dict = {}
        for m, c in p.terms.items():
            e = sum(m) + shift
            for i in fixed:
                e -= m[i]
            if e < 0:
                return None
            out[m[:k] + (e,) + m[k + 1 :]] = c
        return Poly._make(self.ring, out)

    def __repr__(self):
        return f"BlowupChart({self.name}, vars={list(self.ring.names)})"


def chart_name(ring: Ring, pivot: int) -> str:
    """Name of the chart whose pivot is coordinate ``pivot`` of ``ring``."""
    return "chart_" + ring.names[pivot]


def _chart_names(names, pivot: int, moving_set) -> list[str]:
    """Coordinate names of one chart: x_k -> xi_k, moving x_i -> T_i
    (x_i = xi_k·T_i), fixed x_i -> x_i; chart variable i keeps
    position i."""
    return [
        "xi_" + nm if i == pivot else "T_" + nm if i in moving_set else nm
        for i, nm in enumerate(names)
    ]


def make_charts(
    ring: Ring, weights: WeightMatrix, center: Subtorus
) -> tuple[BlowupChart, ...]:
    """The chart atlas of the blowup along the center's fixed locus.

    One chart per moving coordinate, in coordinate order, all sharing
    the parent's int weight columns, the same columns restricted to the
    center and the moving coordinates.  Each chart's ``atlas`` is the
    tuple returned.

    Raises ``PreconditionError`` when nothing moves, or when a chart
    coordinate is named like a model variable; the error names the first
    such chart in atlas order and its first clashing coordinate.
    """
    if weights.k and weights.n != ring.n:
        raise ValueError("weight matrix width must match the ring")
    columns = weights.columns()
    restricted = restricted_columns(weights, center)
    moving = tuple(i for i, r in enumerate(restricted) if any(r))
    if not moving:
        raise PreconditionError("center equals ambient; blowup empty")
    names = ring.names
    moving_set = set(moving)
    # only a renamed coordinate, T_ or xi_, can take a fixed one's name
    fixed = {nm for i, nm in enumerate(names) if i not in moving_set}
    if any("T_" + names[i] in fixed or "xi_" + names[i] in fixed for i in moving):
        for pivot in moving:
            chart = _chart_names(names, pivot, moving_set)
            clash = next((nm for nm in chart if chart.count(nm) > 1), None)
            if clash is not None:
                raise PreconditionError(
                    f"coordinate {clash!r} of {chart_name(ring, pivot)} clashes "
                    "with a model variable of the same name"
                )
    atlas = tuple(
        BlowupChart(ring, weights, center, i, columns, restricted, moving)
        for i in moving
    )
    for chart in atlas:
        chart.atlas = atlas
    return atlas


def exceptional_divide(p: Poly, chart: BlowupChart) -> Poly:
    """Pull a moving piece back and divide by xi.

    The input must be homogeneous of nonzero weight for the center
    subtorus, as every moving isotypic piece is; its pullback then
    vanishes on the exceptional locus and the division is exact.  A
    division failure means the invariance assumptions were violated
    upstream, so it is raised as a theorem check, never returned.
    """
    quotient = chart.shifted_pullback(p, -1)
    if quotient is None:
        raise TheoremCheckError(
            "pullback of a moving piece is not divisible by the exceptional "
            f"coordinate {chart.exceptional}: {p}"
        )
    return quotient


def intrinsic_ideal(ideal: Ideal, chart: BlowupChart, budget: Budget | None = None):
    """Chart ideal of the intrinsic blowup: fixed pieces pulled back, moving
    pieces pulled back and divided by the exceptional coordinate.

    Requires the ideal invariant under the center subtorus, verified by
    reducing every isotypic piece of every generator to normal form.
    The pieces are split off the atlas's restricted columns; each is
    homogeneous by construction and carries its restricted weight, which
    says whether it is moving.
    Returns the ideal of the images; callers that compare it take its
    reduced Groebner basis once.
    """
    if ideal.ring != chart.parent_ring:
        raise PreconditionError("ideal does not live in the chart's parent ring")
    restricted, dim = chart.restricted, chart.center.dim
    parent_gb = None
    gens: list[Poly] = []
    seen = set()
    for g in ideal.generators:
        pieces = isotypic_pieces(g, restricted, dim)
        if len(pieces) > 1:
            if parent_gb is None:
                parent_gb = buchberger(ideal, DEGREVLEX, budget)
            for gp in pieces:
                if not normal_form(gp.part, parent_gb).is_zero():
                    raise PreconditionError(
                        "ideal is not invariant under the center subtorus: "
                        f"piece {gp.part} of generator {g} falls outside the ideal"
                    )
        for gp in pieces:
            if any(gp.weight):
                image = exceptional_divide(gp.part, chart)
            else:
                image = chart.pullback(gp.part)
            if image.is_zero() or image in seen:
                continue
            seen.add(image)
            gens.append(image)
    return Ideal(chart.ring, gens)


def frame_moving(model: LocalModel, chart: BlowupChart) -> tuple[bool, ...]:
    """Per frame element of the model's bundle, whether it moves under the
    chart's center: the components that ``blowup_section`` divides by xi,
    and the frames that ``transport_model`` and
    ``dcrit.lift_morphism_to_blowup`` twist."""
    return tuple(any(chart.center.restrict(v)) for v in model.bundle.weights)


def blowup_section(model: LocalModel, chart: BlowupChart) -> tuple[Poly, ...]:
    """Section of the blowup bundle, carried by the rule of
    ``intrinsic_ideal``: components on fixed frame elements pull back,
    components on moving ones go through ``exceptional_divide``.

    An invariant section pairs a moving frame with a moving component,
    so the division is exact.
    """
    return tuple(
        exceptional_divide(comp, chart) if mov else chart.pullback(comp)
        for mov, comp in zip(frame_moving(model, chart), model.section)
    )


def pullback_divisor(divisor: dict, chart: BlowupChart) -> dict:
    """Divisor record on the chart.  The divisor equation is a monomial in
    the parent coordinates, so its pullback factors coordinate-wise."""
    out: dict = {}

    def bump(name: str, m: int):
        out[name] = out.get(name, 0) + m

    # chart coordinate i sits at parent position i: x_i = xi·T_i when
    # x_i is a moving coordinate other than the pivot
    for name, m in divisor.items():
        i = chart.parent_ring.index[name]
        if i != chart.pivot and i in chart.moving:
            bump(chart.exceptional, m)
        bump(chart.ring.names[i], m)
    return out


def poly_mat_mul(A, B, ring: Ring):
    """Product of two polynomial matrices given as row tuples."""
    columns = tuple(zip(*B))
    return tuple(
        tuple(Poly._sum_of_products(ring, zip(row, col)) for col in columns)
        for row in A
    )


def _cleared_form_transform(chart: BlowupChart):
    """Parent-by-chart matrix carrying xi^2·(inverse transpose Jacobian) of
    the chart substitution.  All entries are polynomial: the substitution
    degenerates only along the exceptional locus, and clearing by xi^2
    absorbs the denominator together with one extra xi.  Both lifts to a
    chart go through it (``cleared_lift``): the factorization witness of
    ``transport_model`` and the correction matrices of
    ``dcrit.lift_morphism_to_blowup``."""
    ring = chart.ring
    n = chart.parent_ring.n
    xi = chart.xi
    rows = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if i == chart.pivot:
            rows[i][i] = xi * xi
            for j in chart.moving:
                if j != chart.pivot:
                    rows[i][j] = -(xi * ring.var(ring.names[j]))
        elif i in chart.moving:
            rows[i][i] = xi
        else:
            rows[i][i] = xi * xi
    return tuple(tuple(r) for r in rows)


def cleared_lift(rows, chart: BlowupChart, powers, what: str):
    """Carry frame-indexed rows of parent forms to the chart: pull each
    row back, multiply by ``_cleared_form_transform`` and divide row b
    by xi^powers[b].  A quotient that is not exact is a theorem check,
    reported as ``what`` not divisible by the exceptional coordinate."""
    pulled = tuple(tuple(chart.pullback(e) for e in row) for row in rows)
    raw = poly_mat_mul(pulled, _cleared_form_transform(chart), chart.ring)
    out = []
    for power, row in zip(powers, raw):
        if power:
            d = chart.xi**power
            quotients = []
            for e in row:
                q = divide_exact(e, d)
                if q is None:
                    raise TheoremCheckError(
                        f"{what} is not divisible by the exceptional "
                        f"coordinate: {e}"
                    )
                quotients.append(q)
            row = tuple(quotients)
        out.append(row)
    return tuple(out)


def twisted_cofactor(model: LocalModel):
    """The cofactor in the divisor-twisted frame: every entry divided by
    the divisor equation h_D, None where h_D does not divide it.  A model
    with no divisor (h_D = 1, every d-critical model) is its own twist."""
    if not model.divisor:
        return model.cofactor
    h = model.divisor_equation()
    return tuple(
        tuple(divide_exact(e, h) for e in row) for row in model.cofactor
    )


class WeakModelReport(Record):
    """Outcome of the structural checks of a weak local model: the twisted
    action pairing factors through the cofactor, the cofactor kills the
    section, and restriction to any closed-orbit fixed locus projects to
    zero along the stabilizer directions."""

    __slots__ = ("factorization", "composite_zero", "fixed_projection", "witnesses")

    @property
    def passed(self) -> bool:
        return self.factorization and self.composite_zero and self.fixed_projection


def check_weak_local_model(model: LocalModel) -> WeakModelReport:
    """Verify the weak local-model conditions symbolically.

    The factorization witness is ``model.sigma_lift``; a model without
    one passes that condition only when the action pairing vanishes
    (torus rank 0, or every weight 0), with the zero matrix as witness.
    Returns a report, never raises on a failing condition; every failure
    carries a polynomial witness.
    """
    ring = model.ring
    W = model.weights
    k = W.k
    r = model.bundle.rank
    witnesses: list[str] = []

    # condition: the cofactor composed with the section vanishes, and the
    # section is invariant (component weight opposite to its frame weight)
    composite_zero = True
    for b in range(r):
        comp = model.section[b]
        if comp.is_zero():
            continue
        w = poly_weight(comp, W)
        expected = tuple(-x for x in model.bundle.weights[b])
        if w != expected:
            composite_zero = False
            witnesses.append(
                f"composite_zero: component on {model.bundle.labels[b]} has "
                f"weight {w}, expected {expected}: {comp}"
            )
    for a in range(k):
        acc = Poly._sum_of_products(ring, zip(model.cofactor[a], model.section))
        if not acc.is_zero():
            composite_zero = False
            witnesses.append(
                f"composite_zero: cofactor row {a} pairs with the section to {acc}"
            )

    # condition: h_D divides the cofactor and the twisted pairing factors
    factorization = True
    h = model.divisor_equation()
    for a, row in enumerate(twisted_cofactor(model)):
        for b, q in enumerate(row):
            if q is None:
                factorization = False
                witnesses.append(
                    f"factorization: cofactor entry ({a},{b}) not divisible "
                    f"by the divisor equation {h}: {model.cofactor[a][b]}"
                )
    alpha = model.sigma_lift
    if alpha is None and not any(any(row) for row in W.rows):
        alpha = zero_matrix(ring, r, ring.n)
    if alpha is None:
        factorization = False
        witnesses.append(
            "factorization: no witness available and none could be derived"
        )
    else:
        prod = poly_mat_mul(model.cofactor, alpha, ring)
        for a in range(k):
            for i in range(ring.n):
                lhs = prod[a][i] if r else ring.zero()
                rhs = h.term_mul(ring.units[i], W.rows[a][i])
                if lhs != rhs:
                    factorization = False
                    witnesses.append(
                        f"factorization: row {a}, coordinate "
                        f"{ring.names[i]}: {lhs} != {rhs}"
                    )

    # condition: on each closed-orbit fixed locus, stabilizer directions
    # pair to zero
    fixed_projection = True
    for R in closed_orbit_stabilizers(W):
        moving = fixed_locus(W, R)
        for b in range(r):
            # setting the moving coordinates to zero keeps the terms free of them
            restricted = [
                Poly._make(
                    ring,
                    {
                        m: c
                        for m, c in model.cofactor[a][b].terms.items()
                        if not any(m[i] for i in moving)
                    },
                )
                for a in range(k)
            ]
            for c in R.cochar:
                acc = Poly._sum_of_products(ring, zip(map(ring.const, c), restricted))
                if not acc.is_zero():
                    fixed_projection = False
                    witnesses.append(
                        f"fixed_projection: stabilizer {c} on frame "
                        f"{model.bundle.labels[b]} leaves {acc}"
                    )
    return WeakModelReport(
        factorization, composite_zero, fixed_projection, tuple(witnesses)
    )


def blowup_local_model(
    model: LocalModel, center: Subtorus, chart: BlowupChart
) -> LocalModel:
    """Transport a weak local model to one blowup chart (see
    ``transport_model``); a torus of rank zero leaves it unchanged."""
    if model.weights.k == 0 or center.dim == 0:
        return model
    if not center.is_full():
        raise PreconditionError(
            "local-model transport is implemented for the full torus as center; "
            "smaller centers are handled at the ideal level"
        )
    if chart.parent_ring != model.ring or chart.center != center:
        raise PreconditionError("chart does not belong to this model and center")
    return transport_model(model, blowup_section(model, chart), chart)


def transport_model(
    model: LocalModel, section: tuple[Poly, ...], chart: BlowupChart
) -> LocalModel:
    """The weak local model on a chart of the full-torus blowup, given
    its blowup section there.  The bundle gains a xi twist on the
    section's moving frames, the divisor picks up the exceptional locus
    twice, and the cofactor and its factorization witness are rebuilt so
    the transported model passes the structural checks again.  Only a
    model with a witness can be transported: a potential's d-critical
    model has one, a section file has none."""
    alpha = model.sigma_lift
    if alpha is None:
        raise PreconditionError(
            "a section file carries no factorization witness for the action "
            "pairing; a Kirwan tree that starts at the full torus needs a "
            "potential file"
        )
    ring, moving = chart.ring, frame_moving(model, chart)
    pivot_w = chart.columns[chart.pivot]
    labels, weights = [], []
    for mov, lab, v in zip(moving, model.bundle.labels, model.bundle.weights):
        labels.append("xi*" + lab if mov else lab)
        weights.append(tuple(a + b for a, b in zip(v, pivot_w)) if mov else v)
    bundle = EquivariantBundle(labels, weights)
    divisor = pullback_divisor(model.divisor, chart)
    divisor[chart.exceptional] = divisor.get(chart.exceptional, 0) + 2

    cofactor = tuple(
        tuple(
            chart.shifted_pullback(e, 1 if moving[b] else 0)
            for b, e in enumerate(row)
        )
        for row in model.cofactor
    )
    lift = cleared_lift(
        alpha, chart, [int(m) for m in moving], "transported factorization witness"
    )
    out = LocalModel(
        ring,
        chart.weights,
        bundle,
        section,
        divisor,
        cofactor,
        sigma_lift=lift,
        potential=None,
        base_param=model.base_param,
    )
    report = check_weak_local_model(out)
    if not report.passed:
        raise TheoremCheckError(
            "transported local model failed its structural checks: "
            + "; ".join(report.witnesses)
        )
    return out


def embedding_independence_check(
    small: Ideal,
    big: Ideal,
    weights: WeightMatrix,
    aux,
    budget: Budget | None = None,
) -> bool:
    """Intrinsic ideals do not depend on the equivariant embedding.

    ``big`` must present the same locus as ``small`` inside the small
    ambient extended by auxiliary coordinates fixed by the torus.
    ``weights`` are the big ambient's; the small ambient's are read off
    them by name.  On every chart of the full-torus blowup, eliminating
    the auxiliary variables from the big intrinsic ideal must recover
    the small one exactly.
    """
    aux = tuple(str(a) for a in aux)
    small_names = set(small.ring.names)
    if set(big.ring.names) != small_names | set(aux) or small_names & set(aux):
        raise PreconditionError(
            "big ambient must be the small ambient plus the auxiliary coordinates"
        )
    index = big.ring.index
    center = Subtorus.full(weights.k)
    for a in aux:
        if any(center.restrict(weights.column(index[a]))):
            raise PreconditionError(
                f"auxiliary coordinate {a!r} must be fixed by the center"
            )
    small_weights = weights.with_columns(
        [weights.column(index[name]) for name in small.ring.names]
    )
    charts_small = make_charts(small.ring, small_weights, center)
    by_pivot = {
        c.parent_ring.names[c.pivot]: c for c in make_charts(big.ring, weights, center)
    }
    for cs in charts_small:
        cb = by_pivot[cs.parent_ring.names[cs.pivot]]
        ideal_small = intrinsic_ideal(small, cs, budget)
        dropped = eliminate(intrinsic_ideal(big, cb, budget), aux, budget)
        carried = Ideal(
            cs.ring, [g.rename_ring(cs.ring) for g in dropped.generators]
        )
        if not ideal_equal(carried, ideal_small, budget=budget):
            return False
    return True
