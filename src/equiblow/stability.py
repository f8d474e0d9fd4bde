"""Instability analysis on blowup charts.

Two pointwise rules, applied with strict precedence: a point on the
exceptional locus is judged by the convex-hull test on its fiber support,
while a point off it is unstable exactly when some one-parameter flow
drags its orbit into the exceptional-unstable set.  For a rank-one torus
the unstable set has a clean coordinate-subspace closure, exposed as an
ideal; higher ranks get pointwise verdicts only.
"""

import functools
from fractions import Fraction

from .errors import PreconditionError, TheoremCheckError
from .groebner import Ideal
from .linalg import primitive, zero_in_convex_hull
from .blowup import BlowupChart
from .torus import WeightMatrix


class StabilityVerdict:
    """Verdict for one point: semistable, or unstable with a witness.

    The witness is the destabilizing one-parameter direction together
    with the limit point reached and the chart where the limit lives.
    """

    __slots__ = ("semistable", "direction", "limit", "chart")

    def __init__(self, semistable, direction=None, limit=None, chart=None):
        semistable = bool(semistable)
        if semistable and direction is not None:
            raise ValueError("semistable verdicts carry no witness")
        if not semistable and direction is None:
            raise ValueError("unstable verdicts need a witness direction")
        self.semistable = semistable
        self.direction = None if direction is None else tuple(int(x) for x in direction)
        self.limit = None if limit is None else tuple(Fraction(x) for x in limit)
        self.chart = chart

    def __repr__(self):
        if self.semistable:
            return "StabilityVerdict(semistable)"
        return (
            f"StabilityVerdict(unstable, direction={self.direction}, "
            f"limit={self.limit}, chart={self.chart})"
        )


class SemistableLocus:
    """Constructible description of the semistable part of a chart: the
    scheme ideal minus the vanishing set of the unstable ideal."""

    __slots__ = ("chart", "scheme", "unstable")

    def __init__(self, chart, scheme: Ideal, unstable: Ideal):
        self.chart = chart
        self.scheme = scheme
        self.unstable = unstable

    def contains_point(self, point) -> bool:
        point = tuple(Fraction(x) for x in point)
        if any(not g.evaluate(point) == 0 for g in self.scheme.generators):
            return False
        # V(unstable) is excluded; an empty generator list cuts everything
        return not all(g.evaluate(point) == 0 for g in self.unstable.generators)

    def __repr__(self):
        name = self.chart.name if self.chart is not None else None
        return f"SemistableLocus(chart={name})"


def hm_fiber_semistable(support, fiber_weights) -> bool:
    """Convex-hull semistability test for a projective fiber point.

    The point is described by the set of its nonzero homogeneous
    coordinates; it is semistable exactly when 0 lies in the convex hull
    of the corresponding weights.  Weights may be integers (rank one) or
    integer tuples.
    """
    support = sorted(set(int(i) for i in support))
    if not support:
        raise PreconditionError("a projective point has nonempty support")
    vectors = []
    for i in support:
        w = fiber_weights[i]
        vectors.append((int(w),) if isinstance(w, int) else tuple(int(x) for x in w))
    return zero_in_convex_hull(vectors)


def one_ps_limit(point, lam, weights: WeightMatrix):
    """Limit of the point under the one-parameter flow toward zero.

    The limit exists exactly when every coordinate of negative pairing
    with the direction already vanishes; it keeps zero-pairing
    coordinates and kills positive ones.  Returns None when no limit
    exists.
    """
    point = tuple(Fraction(x) for x in point)
    lam = tuple(int(x) for x in lam)
    if len(lam) != weights.k:
        raise ValueError("direction length must match the torus rank")
    if weights.k and len(point) != weights.n:
        raise ValueError("point length must match the weight matrix")
    pairings = [
        sum(lam[a] * weights.rows[a][i] for a in range(weights.k))
        for i in range(len(point))
    ]
    for i, mu in enumerate(pairings):
        if mu < 0 and point[i] != 0:
            return None
    return tuple(
        Fraction(0) if pairings[i] > 0 else point[i] for i in range(len(point))
    )


def _angular_key():
    def half(v):
        x, y = v
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return ha - hb
        cross = a[0] * b[1] - a[1] * b[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return functools.cmp_to_key(cmp)


def candidate_directions(columns) -> list[tuple[int, ...]]:
    """Finite set of one-parameter directions sufficient for limit search.

    Flow behavior only changes across the hyperplanes orthogonal to the
    weight columns, so for rank one the two signs suffice and for rank
    two the wall rays together with sums of angularly adjacent rays hit
    every cone of the refined fan.  Higher ranks are out of scope.
    """
    columns = [tuple(int(x) for x in c) for c in columns]
    if not columns:
        raise PreconditionError("no weight columns to build directions from")
    d = len(columns[0])
    if d == 0:
        return []
    if d == 1:
        return [(1,), (-1,)]
    if d != 2:
        raise PreconditionError(
            "unsupported: one-parameter direction search is implemented for "
            "torus rank at most two"
        )
    rays = set()
    for w in columns:
        if w == (0, 0):
            continue
        r = primitive((-w[1], w[0]))
        rays.add(r)
        rays.add((-r[0], -r[1]))
    if not rays:
        return [(1, 0), (0, 1), (-1, 0), (0, -1)]
    ordered = sorted(rays, key=_angular_key())
    out = list(ordered)
    if len(ordered) == 2:
        # collinear columns: the two rays sum to zero, so add the normals
        # to their line, which point along the columns
        a, b = ordered[0]
        out += [(-b, a), (b, -a)]
    m = len(ordered)
    for i in range(m):
        a = ordered[i]
        b = ordered[(i + 1) % m]
        s = (a[0] + b[0], a[1] + b[1])
        if s != (0, 0):
            s = primitive(s)
            if s not in rays:
                out.append(s)
    return out


def _restricted_weights(chart: BlowupChart, ambient: bool) -> WeightMatrix:
    base = chart.parent_weights if ambient else chart.weights
    rows = []
    for c in chart.center.cochar:
        rows.append(
            tuple(
                sum(c[a] * base.rows[a][i] for a in range(base.k))
                for i in range(base.n)
            )
        )
    return WeightMatrix(rows)


def point_to_chart(point, source: BlowupChart, target: BlowupChart):
    """Coordinates of the same blowup point in an overlapping chart, or
    None when the point lies outside the overlap."""
    if source.parent_ring != target.parent_ring or source.center != target.center:
        raise PreconditionError("charts belong to different blowups")
    point = tuple(Fraction(x) for x in point)
    if source.pivot == target.pivot:
        return point
    t = point[target.pivot]
    if t == 0:
        return None
    out = []
    for i in range(len(point)):
        if i == target.pivot:
            out.append(point[source.pivot] * t)
        elif i == source.pivot:
            out.append(1 / t)
        elif i in source.moving:
            out.append(point[i] / t)
        else:
            out.append(point[i])
    return tuple(out)


def _fiber_support(point, chart: BlowupChart) -> list[int]:
    support = [chart.pivot]
    for i in chart.moving:
        if i != chart.pivot and point[i] != 0:
            support.append(i)
    return sorted(support)


def point_semistable(point, chart: BlowupChart, atlas=None) -> StabilityVerdict:
    """Stability verdict for a rational point of a blowup chart.

    On the exceptional locus the fiber convex-hull rule decides; off it
    the candidate one-parameter flows are searched across every atlas
    chart containing the point, looking for a limit inside the
    exceptional-unstable set.
    """
    point = tuple(Fraction(x) for x in point)
    if len(point) != chart.ring.n:
        raise ValueError("point length must match the chart")
    if atlas is None:
        atlas = [chart]
    elif all(c.name != chart.name for c in atlas):
        atlas = [chart] + list(atlas)
    fiber = _restricted_weights(chart, ambient=True)
    exc_pos = chart.pivot

    if point[exc_pos] == 0:
        support = _fiber_support(point, chart)
        weights = [fiber.column(i) for i in range(fiber.n)]
        if hm_fiber_semistable(support, weights):
            return StabilityVerdict(True)
        direction = None
        for lam in candidate_directions([fiber.column(i) for i in support]):
            pair = [
                sum(lam[a] * fiber.column(i)[a] for a in range(len(lam)))
                for i in support
            ]
            if all(x > 0 for x in pair):
                direction = lam
                break
        if direction is None:
            raise TheoremCheckError(
                "no separating direction found for a hull-unstable fiber point"
            )
        for other in atlas:
            carried = point_to_chart(point, chart, other)
            if carried is None:
                continue
            limit = one_ps_limit(carried, direction, _restricted_weights(other, False))
            if limit is not None:
                return StabilityVerdict(False, direction, limit, other.name)
        return StabilityVerdict(False, direction, None, chart.name)

    for other in atlas:
        carried = point_to_chart(point, chart, other)
        if carried is None:
            continue
        chart_w = _restricted_weights(other, ambient=False)
        fiber_w = _restricted_weights(other, ambient=True)
        weights = [fiber_w.column(i) for i in range(fiber_w.n)]
        for lam in candidate_directions(chart_w.columns()):
            limit = one_ps_limit(carried, lam, chart_w)
            if limit is None or limit[other.pivot] != 0:
                continue
            support = _fiber_support(limit, other)
            if not hm_fiber_semistable(support, weights):
                return StabilityVerdict(False, lam, limit, other.name)
    return StabilityVerdict(True)


def unstable_ideal(chart: BlowupChart) -> Ideal:
    """Ideal of the closure of the unstable set of a rank-one chart.

    One flow direction drives points into the exceptional-unstable set:
    its basin is cut by the ratio coordinates of opposite weight sign to
    the pivot.  The other direction contributes nothing, since no flow
    can reach the exceptional locus against the pivot's sign.  The
    exceptional-unstable set itself lies inside that basin closure.
    """
    if chart.center.dim != 1:
        raise PreconditionError("unsupported: use point_semistable above rank one")
    ring = chart.ring
    fiber = _restricted_weights(chart, ambient=True)
    w = [fiber.column(i)[0] for i in range(fiber.n)]
    wk = w[chart.pivot]
    names = chart.parent_ring.names
    return Ideal(
        ring,
        [
            ring.var("T_" + names[i])
            for i in chart.moving
            if i != chart.pivot and w[i] * wk < 0
        ],
    )


def semistable_locus(
    scheme_ideal: Ideal, chart: BlowupChart | None = None
) -> SemistableLocus:
    """Pair a chart ideal with its unstable ideal.

    Without a chart (a trivially-acting stage) nothing is unstable and
    the excluded locus is empty.
    """
    if chart is None:
        ring = scheme_ideal.ring
        return SemistableLocus(None, scheme_ideal, Ideal(ring, [ring.one()]))
    if scheme_ideal.ring != chart.ring:
        raise PreconditionError("scheme ideal does not live in the chart ring")
    return SemistableLocus(chart, scheme_ideal, unstable_ideal(chart))
