"""Instability analysis on blowup charts.

One rule for every point and every torus rank: the torus acts
diagonally, so a chart point is unstable exactly when 0 lies outside the
convex hull of the center-restricted fiber weights of its fiber support
(the pivot and the moving coordinates with T_i != 0), on the exceptional
locus and off it.  An unstable verdict carries the hull LP's separating
direction and the limit of the point under it.  The same rule gives the
unstable locus of a chart, a union of coordinate subspaces exposed as a
squarefree monomial ideal.
"""

import itertools

from .errors import PreconditionError
from .groebner import Ideal
from .linalg import separating_direction
from .blowup import BlowupChart
from .poly import canon, exact_div
from .record import Record
from .torus import WeightMatrix, restricted_columns


class StabilityVerdict(Record):
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
        Record.__init__(
            self,
            semistable,
            None if direction is None else tuple(int(x) for x in direction),
            None if limit is None else tuple(map(canon, limit)),
            chart,
        )


def hm_fiber_semistable(support, fiber_weights) -> bool:
    """Convex-hull semistability test for a projective fiber point.

    The point is described by the set of its nonzero homogeneous
    coordinates; it is semistable exactly when 0 lies in the convex hull
    of the corresponding weight tuples.
    """
    support = sorted(set(int(i) for i in support))
    if not support:
        raise PreconditionError("a projective point has nonempty support")
    return separating_direction([fiber_weights[i] for i in support]) is None


def one_ps_limit(point, lam, weights: WeightMatrix):
    """Limit of the point under the one-parameter flow toward zero.

    The limit exists exactly when every coordinate of negative pairing
    with the direction already vanishes; it keeps zero-pairing
    coordinates and kills positive ones.  Returns None when no limit
    exists.
    """
    point = tuple(map(canon, point))
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
        0 if pairings[i] > 0 else point[i] for i in range(len(point))
    )


def point_to_chart(point, source: BlowupChart, target: BlowupChart):
    """Coordinates of the same blowup point in an overlapping chart, or
    None when the point lies outside the overlap."""
    if source.parent_ring != target.parent_ring or source.center != target.center:
        raise PreconditionError("charts belong to different blowups")
    point = tuple(map(canon, point))
    if source.pivot == target.pivot:
        return point
    t = point[target.pivot]
    if t == 0:
        return None
    out = []
    for i in range(len(point)):
        if i == target.pivot:
            out.append(canon(point[source.pivot] * t))
        elif i == source.pivot:
            out.append(exact_div(1, t))
        elif i in source.moving:
            out.append(exact_div(point[i], t))
        else:
            out.append(point[i])
    return tuple(out)


def _fiber_support(point, chart: BlowupChart) -> list[int]:
    support = [chart.pivot]
    for i in chart.moving:
        if i != chart.pivot and point[i] != 0:
            support.append(i)
    return sorted(support)


def point_semistable(point, chart: BlowupChart) -> StabilityVerdict:
    """Stability verdict for a rational point of a blowup chart.

    The action is diagonal, so the point is unstable exactly when 0 lies
    outside the convex hull of the center-restricted fiber weights of its
    fiber support, on the exceptional locus and off it alike.  The
    witness is the separating direction lambda of the hull LP, and the
    limit is taken on the first chart of ``chart.atlas`` whose pivot
    minimises lambda . w over the support: there every ratio coordinate
    pairs non-negatively with lambda and the exceptional coordinate
    positively.  No verdict builds a chart.
    """
    point = tuple(map(canon, point))
    if len(point) != chart.ring.n:
        raise ValueError("point length must match the chart")
    fiber = chart.restricted
    support = _fiber_support(point, chart)
    direction = separating_direction([fiber[i] for i in support])
    if direction is None:
        return StabilityVerdict(True)
    pairing = {i: sum(a * b for a, b in zip(direction, fiber[i])) for i in support}
    lowest = min(pairing.values())
    # the support lies in chart.moving, so some chart's pivot attains
    # the minimum
    other = next(c for c in chart.atlas if pairing.get(c.pivot) == lowest)
    carried = point_to_chart(point, chart, other)
    limits = WeightMatrix(zip(*restricted_columns(other.weights, other.center)))
    limit = one_ps_limit(carried, direction, limits)
    return StabilityVerdict(False, direction, limit, other.name)


def unstable_ideal(chart: BlowupChart) -> Ideal:
    """Ideal of the unstable locus of a chart, for a center of any
    dimension.

    A point's verdict depends only on its fiber support, and a smaller
    support of an unstable one is unstable too, so the locus is a union
    of coordinate subspaces.  Its ideal is generated by the squarefree
    monomials T^tau over the minimal sets tau of ratio coordinates with
    {pivot} + tau semistable; by Caratheodory |tau| <= center dim + 1.
    Without generators the ideal is zero: the whole chart is unstable.
    """
    ring = chart.ring
    fiber = chart.restricted
    ratios = [i for i in chart.moving if i != chart.pivot]
    minimal: list[set[int]] = []
    for size in range(1, chart.center.dim + 2):
        for tau in itertools.combinations(ratios, size):
            if not any(m.issubset(tau) for m in minimal) and hm_fiber_semistable(
                (chart.pivot,) + tau, fiber
            ):
                minimal.append(set(tau))
    generators = []
    for tau in minimal:
        g = ring.one()
        for i in sorted(tau):
            g = g * ring.var(ring.names[i])
        generators.append(g)
    return Ideal(ring, generators)
