"""GIT stability on blowup charts: the fiberwise convex-hull criterion,
unstable ideals, and pointwise verdicts with destabilizing witnesses.
The worked verdicts on the exceptional locus are acceptance
criterion 6."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from equiblow import (
    PreconditionError,
    Ring,
    Subtorus,
    WeightMatrix,
    hm_fiber_semistable,
    make_charts,
    point_semistable,
    unstable_ideal,
)
from equiblow.stability import one_ps_limit, point_to_chart
from ref import strict_destabilizer_exists

R3 = Ring(["x", "y", "z"])
W3 = WeightMatrix([(1, -1, 0)])
FULL1 = Subtorus.full(1)


def atlas3():
    return make_charts(R3, W3, FULL1)


def test_hm_rejects_empty_support():
    with pytest.raises(PreconditionError):
        hm_fiber_semistable((), [(1,), (-1,)])


def test_unstable_ideal_three_axes_charts():
    cx, cy = atlas3()
    assert sorted(str(p) for p in unstable_ideal(cx).generators) == ["T_y"]
    assert sorted(str(p) for p in unstable_ideal(cy).generators) == ["T_x"]


def test_unstable_ideal_of_rank_two_atlases():
    R4 = Ring(["x", "y", "z", "w"])
    W = WeightMatrix([(1, -1, 0, 0), (0, 0, 1, -1)])
    charts = {c.name: c for c in make_charts(R4, W, Subtorus.full(2))}
    gens = lambda c: sorted(str(p) for p in unstable_ideal(c).generators)  # noqa: E731
    assert gens(charts["chart_x"]) == ["T_y", "T_z*T_w"]
    assert gens(charts["chart_w"]) == ["T_x*T_y", "T_z"]
    # every fiber weight lies in one open half-plane: each chart is
    # wholly unstable, so its ideal has no generators
    onesign = make_charts(R3, WeightMatrix([(1, 1, 0), (0, 1, 1)]), Subtorus.full(2))
    assert len(onesign) == 3
    assert all(unstable_ideal(c).generators == () for c in onesign)


def test_point_off_the_exceptional_locus_flows_across_charts():
    cx = atlas3()[0]
    # xi != 0 identifies an honest orbit of the ambient space
    assert point_semistable((1, 1, 0), cx).semistable
    verdict = point_semistable((2, 0, 0), cx)
    assert not verdict.semistable


def test_unstable_witness_direction_actually_flows_to_zero():
    cx = atlas3()[0]
    verdict = point_semistable((1, 0, 0), cx)
    s = verdict.direction[0]
    for i, w in enumerate(cx.weights.rows[0]):
        # strictly positive pairing on every nonzero coordinate
        if verdict.limit is not None and (1, 0, 0)[i] != 0:
            assert s * w > 0


def test_rank_two_origin_flows_to_itself_on_chart_x():
    ring = Ring(["x", "y", "z", "w"])
    weights = WeightMatrix([(1, -1, 0, 0), (0, 0, 1, -1)])
    charts = make_charts(ring, weights, Subtorus.full(2))
    verdict = point_semistable((0, 0, 0, 0), charts[0])
    assert not verdict.semistable
    # the fiber support is the pivot x alone, of weight (1, 0)
    assert verdict.direction[0] > 0
    assert verdict.limit == (Fraction(0),) * 4
    assert verdict.chart == "chart_x"


@st.composite
def chart_points(draw):
    """A full-torus atlas of rank 1-3 with fiber weights in {-1, 0, 1},
    one of its charts, and a point of that chart."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(2, 5))
    rows = [draw(st.tuples(*[st.sampled_from((-1, 0, 1))] * n)) for _ in range(k)]
    assume(any(any(r) for r in rows))
    charts = make_charts(Ring([f"x{i}" for i in range(n)]), WeightMatrix(rows), Subtorus.full(k))
    chart = draw(st.sampled_from(charts))
    point = draw(st.tuples(*[st.sampled_from((0, 0, 1, -1, 2))] * n))
    return rows, charts, chart, point


@given(chart_points())
@settings(max_examples=150, deadline=None)
def test_point_verdicts_match_the_cochar_box_at_every_rank(case):
    rows, charts, chart, point = case
    column = lambda i: tuple(r[i] for r in rows)  # noqa: E731
    moving = [i for i in range(len(point)) if any(column(i))]
    support = [i for i in moving if i == chart.pivot or point[i] != 0]
    verdict = point_semistable(point, chart)
    # fiber weights lie in {-1, 0, 1}, so each minor of a vertex of the
    # normalized cone is at most 2 and Cramer's rule bounds it by 6
    assert verdict.semistable == (
        not strict_destabilizer_exists([column(i) for i in support], bound=6)
    )
    vanishes = all(g.evaluate(point) == 0 for g in unstable_ideal(chart).generators)
    assert vanishes == (not verdict.semistable)
    if verdict.semistable:
        return
    lam = verdict.direction
    pairing = {i: sum(a * b for a, b in zip(lam, column(i))) for i in support}
    assert min(pairing.values()) > 0
    (target,) = [c for c in charts if c.name == verdict.chart]
    assert pairing[target.pivot] == min(pairing.values())
    carried = point_to_chart(point, chart, target)
    assert verdict.limit is not None
    assert verdict.limit == one_ps_limit(carried, lam, target.weights)
