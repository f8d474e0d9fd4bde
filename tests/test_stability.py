"""GIT stability on blowup charts: the fiberwise convex-hull criterion,
unstable ideals, and pointwise verdicts with destabilizing witnesses.
The worked verdicts on the exceptional locus are acceptance
criterion 6."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bench_models import BENCH_MODELS
from counting import count_calls
from equiblow import (
    PreconditionError,
    Ring,
    Subtorus,
    WeightMatrix,
    hm_fiber_semistable,
    make_charts,
    point_semistable,
    stability,
    unstable_ideal,
)
from equiblow.modelfile import build_model, parse_model_text
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


def reference_limit(columns, pivot, point, direction):
    """The limit pivot and limit point of an unstable point of the
    full-torus chart of ``pivot`` under ``direction``, worked from the
    model's weight columns: the limit chart's pivot is the first moving
    coordinate of the fiber support with the least pairing, the point is
    carried there by the ratio maps, and each coordinate whose chart
    weight pairs positively flows to 0."""
    pair = lambda col: sum(a * b for a, b in zip(direction, col))  # noqa: E731
    moving = [i for i, col in enumerate(columns) if any(col)]
    support = [i for i in moving if i == pivot or point[i] != 0]
    lowest = min(pair(columns[i]) for i in support)
    target = next(i for i in support if pair(columns[i]) == lowest)
    carried = list(map(Fraction, point))
    if target != pivot:
        t = carried[target]
        for i in moving:
            carried[i] = Fraction(point[i]) / t
        carried[target] = point[pivot] * t
        carried[pivot] = 1 / t
    limit = []
    for i, q in enumerate(carried):
        weight = columns[i]
        if i in moving and i != target:
            weight = [a - b for a, b in zip(columns[i], columns[target])]
        mu = pair(weight)
        if mu < 0 and q != 0:
            return target, None
        limit.append(0 if mu > 0 else q)
    return target, tuple(limit)


@pytest.mark.parametrize("name", ["heavy.kb", "rank2.kb"])
def test_every_limit_lies_on_a_chart_of_the_queried_charts_atlas(monkeypatch, name):
    built = build_model(parse_model_text(BENCH_MODELS[name]))
    columns = built.weights.columns()
    carried = count_calls(monkeypatch, stability, "point_to_chart")
    rng = random.Random(name)
    elsewhere = 0
    for chart in built.atlas:
        assert chart.atlas is built.atlas
        unstable = 0
        while unstable < 12:
            point = tuple(
                rng.choice((0, 0, 1, -1, 2, Fraction(1, 2))) for _ in range(chart.ring.n)
            )
            carried.clear()
            verdict = point_semistable(point, chart)
            if verdict.semistable:
                continue
            unstable += 1
            # the chart the limit was taken on is one of chart.atlas
            ((_, source, target), _) = carried[0]
            assert source is chart
            assert any(target is c for c in chart.atlas)
            assert target.name == verdict.chart
            pivot, limit = reference_limit(columns, chart.pivot, point, verdict.direction)
            assert target.pivot == pivot
            assert verdict.limit == limit
            elsewhere += target is not chart
    assert elsewhere > 0
