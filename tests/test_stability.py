"""GIT stability on blowup charts: the fiberwise convex-hull criterion,
unstable ideals, and pointwise verdicts with destabilizing witnesses."""

import itertools
from fractions import Fraction

import pytest

from equiblow import (
    Ideal,
    PreconditionError,
    Ring,
    Subtorus,
    WeightMatrix,
    hm_fiber_semistable,
    make_charts,
    parse_poly,
    point_semistable,
    semistable_locus,
    unstable_ideal,
)
from equiblow.stability import candidate_directions

R3 = Ring(["x", "y", "z"])
W3 = WeightMatrix([(1, -1, 0)])
FULL1 = Subtorus.full(1)


def atlas3():
    return make_charts(R3, W3, FULL1)


def strict_destabilizer_exists(cols, bound=4):
    """Grid oracle: a cochar with strictly positive pairing against every
    support weight exists iff one exists with entries within the bound
    (the defining data below stays in {-1,0,1}, so vertices of the
    normalized cone have coordinates within 2)."""
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


def test_hm_criterion_matches_limit_oracle_on_all_sign_patterns():
    for k in (1, 2):
        for dim in (1, 2, 3):
            for flat in itertools.product((-1, 0, 1), repeat=k * dim):
                cols = [tuple(flat[i * k : (i + 1) * k]) for i in range(dim)]
                got = hm_fiber_semistable(tuple(range(dim)), cols)
                assert got == (not strict_destabilizer_exists(cols))


def test_hm_rejects_empty_support():
    with pytest.raises(PreconditionError):
        hm_fiber_semistable((), [(1,), (-1,)])


def test_unstable_ideal_three_axes_charts():
    cx, cy = atlas3()
    assert sorted(str(p) for p in unstable_ideal(cx).generators) == ["T_y"]
    assert sorted(str(p) for p in unstable_ideal(cy).generators) == ["T_x"]


def test_unstable_ideal_needs_rank_one_center():
    R4 = Ring(["x", "y", "z", "w"])
    W = WeightMatrix([(1, -1, 0, 0), (0, 0, 1, -1)])
    chart = make_charts(R4, W, Subtorus.full(2))[0]
    with pytest.raises(PreconditionError):
        unstable_ideal(chart)


def test_point_verdicts_on_the_exceptional_locus():
    cx = atlas3()[0]
    atlas = atlas3()
    assert point_semistable((0, 1, 0), cx, atlas).semistable
    assert point_semistable((0, 1, 5), cx, atlas).semistable
    bad = point_semistable((1, 0, 0), cx, atlas)
    assert not bad.semistable
    assert bad.direction == (1,)
    assert bad.limit == (Fraction(0),) * 3


def test_point_off_the_exceptional_locus_flows_across_charts():
    cx = atlas3()[0]
    atlas = atlas3()
    # xi != 0 identifies an honest orbit of the ambient space
    assert point_semistable((1, 1, 0), cx, atlas).semistable
    verdict = point_semistable((2, 0, 0), cx, atlas)
    assert not verdict.semistable


def test_unstable_witness_direction_actually_flows_to_zero():
    cx = atlas3()[0]
    verdict = point_semistable((1, 0, 0), cx, atlas3())
    s = verdict.direction[0]
    for i, w in enumerate(cx.weights.rows[0]):
        # strictly positive pairing on every nonzero coordinate
        if verdict.limit is not None and (1, 0, 0)[i] != 0:
            assert s * w > 0


def test_semistable_locus_pairs_scheme_and_unstable():
    cx = atlas3()[0]
    scheme = Ideal(cx.ring, [parse_poly("z", cx.ring)])
    loc = semistable_locus(scheme, cx)
    assert loc.chart is cx
    assert sorted(str(p) for p in loc.unstable.generators) == ["T_y"]


def test_semistable_locus_without_chart_excludes_nothing():
    scheme = Ideal(R3, [parse_poly("z", R3)])
    loc = semistable_locus(scheme)
    assert loc.chart is None
    assert [str(p) for p in loc.unstable.generators] == ["1"]


def test_collinear_columns_give_directions_along_their_line():
    assert (1, 0) in candidate_directions([(1, 0)])
    assert (-1, 0) in candidate_directions([(2, 0), (-1, 0)])
    ring = Ring(["x", "y", "z", "w"])
    weights = WeightMatrix([(1, -1, 0, 0), (0, 0, 1, -1)])
    charts = make_charts(ring, weights, Subtorus.full(2))
    verdict = point_semistable((0, 0, 0, 0), charts[0], charts)
    assert not verdict.semistable
    assert verdict.direction == (1, 0)
