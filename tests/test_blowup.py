"""Blowup charts, intrinsic ideals, model transport, chart gluing, and
the embedding-independence check's refusals.  That the blowup section
cuts the intrinsic ideal on every chart is acceptance criterion 1, and
that elimination recovers the small intrinsic ideal is criterion 3."""

import itertools
from pathlib import Path

import pytest
from chart_maps import chart_images, subs
from hypothesis import assume, given, settings, strategies as st
from ref import charts_glue

from equiblow import (
    EquivariantBundle,
    Ideal,
    LocalModel,
    PreconditionError,
    Ring,
    Subtorus,
    WeightMatrix,
    action_pairing,
    blowup_local_model,
    blowup_section,
    buchberger,
    build_model,
    check_weak_local_model,
    cli,
    dcritical_chart,
    embedding_independence_check,
    intrinsic_ideal,
    load_model_file,
    make_charts,
    parse_poly,
)
from equiblow.blowup import exceptional_divide
from equiblow.errors import TheoremCheckError
from equiblow.poly import DEGREVLEX, Poly, divmod_multi
from equiblow.torus import (
    fixed_locus,
    isotypic_pieces,
    monomial_weight,
    restricted_columns,
)

R2 = Ring(["x", "y"])
R3 = Ring(["x", "y", "z"])
W2 = WeightMatrix([(1, -1)])
W3 = WeightMatrix([(1, -1, 0)])
FULL1 = Subtorus.full(1)


def test_chart_coordinates_and_weights():
    charts = make_charts(R3, W3, FULL1)
    assert [c.name for c in charts] == ["chart_x", "chart_y"]
    cx = charts[0]
    assert cx.ring.names == ("xi_x", "T_y", "z")
    assert cx.weights.rows == ((1, -2, 0),)
    cy = charts[1]
    assert cy.ring.names == ("T_x", "xi_y", "z")
    assert cy.weights.rows == ((2, -1, 0),)


def test_substitution_restores_parent_coordinates():
    charts = make_charts(R3, W3, FULL1)
    cx = charts[0]
    # x -> xi, y -> xi*T, z -> z
    images = [str(cx.pullback(R3.var(name))) for name in R3.names]
    assert images == ["xi_x", "xi_x*T_y", "z"]


def test_exceptional_divide_raises_when_xi_does_not_divide():
    cx = make_charts(R3, W3, FULL1)[0]
    x, y, z = (R3.var(name) for name in R3.names)
    assert str(exceptional_divide(x * z + y * z**2, cx)) == str(
        parse_poly("z + T_y*z^2", cx.ring)
    )
    with pytest.raises(TheoremCheckError):
        exceptional_divide(z, cx)


def test_make_charts_requires_a_moving_coordinate():
    with pytest.raises(PreconditionError):
        make_charts(R2, WeightMatrix([(0, 0)]), FULL1)


# names that chart renaming (T_ for a ratio, xi_ for the pivot) can hit
CLASHING_NAMES = ["x", "y", "z", "T_x", "T_y", "xi_x", "xi_y", "T_T_x", "xi_T_x"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_atlas_refuses_a_clash_as_building_every_chart_would(data):
    # reference: each chart's coordinate names, built in atlas order; the
    # first chart with a repeated name is the one refused
    n = data.draw(st.integers(1, 5))
    names = data.draw(
        st.lists(st.sampled_from(CLASHING_NAMES), min_size=n, max_size=n, unique=True)
    )
    row = data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
    assume(any(row))
    moving = [i for i, w in enumerate(row) if w]
    atlas, refused = [], None
    for pivot in moving:
        chart = [
            "xi_" + nm if i == pivot else "T_" + nm if i in moving else nm
            for i, nm in enumerate(names)
        ]
        clash = next((nm for nm in chart if chart.count(nm) > 1), None)
        if clash is not None:
            refused = (
                f"coordinate {clash!r} of chart_{names[pivot]} clashes with a "
                "model variable of the same name"
            )
            break
        atlas.append(tuple(chart))
    try:
        charts = make_charts(Ring(names), WeightMatrix([row]), FULL1)
    except PreconditionError as e:
        assert str(e) == refused
    else:
        assert refused is None
        assert [c.ring.names for c in charts] == atlas


def test_intrinsic_ideal_three_axes():
    I = Ideal(
        R3,
        [parse_poly("y*z", R3), parse_poly("x*z", R3), parse_poly("x*y", R3)],
    )
    charts = make_charts(R3, W3, FULL1)
    gb = buchberger(intrinsic_ideal(I, charts[0]))
    assert sorted(str(p) for p in gb.basis) == ["xi_x^2*T_y", "z"]
    gb = buchberger(intrinsic_ideal(I, charts[1]))
    assert sorted(str(p) for p in gb.basis) == ["T_x*xi_y^2", "z"]


def test_intrinsic_ideal_smooth_pair_empties_the_chart():
    I = Ideal(R2, [parse_poly("y", R2), parse_poly("x", R2)])
    for chart in make_charts(R2, W2, FULL1):
        gb = buchberger(intrinsic_ideal(I, chart))
        assert [str(p) for p in gb.basis] == ["1"]


def test_intrinsic_ideal_rejects_unstable_input():
    I = Ideal(R2, [parse_poly("x + 1", R2)])
    chart = make_charts(R2, W2, FULL1)[0]
    with pytest.raises(PreconditionError):
        intrinsic_ideal(I, chart)


def test_action_pairing_rows_scale_coordinates_by_weights():
    rows = action_pairing(R2, W2)
    assert [[str(e) for e in row] for row in rows] == [["x", "-y"]]


def test_dcritical_chart_shapes():
    model = dcritical_chart(parse_poly("1/2*x^2*y^2", R2), W2)
    assert model.bundle.labels == ("dx", "dy")
    assert model.bundle.weights == ((1,), (-1,))
    assert [str(s) for s in model.section] == ["x*y^2", "x^2*y"]
    assert model.potential is not None
    assert model.divisor == {}
    assert check_weak_local_model(model).passed


def test_dcritical_chart_rejects_non_invariant_potential():
    with pytest.raises(PreconditionError):
        dcritical_chart(parse_poly("x^2 + y", R2), W2)


def test_dcritical_chart_rejects_a_stray_base_parameter():
    # the refusal is LocalModel's, reached through the d-critical model
    with pytest.raises(ValueError, match="^base parameter 'z' is not a ring variable$"):
        dcritical_chart(parse_poly("x*y", R2), W2, base_param="z")


def test_weak_model_check_flags_wrong_frame_weights():
    model = dcritical_chart(parse_poly("1/2*x^2*y^2", R2), W2)
    broken = LocalModel(
        R2,
        W2,
        EquivariantBundle(model.bundle.labels, ((0,), (0,))),
        model.section,
        cofactor=model.cofactor,
        sigma_lift=model.sigma_lift,
        potential=model.potential,
    )
    rep = check_weak_local_model(broken)
    assert not rep.passed
    assert rep.witnesses


def test_transport_to_chart_carries_divisor_twist_and_frames():
    model = dcritical_chart(parse_poly("1/2*x^2*y^2", R2), W2)
    chart = make_charts(R2, W2, FULL1)[0]
    hat = blowup_local_model(model, FULL1, chart)
    assert hat.bundle.labels == ("xi*dx", "xi*dy")
    assert hat.bundle.weights == ((2,), (0,))
    assert hat.divisor == {"xi_x": 2}
    assert str(hat.divisor_equation()) == "xi_x^2"
    assert [str(s) for s in hat.section] == ["xi_x^2*T_y^2", "xi_x^2*T_y"]
    assert hat.weights.rows == ((1, -2),)
    assert check_weak_local_model(hat).passed


def test_blowup_section_divides_moving_components_once():
    model = dcritical_chart(parse_poly("x*y*z", R3), W3)
    charts = make_charts(R3, W3, FULL1)
    sec = blowup_section(model, charts[0])
    # section (yz, xz, xy): dx and dy frames moving, dz fixed
    assert [str(s) for s in sec] == ["T_y*z", "z", "xi_x^2*T_y"]


def test_embedding_independence_detects_a_real_difference():
    wide = Ring(["x", "y", "u"])
    wideW = WeightMatrix([(1, -1, 0)])
    small = dcritical_chart(parse_poly("x*y", R2), W2)
    bundle = EquivariantBundle(["e0", "e1"], [(1,), (-1,)])
    # the big ideal does not even contain u, so elimination keeps more
    big = LocalModel(
        wide,
        wideW,
        bundle,
        (parse_poly("y*u", wide), parse_poly("x*u", wide)),
    )
    atlas = make_charts(wide, wideW, FULL1)
    assert not embedding_independence_check(small.ideal, big.ideal, atlas, ("u",))


@pytest.mark.parametrize("names", [["x", "y", "v"], ["x"], ["x", "y", "u"]])
def test_embedding_independence_needs_the_big_ring_minus_the_auxiliaries(names):
    # the small ring must be the big ring without the auxiliary names
    wide = Ring(["x", "y", "u"])
    wideW = WeightMatrix([(1, -1, 0)])
    small = Ring(names)
    with pytest.raises(PreconditionError, match="big ambient must be"):
        embedding_independence_check(
            Ideal(small, [small.var("x")]),
            Ideal(wide, [wide.var("x"), wide.var("u")]),
            make_charts(wide, wideW, FULL1),
            ("u",),
        )


def test_corpus_chart_ideals_glue_on_overlaps():
    glued = 0
    for path in sorted((Path(cli.__file__).parent / "corpus").glob("*.kb")):
        built = build_model(load_model_file(str(path)))
        if not any(any(row) for row in built.weights.rows):
            continue  # trivial action: no blowup, no charts
        center = Subtorus.full(built.weights.k)
        charts = make_charts(built.ring, built.weights, center)
        ideals = [intrinsic_ideal(built.ideal, chart) for chart in charts]
        for a, b in itertools.permutations(range(len(charts)), 2):
            assert charts_glue(ideals[a], charts[a], ideals[b], charts[b]), (
                path.name,
                charts[a].name,
                charts[b].name,
            )
            glued += 1
    assert glued >= 18
    # each generator of a corpus chart ideal is homogeneous in the
    # coordinates the transition scales by powers of T, so a transition
    # off by such a power glues them too; this one's generator is not
    I = Ideal(R3, [parse_poly("x*y - x^2*y^2 + z", R3)])
    cx, cy = make_charts(R3, W3, FULL1)
    ix, iy = intrinsic_ideal(I, cx), intrinsic_ideal(I, cy)
    assert charts_glue(ix, cx, iy, cy) and charts_glue(iy, cy, ix, cx)
    # the oracle rejects a chart ideal that differs on the overlap
    I = Ideal(
        R3,
        [parse_poly("y*z", R3), parse_poly("x*z", R3), parse_poly("x*y", R3)],
    )
    cx, cy = make_charts(R3, W3, FULL1)
    assert not charts_glue(
        intrinsic_ideal(I, cx), cx, Ideal(cy.ring, [cy.ring.var("z")]), cy
    )


# ---------------------------------------------------------------------------
# the chart routine against substitution and long division


@st.composite
def charted_polys(draw):
    """A rank-1 or rank-2 weight matrix with a zero (fixed) column, a
    center with at least one moving coordinate, and a polynomial."""
    k = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=2, max_value=4))
    weight = st.tuples(*[st.integers(min_value=-2, max_value=2)] * k)
    cols = draw(st.lists(weight, min_size=n, max_size=n))
    cols[draw(st.integers(min_value=0, max_value=n - 1))] = (0,) * k
    weights = WeightMatrix([[c[a] for c in cols] for a in range(k)])
    if k == 2 and draw(st.booleans()):
        center = Subtorus([draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)]))], 2)
    else:
        center = Subtorus.full(k)
    assume(fixed_locus(weights, center))
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * n),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            max_size=6,
        )
    )
    return Ring(("x", "y", "z", "w")[:n]), weights, center, terms


@given(charted_polys())
@settings(max_examples=80)
def test_shifted_pullback_matches_substitution_and_long_division(case):
    ring, weights, center, terms = case
    p = Poly(ring, terms)
    pieces = isotypic_pieces(p, restricted_columns(weights, center), center.dim)
    for chart in make_charts(ring, weights, center):
        for q, moving in [(p, False)] + [(gp.part, any(gp.weight)) for gp in pieces]:
            pulled = subs(q, chart_images(chart), chart.ring)
            same = chart.shifted_pullback(q, 0)
            assert list(same.terms.items()) == list(pulled.terms.items())
            assert chart.pullback(q) == pulled
            assert chart.shifted_pullback(q, 1) == pulled * chart.xi
            divided = chart.shifted_pullback(q, -1)
            (quotient,), remainder = divmod_multi(pulled, [chart.xi], DEGREVLEX)
            assert divided == (quotient if remainder.is_zero() else None)
            if moving:
                assert divided is not None


# ---------------------------------------------------------------------------
# the atlas's shared restricted columns against per-term restriction


@st.composite
def atlas_cases(draw):
    """A rank 1 to 3 weight matrix, a center of any dimension from 1 to
    k (the full torus or a proper subtorus) with a moving coordinate,
    and a polynomial."""
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    weight = st.tuples(*[st.integers(min_value=-2, max_value=2)] * k)
    cols = draw(st.lists(weight, min_size=n, max_size=n))
    weights = WeightMatrix([[c[a] for c in cols] for a in range(k)])
    dim = draw(st.integers(min_value=1, max_value=k))
    if dim == k and draw(st.booleans()):
        center = Subtorus.full(k)
    else:
        rows = draw(st.lists(weight, min_size=dim, max_size=dim))
        try:
            center = Subtorus(rows, k)
        except PreconditionError:
            assume(False)
        assume(center.dim == dim)
    assume(fixed_locus(weights, center))
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * n),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            max_size=8,
        )
    )
    ring = Ring(("x", "y", "z", "w")[:n])
    return ring, weights, center, Poly(ring, terms)


@given(atlas_cases())
@settings(max_examples=150, deadline=None)
def test_atlas_columns_split_like_per_term_restriction(case):
    ring, weights, center, p = case
    reference: dict = {}
    for m, c in p.terms.items():
        w = center.restrict(monomial_weight(m, weights))
        reference.setdefault(w, {})[m] = c
    want = [(w, list(t.items())) for w, t in sorted(reference.items())]
    for chart in make_charts(ring, weights, center):
        assert chart.restricted == [center.restrict(c) for c in weights.columns()]
        assert chart.moving == fixed_locus(weights, center)
        pieces = isotypic_pieces(p, chart.restricted, center.dim)
        assert [(gp.weight, list(gp.part.terms.items())) for gp in pieces] == want
