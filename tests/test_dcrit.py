"""Four-term complexes, obstruction assignments, section equivalence,
and cokernel comparison along embeddings.  The worked cohomology
dimensions are acceptance criterion 5, the two quartic equivalences
criterion 8, and the obstruction verdicts against the lift search
criterion 9."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from counting import count_calls
from scalars import is_canonical_scalar
from equiblow import (
    FourTermComplexAtPoint,
    LocalModel,
    Poly,
    PreconditionError,
    Ring,
    SmallExtension,
    Subtorus,
    TheoremCheckError,
    WeightMatrix,
    blowup_local_model,
    blowup_section,
    cohomology_dims,
    construct_equivalence,
    dcritical_chart,
    derivative_matrix,
    find_lift,
    four_term_at,
    lift_morphism_to_blowup,
    make_charts,
    obstruction_assignment,
    parse_poly,
    phi_ck_at_point,
    reduced_obstruction_dim,
    verify_omega_equivalence,
)
from equiblow.dcrit import _require_invariant
from equiblow.torus import isotypic_pieces

R1 = Ring(["x"])
R2 = Ring(["x", "y"])
R3 = Ring(["x", "y", "z"])
W0 = WeightMatrix([])
W2 = WeightMatrix([(1, -1)])
W3 = WeightMatrix([(1, -1, 0)])
F = Fraction


def square_model():
    return dcritical_chart(parse_poly("1/2*x^2*y^2", R2), W2)


def xyz_model():
    return dcritical_chart(parse_poly("x*y*z", R3), W3)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(*[st.integers(min_value=-1, max_value=1)] * 3), max_size=2
    ),
    st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
        st.fractions(min_value=-2, max_value=2, max_denominator=2),
        max_size=5,
    ),
)
@example([], {(1, 0, 0): 1})
@example([(1, -1, 0)], {})
@example([(1, -1, 0)], {(1, 1, 0): 1, (0, 0, 2): -1})
@example([(1, -1, 0)], {(1, 1, 0): 1, (1, 0, 0): -1})
@example([(1, -1, 0), (0, 1, -1)], {(2, 0, 0): 1})
def test_invariance_check_agrees_with_the_reynolds_projection(rows, terms):
    weights = WeightMatrix(rows)
    f = Poly(R3, terms)
    # f is invariant iff every isotypic piece has weight zero
    pieces = isotypic_pieces(f, weights.columns(), weights.k)
    if all(not any(gp.weight) for gp in pieces):
        _require_invariant(f, weights)
    else:
        with pytest.raises(PreconditionError) as info:
            _require_invariant(f, weights)
        assert str(info.value) == f"potential is not invariant: {f}"


# ---------------------------------------------------------------------------
# four-term complexes at points


def test_complex_matrices_square_at_smooth_point():
    K = four_term_at(square_model(), (F(1), F(0)))
    assert K.m0 == ((F(1),), (F(0),))
    assert K.m1 == ((F(0), F(0)), (F(0), F(1)))
    assert K.m2 == ((F(1), F(0)),)
    assert cohomology_dims(K) == (0, 0, 0, 0)


def test_complex_xyz_hessian_at_axis_point():
    K = four_term_at(xyz_model(), (F(1), F(0), F(0)))
    assert K.m1 == (
        (F(0), F(0), F(0)),
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
    )
    assert cohomology_dims(K) == (0, 0, 0, 0)


def test_complex_on_transported_model_uses_twisted_cofactor():
    model = xyz_model()
    center = Subtorus.full(1)
    chart = make_charts(R3, W3, center)[0]
    hat = blowup_local_model(model, center, chart)
    K = four_term_at(hat, (F(0), F(1), F(0)))
    assert K.m2 == ((F(1), F(-1), F(0)),)
    assert cohomology_dims(K) == (0, 1, 1, 0)


def test_complex_on_dcritical_model_divides_nothing(monkeypatch):
    # a d-critical model has no divisor, so its cofactor is already twisted
    from equiblow import dcrit

    def fail(*args, **kwargs):
        raise AssertionError("no division by h = 1")

    monkeypatch.setattr(dcrit, "divide_exact", fail)
    K = four_term_at(xyz_model(), (F(1), F(0), F(0)))
    assert K.m2 == ((F(1), F(0), F(0)),)


def test_complex_refuses_a_cofactor_the_divisor_does_not_divide():
    model = xyz_model()
    center = Subtorus.full(1)
    chart = make_charts(R3, W3, center)[0]
    hat = blowup_local_model(model, center, chart)
    xi, t_y, z = hat.ring.gens()
    broken = LocalModel(
        hat.ring,
        hat.weights,
        hat.bundle,
        hat.section,
        divisor=hat.divisor,
        cofactor=((xi, -xi * xi * t_y, hat.ring.zero()),),
        potential=hat.potential,
    )
    with pytest.raises(PreconditionError, match="not divisible by the divisor"):
        four_term_at(broken, (F(0), F(1), F(0)))


def test_complex_compositions_vanish_at_many_points():
    model = square_model()
    pts = [(F(a), F(0)) for a in range(1, 8)] + [(F(0), F(b)) for b in range(1, 8)]
    for pt in pts:
        # four_term_at raises loudly if a composition fails to vanish
        K = four_term_at(model, pt)
        h = cohomology_dims(K)
        assert h[0] - h[1] + h[2] - h[3] == model.bundle.rank - model.ring.n


def test_complex_constructor_rejects_nonvanishing_compositions():
    # the square model's matrices at (1, 0), then each composition broken
    m0 = ((F(1),), (F(0),))
    m1 = ((F(0), F(0)), (F(0), F(1)))
    m2 = ((F(1), F(0)),)
    K = FourTermComplexAtPoint((F(1), F(0)), m0, m1, m2, 1, 2, 2)
    assert cohomology_dims(K) == (0, 0, 0, 0)
    with pytest.raises(TheoremCheckError, match="twisted cofactor does not kill"):
        FourTermComplexAtPoint((F(1), F(0)), m0, m1, ((F(0), F(1)),), 1, 2, 2)
    with pytest.raises(TheoremCheckError, match="middle map does not kill"):
        FourTermComplexAtPoint((F(1), F(1)), ((F(1),), (F(1),)), m1, m2, 1, 2, 2)


def test_derivative_matrix_is_the_jacobian():
    rows = derivative_matrix((parse_poly("x*y", R2), parse_poly("x + y^2", R2)), R2)
    assert [[str(e) for e in row] for row in rows] == [["y", "x"], ["1", "2*y"]]


# ---------------------------------------------------------------------------
# reduced obstruction dimensions


def test_reduced_dim_warns_off_the_closed_orbit():
    model = square_model()
    with pytest.warns(UserWarning):
        d = reduced_obstruction_dim(model, (F(1), F(0)))
    assert d == 0


def test_reduced_dim_refuses_positive_dimensional_stabilizer():
    model = square_model()
    with pytest.raises(PreconditionError):
        reduced_obstruction_dim(model, (F(0), F(0)))


def test_reduced_dim_without_action_needs_no_orbit_checks():
    model = dcritical_chart(parse_poly("1/3*x^3", R1), W0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reduced_obstruction_dim(model, (F(0),)) == 1


# ---------------------------------------------------------------------------
# obstruction assignments for small extensions


def test_extension_must_land_in_the_locus():
    model = square_model()
    # (1, eps) leaves the critical locus at first order
    ext = SmallExtension(2, [(1,), (0, 1)])
    with pytest.raises(PreconditionError):
        obstruction_assignment(model, ext)


def test_axis_direction_extensions_on_the_square_model_lift():
    model = square_model()
    ext = SmallExtension(2, [(1, 1), (0,)])
    ob = obstruction_assignment(model, ext)
    assert ob.liftable
    assert find_lift(model, ext) is not None


def test_the_order_cap_bounds_the_extension_not_its_lift():
    model = square_model()
    top = SmallExtension.MAX_ORDER
    ext = SmallExtension(top, [(1, 1), (0,)])
    lift = find_lift(model, ext)
    assert lift.m == top + 1
    # the lift extends each series by one coefficient, canonical as the
    # constructor's are
    assert [c[:top] for c in lift.series] == list(ext.series)
    assert all(len(c) == top + 1 for c in lift.series)
    assert all(is_canonical_scalar(x) for c in lift.series for x in c)
    for m in (0, top + 1):
        with pytest.raises(PreconditionError, match=f"between 1 and {top}"):
            SmallExtension(m, [(1, 1), (0,)])


# ---------------------------------------------------------------------------
# omega equivalence


# f, g, ring, weights, then the A, B and hint found, the number of lift
# certificates computed and the number of Groebner bases.  Zero
# matrices pass on the first three pairs, so no certificate is needed.
# The first two saturate both sections by the hint, which leaves one
# generator set, and build the squared ideal for their nonzero
# residuals; the third has zero residuals and needs no basis.  On the
# last two the sections differ by a constant factor, which is no unit
# cofactor: the hint is 1 and each identity needs its correction, so
# both section bases, the squared ideal once and one tracked basis per
# certificate.
ZERO2 = [["0", "0"], ["0", "0"]]
EQUIVALENCES = {
    "quartic": ("1/2*x^2", "1/2*x^2 + x^4", R1, W0, [["0"]], [["0"]], "4*x^2 + 1", 0, 3),
    "square-pair": (
        "1/2*x^2*y^2", "1/2*x^2*y^2 + x^4*y^4", R2, W2, ZERO2, ZERO2, "4*x^2*y^2 + 1", 0, 3
    ),
    "reflexive": ("x*y", "x*y", R2, W2, ZERO2, ZERO2, "1", 0, 0),
    "scaled-square": ("3/2*x^2", "1/2*x^2", R1, W0, [["2"]], [["-2/9"]], "1", 2, 5),
    "scaled-product": (
        "x*y",
        "2*x*y",
        R2,
        W2,
        [["0", "-1/4"], ["-1/4", "0"]],
        [["0", "1"], ["1", "0"]],
        "1",
        2,
        5,
    ),
}


@pytest.mark.parametrize("case", EQUIVALENCES.values(), ids=EQUIVALENCES.keys())
def test_construct_equivalence_computes_only_the_corrections_it_returns(monkeypatch, case):
    from equiblow import dcrit, groebner

    f, g, ring, weights, want_A, want_B, want_hint, certificates, bases = case
    lifts = count_calls(monkeypatch, dcrit, "lift_certificate")
    buchbergers = count_calls(monkeypatch, groebner, "buchberger")
    A, B, hint = construct_equivalence(parse_poly(f, ring), parse_poly(g, ring), weights)
    assert [[str(e) for e in row] for row in A] == want_A
    assert [[str(e) for e in row] for row in B] == want_B
    assert str(hint) == want_hint
    assert len(lifts) == certificates
    assert len(buchbergers) == bases


def test_equivalence_is_reflexive_with_unit_cofactor_one():
    f = parse_poly("x*y", R2)
    A, B, h = construct_equivalence(f, f, W2)
    assert str(h) == "1"
    model = dcritical_chart(f, W2)
    rep = verify_omega_equivalence(model, model.section, A=A, B=B, hint=h)
    assert rep.passed


def test_different_ideals_fail_the_first_condition():
    model = dcritical_chart(parse_poly("x*y", R2), W2)
    shifted = (parse_poly("y", R2), parse_poly("x + 1", R2))
    rep = verify_omega_equivalence(model, shifted)
    assert not rep.same_ideal
    assert not rep.passed


def test_manual_correction_matrix_passes_and_lifts_to_both_charts():
    f = parse_poly("1/2*x^2*y^2", R2)
    g = parse_poly("1/2*x^2*y^2 + x^4*y^4", R2)
    model = dcritical_chart(f, W2)
    gbar = tuple(g.derivative(i) for i in range(2))
    h = parse_poly("1 + 4*x^2*y^2", R2)
    zero = R2.zero()
    A = ((zero, zero), (zero, zero))
    B = ((parse_poly("2*x^2", R2), zero), (zero, zero))
    assert verify_omega_equivalence(model, gbar, A=A, B=B, hint=h).passed

    center = Subtorus.full(1)
    g_model = dcritical_chart(g, W2)
    expected = {
        "chart_x": [["2*xi_x^3", "0"], ["-2*xi_x^2*T_y", "0"]],
        "chart_y": [["2*T_x^2*xi_y^2", "0"], ["0", "0"]],
    }
    for chart in make_charts(R2, W2, center):
        Bhat = lift_morphism_to_blowup(B, model, chart)
        assert [[str(e) for e in row] for row in Bhat] == expected[chart.name]
        hat = blowup_local_model(model, center, chart)
        gbar_hat = blowup_section(g_model, chart)
        h_hat = chart.pullback(h)
        Ahat = lift_morphism_to_blowup(A, model, chart)
        rep = verify_omega_equivalence(hat, gbar_hat, A=Ahat, B=Bhat, hint=h_hat)
        assert rep.passed


def test_correction_on_a_fixed_frame_lifts_to_both_charts():
    # frame dz of x*y*z is fixed by the torus: its column is divided by
    # xi^2 after the cleared transform, the moving columns by xi
    model = xyz_model()
    p = lambda s: parse_poly(s, R3)
    A = (
        (p("x^2"), p("0"), p("x")),
        (p("z"), p("y^2*z"), p("y*z")),
        (p("0"), p("y"), p("x*y + z^2")),
    )
    expected = {
        "chart_x": [
            ["xi_x^3", "0", "xi_x"],
            ["-xi_x^2*T_y + z", "xi_x^2*T_y^2*z", "T_y*z - T_y"],
            ["0", "xi_x^2*T_y", "xi_x^2*T_y + z^2"],
        ],
        "chart_y": [
            ["T_x^2*xi_y^2 - T_x*z", "-T_x*xi_y^2*z", "-T_x*z + T_x"],
            ["xi_y*z", "xi_y^3*z", "xi_y*z"],
            ["0", "xi_y^2", "T_x*xi_y^2 + z^2"],
        ],
    }
    for chart in make_charts(R3, W3, Subtorus.full(1)):
        Ahat = lift_morphism_to_blowup(A, model, chart)
        assert [[str(e) for e in row] for row in Ahat] == expected[chart.name]


def test_construct_equivalence_refuses_unrelated_sections():
    f = parse_poly("x*y", R2)
    g = parse_poly("x^2*y^2", R2)
    with pytest.raises(PreconditionError):
        construct_equivalence(f, g, W2)


# ---------------------------------------------------------------------------
# cokernel comparison along an embedding


def test_cokernel_comparison_smooth_pair(monkeypatch):
    from equiblow import groebner

    R2u = Ring(["x", "y", "u"])
    W2u = WeightMatrix([(1, -1, 0)])
    small = dcritical_chart(parse_poly("x*y", R2), W2)
    big = dcritical_chart(parse_poly("x*y + 1/2*u^2", R2u), W2u)
    buchbergers = count_calls(monkeypatch, groebner, "buchberger")
    cmp_ = phi_ck_at_point(small, big, (F(0), F(0)))
    assert cmp_.compatible
    assert cmp_.dim_small == 0 and cmp_.dim_big == 0
    # the restricted section is the small one, so its check needs no basis
    assert buchbergers == []


def test_cokernel_comparison_square_pair():
    R2u = Ring(["x", "y", "u"])
    W2u = WeightMatrix([(1, -1, 0)])
    small = square_model()
    big = dcritical_chart(parse_poly("1/2*x^2*y^2 + 1/2*u^2", R2u), W2u)
    cmp_ = phi_ck_at_point(small, big, (F(0), F(0)))
    assert cmp_.compatible
    assert cmp_.dim_small == 2 and cmp_.dim_big == 2


def test_cokernel_comparison_detects_dimension_jump():
    R2u = Ring(["x", "y", "u"])
    W2u = WeightMatrix([(1, -1, 0)])
    small = square_model()
    big = dcritical_chart(parse_poly("1/2*x^2*y^2 + u^3", R2u), W2u)
    cmp_ = phi_ck_at_point(small, big, (F(0), F(0)))
    assert not cmp_.compatible
    assert (cmp_.dim_small, cmp_.dim_big) == (2, 3)
