"""Families over a base parameter: specialization and commutation of the
blowup with passing to a fiber.  Commutation at 0, 1 and -2 on the
corpus family is acceptance criterion 10."""

from fractions import Fraction

import pytest
from chart_maps import subs
from hypothesis import example, given, settings, strategies as st

from equiblow import (
    PreconditionError,
    Ring,
    Subtorus,
    WeightMatrix,
    dcritical_chart,
    fiber_charts_commute,
    make_charts,
    parse_poly,
    specialize,
)
from equiblow.family import _drop_var, fiber_space
from equiblow.poly import Poly
from scalars import is_canonical_scalar

R4 = Ring(["x", "y", "z", "t"])
W4 = WeightMatrix([(1, -1, 0, 0)])


def family_model():
    return dcritical_chart(parse_poly("x*y*z - x*y*t", R4), W4, base_param="t")


def test_specialize_drops_the_base_coordinate():
    fib = specialize(family_model(), 0)
    assert fib.ring.names == ("x", "y", "z")
    assert fib.weights.rows == ((1, -1, 0),)
    assert fib.base_param is None
    assert [str(s) for s in fib.section] == ["y*z", "x*z", "x*y"]


def test_specialize_at_a_nonzero_value_shifts_the_section():
    fib = specialize(family_model(), 2)
    assert [str(s) for s in fib.section] == [
        "y*z - 2*y",
        "x*z - 2*x",
        "x*y",
    ]


def test_specialize_requires_a_base_parameter():
    R2 = Ring(["x", "y"])
    plain = dcritical_chart(parse_poly("x*y", R2), WeightMatrix([(1, -1)]))
    with pytest.raises(PreconditionError):
        specialize(plain, 0)


def test_fiber_blowup_commutes_with_fractional_value():
    model, c = family_model(), Fraction(1, 2)
    center = Subtorus.full(1)
    results = fiber_charts_commute(
        model,
        c,
        make_charts(model.ring, model.weights, center),
        make_charts(*fiber_space(model), center),
        None,
    )
    assert all(results.values())


RXT = Ring(["x", "t", "y"])


@given(
    st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
        st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 4)]),
        max_size=6,
    ),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]),
)
# at t = 2, x*t and -2*x cancel and x*t^2 brings x back: after y
@example({(1, 1, 0): 1, (1, 0, 0): -2, (0, 0, 1): 1, (1, 2, 0): 1}, Fraction(2))
@settings(max_examples=80)
def test_drop_var_matches_subs_with_a_constant_image(terms, c):
    p = Poly(RXT, terms)
    target = RXT.without(("t",))
    images = [target.var("x"), target.const(c), target.var("y")]
    fast = _drop_var(RXT, "t", c)(p)
    slow = subs(p, images, target)
    assert fast.ring == target
    assert list(fast.terms.items()) == list(slow.terms.items())
    assert all(is_canonical_scalar(v) and v != 0 for v in fast.terms.values())


def test_drop_var_drops_cancelled_and_vanishing_terms():
    x, t, y = RXT.gens()
    at_two = _drop_var(RXT, "t", Fraction(2))
    assert at_two(x * t - 2 * x).terms == {}
    assert at_two(x * t - 2 * x + t**2 * y) == 4 * at_two(y)
    at_zero = _drop_var(RXT, "t", Fraction(0))
    assert at_zero(x * t + t**2 + y) == at_zero(y)
