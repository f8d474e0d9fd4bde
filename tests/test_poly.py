"""Exact polynomial arithmetic: ring axioms, calculus rules, parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equiblow import DEGREVLEX, LEX, Poly, PolyParseError, Ring, divide_exact, parse_poly
from equiblow.poly import block_order, divmod_multi
from scalars import is_canonical_scalar

R3 = Ring(["x", "y", "z"])
X, Y, Z = R3.gens()


def fractions():
    return st.fractions(
        min_value=-8, max_value=8, max_denominator=6
    )


def monos(n=3, deg=4):
    return st.tuples(*[st.integers(min_value=0, max_value=deg) for _ in range(n)])


def polys(ring=R3):
    return st.dictionaries(monos(ring.n), fractions(), max_size=6).map(
        lambda d: Poly(ring, d)
    )


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + R3.zero() == p
    assert p * R3.one() == p
    assert p - p == R3.zero()


@given(polys())
def test_str_parse_round_trip(p):
    assert parse_poly(str(p), R3) == p


@given(polys(), polys())
def test_leibniz_rule(p, q):
    for v in range(3):
        lhs = (p * q).derivative(v)
        assert lhs == p.derivative(v) * q + p * q.derivative(v)


@given(polys())
def test_mixed_partials_commute(p):
    assert p.derivative(0).derivative(1) == p.derivative(1).derivative(0)


@given(polys(), polys())
@settings(max_examples=40)
def test_evaluation_is_a_homomorphism(p, q):
    pt = (Fraction(1, 2), Fraction(-2), Fraction(3))
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


@given(polys(), polys())
@settings(max_examples=60)
def test_divide_exact_round_trip(p, d):
    if d.is_zero():
        return
    q = divide_exact(p * d, d)
    assert q is not None and q == p
    # a strict non-multiple must be rejected, not approximated
    if not p.is_zero() and divide_exact(p, d) is None:
        assert divide_exact(p * d + R3.one(), d) is None or d.is_constant()


def test_leading_monomial_orders_differ():
    # x^3 vs y^4: degree first for degrevlex, alphabet first for lex
    p = X**3 + Y**4
    assert p.leading_monomial(DEGREVLEX) == (0, 4, 0)
    assert p.leading_monomial(LEX) == (3, 0, 0)


def test_parse_rationals_powers_and_parens():
    p = parse_poly("1/2*x^2*y - (z - 3)^2 + 2", R3)
    expected = Fraction(1, 2) * X**2 * Y - (Z - R3.const(3)) ** 2 + R3.const(2)
    assert p == expected


def test_parse_rejects_unknown_variable():
    with pytest.raises(PolyParseError):
        parse_poly("x + q", R3)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x + ", R3)
    assert e.value.position is not None


@given(polys(), st.randoms(use_true_random=False))
def test_equal_polys_built_in_different_term_orders_hash_equal(p, rnd):
    items = list(p.terms.items())
    rnd.shuffle(items)
    q = Poly(R3, dict(items))
    assert q == p
    assert hash(q) == hash(p)
    assert len({p, q, p + R3.zero()}) == 1


def test_rename_ring_preserves_terms():
    wide = Ring(["w", "x", "y", "z"])
    p = X * Y - R3.const(2) * Z
    q = p.rename_ring(wide)
    assert str(q) == str(p)
    back = q.rename_ring(R3)
    assert back == p


def test_rename_ring_refuses_lost_variables():
    narrow = Ring(["x", "y"])
    with pytest.raises(Exception):
        (X * Z).rename_ring(narrow)


def test_derivative_by_name_matches_index():
    p = X**2 * Y + Z
    assert p.derivative("y") == p.derivative(1)
    assert p.derivative("z") == R3.one()


def test_evaluate_partial_point_length_guard():
    with pytest.raises(Exception):
        (X + Y).evaluate((Fraction(1),))


# -- fast paths ---------------------------------------------------------------


def single_terms(ring):
    # coefficients +-1 and small exponents make products collide and cancel
    coeff = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)])
    return st.tuples(monos(ring.n, 2), coeff).map(lambda mc: Poly(ring, {mc[0]: mc[1]}))


def only_nonzero_canonical(p):
    return all(is_canonical_scalar(c) and c != 0 for c in p.terms.values())


@given(polys(), polys())
@settings(max_examples=60)
def test_arithmetic_results_hold_only_nonzero_canonical_scalars(p, q):
    built = [
        p + q,
        p - q,
        p - p,
        -p,
        p * q,
        p * 3,
        p * Fraction(-1, 2),
        p * 0,
        p / 2,
        p**2,
        p.term_mul((1, 0, 2), Fraction(3, 4)),
        p.derivative(0),
        divide_exact(p * Y, Y),
        divide_exact(p * Y * Fraction(-2, 3), Y * Fraction(-2, 3)),
        divide_exact(p * (X + Z), X + Z),
        p.rename_ring(Ring(["z", "x", "y", "w"])),
    ]
    assert all(only_nonzero_canonical(r) for r in built)


def test_division_by_zero_constant_raises():
    with pytest.raises(ZeroDivisionError):
        (X + Y) / 0
    assert (X + Y) / Fraction(-2, 3) == X * Fraction(-3, 2) - Y * Fraction(3, 2)


def long_divide(p, d):
    """The multivariate division loop by d alone: the quotient when the
    remainder is zero, else None."""
    (q,), r = divmod_multi(p, [d], DEGREVLEX)
    return q if r.is_zero() else None


@given(polys(), single_terms(R3))
@settings(max_examples=80)
def test_one_term_division_matches_long_division(p, d):
    # the multivariate division loop, by d alone, is the reference
    for dividend in (p, p * d, p * d + p):
        fast = divide_exact(dividend, d)
        slow = long_divide(dividend, d)
        assert fast == slow
        if fast is not None:
            assert only_nonzero_canonical(fast)
    assert divide_exact(p * d, d) == p


def test_one_term_division_rejects_a_term_without_the_divisor():
    d = 3 * X * Y
    p = 6 * X**2 * Y - 3 * X * Y * Z
    assert divide_exact(p, d) == 2 * X - Z
    assert divide_exact(p + Y * Z, d) is None
    assert long_divide(p + Y * Z, d) is None


def test_leading_monomial_cache_follows_the_order_asked():
    p = X + Y**2 * Z
    block = block_order(1)
    assert p.leading_monomial(DEGREVLEX) == (0, 2, 1)
    assert p.leading_monomial(block) == (1, 0, 0)
    assert p.leading_monomial(DEGREVLEX) == (0, 2, 1)
    assert p.leading_monomial(block_order(1)) == (1, 0, 0)
    assert p.leading_coefficient(block) == 1


@given(polys(), st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_leading_monomial_cache_agrees_with_a_fresh_scan(p, picks):
    if p.is_zero():
        return
    orders = [DEGREVLEX, LEX, block_order(1), block_order(2)]
    for k in picks:
        order = orders[k]
        assert p.leading_monomial(order) == max(p.terms, key=order.key)


# -- pointwise evaluation -------------------------------------------------------


def evaluate_naively(p, point):
    """Reference evaluation: the sum of c * prod x^e over every term."""
    total = Fraction(0)
    for m, c in p.terms.items():
        term = Fraction(c)
        for x, e in zip(point, m):
            term *= Fraction(x) ** e
        total += term
    return total


def mixed_points(n=3):
    # zeros, plain ints and Fractions side by side
    coord = st.one_of(st.just(0), st.integers(-3, 3), fractions())
    return st.lists(coord, min_size=n, max_size=n)


@given(polys(), mixed_points())
def test_evaluate_matches_the_naive_sum(p, point):
    value = p.evaluate(point)
    assert is_canonical_scalar(value)
    assert value == evaluate_naively(p, point)


def test_evaluate_returns_a_canonical_zero_when_every_term_vanishes():
    p = parse_poly("x*y + x^2*z - 3*y*x", R3)
    for poly in (p, R3.zero()):
        value = poly.evaluate((0, 5, Fraction(1, 2)))
        assert is_canonical_scalar(value)
        assert value == 0
