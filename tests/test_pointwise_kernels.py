"""Pointwise kernels checked against the polynomial arithmetic they
replace: the Jacobian at a point against derivative polynomials evaluated
there, the evaluation at a canonical point against ``evaluate``, the
series residual on a shared power table against one table per
component, and the sums of products of the matrix product and the weak
model check, ``+`` and ``*`` against the terms of ``acc = acc + a * b``
built in plain dicts, term order included."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from equiblow import Ring, derivative_matrix, parse_poly
from equiblow.blowup import poly_mat_mul
from equiblow.dcrit import _jacobian_at, _series_eval, _series_mul, _series_powers
from equiblow.poly import Poly, canon
from scalars import is_canonical_scalar

NAMES = ("x", "y", "z", "u", "v")

# zero is drawn often, so terms meet zero coordinates at every exponent
COORDS = st.sampled_from(
    [Fraction(0)] * 4
    + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]
)
COEFFS = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-5, 2)]
)


def polys(n, max_exp=3, max_terms=5, min_terms=0):
    ring = Ring(NAMES[:n])
    monos = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * n)
    return st.dictionaries(monos, COEFFS, min_size=min_terms, max_size=max_terms).map(
        lambda terms: Poly(ring, terms)
    )


# ---------------------------------------------------------------------------
# the Jacobian at a point


def _evaluated_jacobian(section, ring, point):
    return [[e.evaluate(point) for e in row] for row in derivative_matrix(section, ring)]


@st.composite
def sections_and_points(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    section = draw(st.lists(polys(n), min_size=1, max_size=4))
    point = tuple(draw(st.lists(COORDS, min_size=n, max_size=n)))
    return Ring(NAMES[:n]), section, point


@given(sections_and_points())
def test_jacobian_at_a_point_equals_the_evaluated_derivatives(case):
    ring, section, point = case
    got = _jacobian_at(section, point)
    want = _evaluated_jacobian(section, ring, point)
    assert got == want
    assert all(is_canonical_scalar(x) for row in got for x in row)


@pytest.mark.parametrize(
    "text, point",
    [
        # exponent 1 at the one zero coordinate: only that partial survives
        ("3*x*y^2*z", (0, 2, Fraction(1, 2))),
        ("x*y + y*z^2 - 7*z", (0, 0, 5)),
        # exponent 2 at a zero coordinate, and two zero coordinates
        ("x^2*y + x*z", (0, 1, 0)),
        ("x*y*z + x^3", (0, 0, 0)),
        ("2/3*x*y^3*z^2 - y", (Fraction(-1, 2), 3, 2)),
    ],
)
def test_jacobian_at_points_with_zero_coordinates(text, point):
    ring = Ring(NAMES[:3])
    section = [parse_poly(text, ring), parse_poly("x*z", ring)]
    point = tuple(Fraction(x) for x in point)
    assert _jacobian_at(section, point) == _evaluated_jacobian(section, ring, point)


# ---------------------------------------------------------------------------
# the series residual


def _series_eval_per_component(p: Poly, series, order):
    """One power table per polynomial: the evaluation the shared table
    replaces."""
    one = (Fraction(1),) + (Fraction(0),) * order
    total = (Fraction(0),) * (order + 1)
    cache = [dict() for _ in series]

    def power(i, e):
        if e not in cache[i]:
            if e == 1:
                cache[i][e] = series[i]
            else:
                cache[i][e] = _series_mul(power(i, e - 1), series[i], order)
        return cache[i][e]

    for m, c in p.terms.items():
        term = tuple(c * x for x in one)
        for i, e in enumerate(m):
            if e:
                term = _series_mul(term, power(i, e), order)
        total = tuple(x + y for x, y in zip(total, term))
    return total


@st.composite
def series_cases(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    order = draw(st.integers(min_value=1, max_value=4))
    zero = (Fraction(0),) * (order + 1)
    coefficient_lists = st.lists(COORDS, min_size=order + 1, max_size=order + 1)
    series = [
        draw(st.one_of(st.just(zero), coefficient_lists.map(tuple))) for _ in range(n)
    ]
    comps = draw(st.lists(polys(n, max_exp=4), min_size=1, max_size=4))
    return comps, series, order


@given(series_cases())
def test_shared_power_table_equals_one_table_per_component(case):
    comps, series, order = case
    power = _series_powers(series, order)
    for p in comps:
        got = _series_eval(p, power, order)
        assert got == _series_eval_per_component(p, series, order)
        assert all(is_canonical_scalar(x) for x in got)


def test_terms_on_a_zero_series_are_skipped():
    ring = Ring(NAMES[:2])
    p = parse_poly("x*y^3 + 2*x + 3", ring)
    zero = (Fraction(0),) * 3
    power = _series_powers([(Fraction(1), Fraction(1), Fraction(0)), zero], 2)
    assert power(1, 3) is None
    assert _series_eval(p, power, 2) == (Fraction(5), Fraction(2), Fraction(0))


# ---------------------------------------------------------------------------
# polynomial matrix products


# The reference builds terms in plain dicts by the stated rule, apart
# from the package's arithmetic: a term on a monomial already present
# adds in place, a zero sum leaves the dict, and a new monomial, or one
# that cancelled and comes back, goes last.  ``acc = acc + a * b``
# builds each product by that rule in its own dict, then adds its terms
# onto the sum in the product's order.


def _add_term(terms, m, c):
    s = terms.get(m, 0) + c
    if s:
        terms[m] = s
    else:
        terms.pop(m, None)


def _naive_sum(pairs):
    acc = {}
    for a, b in pairs:
        prod = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                _add_term(prod, tuple(x + y for x, y in zip(m1, m2)), Fraction(c1) * c2)
        for m, c in prod.items():
            _add_term(acc, m, c)
    return list(acc.items())


def _naive_mat_mul(A, B):
    inner = len(B)
    cols = len(B[0]) if inner else 0
    return [
        [_naive_sum([(A[i][t], B[t][j]) for t in range(inner)]) for j in range(cols)]
        for i in range(len(A))
    ]


def _items(p):
    # the terms in order, each coefficient canonical
    assert all(is_canonical_scalar(c) for c in p.terms.values())
    return list(p.terms.items())


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    ring = Ring(NAMES[:n])
    rows, inner, cols = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    # half the entries are zero, as in identity lifts and default
    # corrections, and many have one term, as the section components of
    # a monomial potential and the constants of the stabilizer sum
    entry = st.one_of(
        st.just(ring.zero()),
        polys(n, max_exp=2, max_terms=3, min_terms=1),
        polys(n, max_exp=2, max_terms=1, min_terms=1),
    )

    def matrix(r, c):
        return tuple(tuple(draw(entry) for _ in range(c)) for _ in range(r))

    return ring, matrix(rows, inner), matrix(inner, cols)


@given(matrix_pairs(), st.lists(st.integers(-2, 2), min_size=4, max_size=4))
def test_poly_mat_mul_equals_the_full_triple_loop(case, ints):
    ring, A, B = case
    got = poly_mat_mul(A, B, ring)
    assert [[_items(e) for e in row] for row in got] == _naive_mat_mul(A, B)
    # the two sums of check_weak_local_model: a cofactor row against the
    # section, and integer multiples of the rows of the restricted cofactor
    columns = list(zip(*B))
    for row in A:
        sums = [list(zip(row, col)) for col in columns]
        sums.append(list(zip(map(ring.const, ints), row)))
        for pairs in sums:
            assert _items(Poly._sum_of_products(ring, pairs)) == _naive_sum(pairs)
            # a product is the sum of its one pair, and a sum is a sum
            # of products by one
            for a, b in pairs:
                assert _items(a * b) == _naive_sum([(a, b)])
                assert _items(a + b) == _naive_sum([(a, ring.one()), (b, ring.one())])


def test_a_product_that_cancels_into_the_sum_keeps_the_sum_order():
    # (x + y)*(x + y) gives x*y twice.  Added term by term, the first
    # cancels the sum's -x*y and the second lands last; added as the
    # finished product, 2*x*y meets -x*y once and x*y stays first.
    ring = Ring(NAMES[:2])
    x, y = ring.gens()
    pairs = [(ring.const(-1), x * y), (x + y, x + y)]
    got = Poly._sum_of_products(ring, pairs)
    assert _items(got) == _naive_sum(pairs)
    assert list(got.terms) == [(1, 1), (2, 0), (0, 2)]


# ---------------------------------------------------------------------------
# evaluation at a canonical point


@given(sections_and_points())
def test_evaluation_at_a_canonical_point_equals_evaluate(case):
    ring, section, point = case
    canonical = [canon(x) for x in point]
    for p in section:
        got = p._at(canonical)
        assert got == p.evaluate(point) and is_canonical_scalar(got)


def test_evaluate_still_refuses_a_float():
    p = parse_poly("x + 1", Ring(NAMES[:1]))
    with pytest.raises(TypeError):
        p.evaluate((0.5,))
