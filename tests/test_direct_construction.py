"""Set-up objects built directly, checked against the arithmetic they
replace: the same polynomials, term for term and in the same insertion
order of ``terms``."""

import functools
from fractions import Fraction

import pytest
from chart_maps import chart_images, subs
from hypothesis import given, settings, strategies as st

from equiblow import (
    PolyParseError,
    Ring,
    Subtorus,
    WeightMatrix,
    action_pairing,
    make_charts,
    parse_poly,
)
from equiblow.poly import Poly

NAMES = ("x", "y", "z", "w")


def items(p: Poly):
    return list(p.terms.items())


# ---------------------------------------------------------------------------
# Ring.var and Subtorus.full


@given(st.integers(min_value=1, max_value=6))
def test_ring_var_is_the_unit_monomial(n):
    ring = Ring(f"v{i}" for i in range(n))
    for i, name in enumerate(ring.names):
        unit = tuple(1 if j == i else 0 for j in range(n))
        assert items(ring.var(name)) == [(unit, Fraction(1))]


@pytest.mark.parametrize("k", range(5))
def test_full_subtorus_equals_the_reduced_identity(k):
    identity = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    full = Subtorus.full(k)
    reduced = Subtorus(identity, k)
    assert full == reduced
    assert full.cochar == reduced.cochar and full.ambient_rank == reduced.ambient_rank
    assert hash(full) == hash(reduced)
    assert full.is_full()


# ---------------------------------------------------------------------------
# action pairing and chart substitutions


def weight_matrices(max_k=2):
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            min_size=0,
            max_size=max_k,
        ).map(lambda rows: (n, rows))
    )


@given(weight_matrices())
def test_action_pairing_matches_const_times_var(shape):
    n, rows = shape
    ring = Ring(NAMES[:n])
    weights = WeightMatrix(rows)
    pairing = action_pairing(ring, weights)
    assert len(pairing) == len(rows)
    for row, entries in zip(rows, pairing):
        assert len(entries) == n
        for w, name, entry in zip(row, ring.names, entries):
            assert items(entry) == items(ring.const(w) * ring.var(name))


def polys(n):
    monos = st.tuples(*[st.integers(min_value=0, max_value=3) for _ in range(n)])
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.dictionaries(monos, coeffs, max_size=5)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
                min_size=1,
                max_size=2,
            ),
            polys(n),
        )
    )
)
@settings(max_examples=60)
def test_chart_images_and_pullback_match_the_arithmetic(case):
    rows, terms = case
    n = len(rows[0])
    ring = Ring(NAMES[:n])
    weights = WeightMatrix(rows)
    center = Subtorus.full(weights.k)
    if not any(any(r) for r in rows):
        return  # nothing moves, so there is no atlas
    p = Poly(ring, terms)
    for chart in make_charts(ring, weights, center):
        expected = chart_images(chart)
        pulled_vars = [chart.pullback(v) for v in map(ring.var, ring.names)]
        assert [items(im) for im in pulled_vars] == [items(im) for im in expected]
        assert items(chart.pullback(p)) == items(subs(p, expected, chart.ring))


# ---------------------------------------------------------------------------
# parse_poly against the same text expanded with Poly arithmetic

RING = Ring(NAMES)

rationals = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
).map(lambda r: ("q", r))
variables = st.sampled_from(NAMES).map(lambda v: ("v", v))
exponents = st.one_of(st.none(), st.integers(min_value=0, max_value=2))


def expressions(bases):
    products = st.lists(st.tuples(bases, exponents), min_size=1, max_size=3)
    return st.tuples(
        st.sampled_from(["", "+", "-"]),
        st.lists(st.tuples(st.sampled_from(["+", "-"]), products), min_size=1, max_size=3),
    )


atoms = st.one_of(rationals, variables)
# groups nest two deep: a group may hold groups of atoms
inner_groups = expressions(atoms).map(lambda e: ("g", e))
groups = expressions(st.one_of(atoms, inner_groups)).map(lambda e: ("g", e))
texts = expressions(st.one_of(atoms, atoms, groups))


def render(node) -> str:
    kind, value = node
    if kind == "q":
        num, den = value
        return str(num) if den is None else f"{num}/{den}"
    if kind == "v":
        return value
    return "(" + render_expr(value) + ")"


def render_expr(expr) -> str:
    sign, products = expr
    out = []
    for k, (op, product) in enumerate(products):
        body = "*".join(
            render(base) + ("" if e is None else f"^{e}") for base, e in product
        )
        out.append(sign + body if k == 0 else f" {op} {body}")
    return "".join(out)


def expand(node) -> Poly:
    kind, value = node
    if kind == "q":
        num, den = value
        return RING.const(Fraction(num, den or 1))
    if kind == "v":
        return RING.var(value)
    return expand_expr(value)


def expand_expr(expr) -> Poly:
    # left to right: each factor, each product, then signs and sums
    sign, products = expr
    total = None
    for op, product in products:
        factors = [
            expand(base) if e is None else expand(base) ** e for base, e in product
        ]
        p = functools.reduce(lambda a, b: a * b, factors)
        if total is None:
            total = p * (-1 if sign == "-" else 1)
        else:
            total = total + p if op == "+" else total - p
    return total


@given(texts)
@settings(max_examples=100)
def test_parse_poly_matches_poly_arithmetic(expr):
    text = render_expr(expr)
    assert items(parse_poly(text, RING)) == items(expand_expr(expr)), text


def test_parse_poly_groups_powers_rationals_and_signs():
    text = "-2/3*x^2*(y - x)^2*3*z + (x + y)*(x - y) - 0*(w + 1)^5 + 4^0*w"
    x, y, z, w = (RING.var(nm) for nm in NAMES)
    expected = (
        RING.const(Fraction(-2, 3)) * x**2 * (y - x) ** 2 * RING.const(3) * z
        + (x + y) * (x - y)
        - RING.const(0) * (w + 1) ** 5
        + RING.const(4) ** 0 * w
    )
    assert items(parse_poly(text, RING)) == items(expected)


def signed_texts():
    """Texts with a sign after a binary operator, each beside the same
    sum written as left-to-right Poly arithmetic."""
    x, y, z, w = (RING.var(nm) for nm in NAMES)
    one, two_thirds = RING.const(1), RING.const(Fraction(2, 3))
    return [
        ("x + -1*y", x + -(one * y)),
        ("x - -y + +z", x - -y + z),
        ("y*x - -2/3*(x + w)^2 + -x", y * x - -(two_thirds * (x + w) ** 2) + -x),
        ("-z + -z*(w - +x) - -z", -z + -(z * (w - x)) - -z),
    ]


def test_parse_poly_takes_a_sign_after_a_binary_operator():
    for text, expected in signed_texts():
        assert items(parse_poly(text, RING)) == items(expected), text


@pytest.mark.parametrize(
    "text, message", [("x^-1", "negative exponent"), ("x + - -y", "expected a term")]
)
def test_parse_poly_rejects_a_negative_exponent_and_a_second_sign(text, message):
    with pytest.raises(PolyParseError, match=message):
        parse_poly(text, RING)
