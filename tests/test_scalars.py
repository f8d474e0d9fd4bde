"""No float, ever: every kernel that divides, given only ints, returns
canonical scalars (an int when integral, else a Fraction with
denominator > 1) equal to a reference computed with Fractions alone.

The inputs are all-int on purpose: there ``/`` would give a float, so a
division site that skipped ``exact_div`` shows here.  Leading
coefficients and pivots include +-1 and values such as 3 and 7 whose
quotients no float holds exactly."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from equiblow import Ring, Subtorus, WeightMatrix, make_charts, parse_poly
from equiblow.dcrit import _jacobian_at
from equiblow.groebner import Ideal, buchberger
from equiblow.linalg import coker_projection, solve
from equiblow.poly import DEGREVLEX, LEX, Poly, canon, divide_exact, divmod_multi, exact_div
from equiblow.stability import point_to_chart
from ref import _sympy_basis
from scalars import is_canonical_scalar

R3 = Ring(["x", "y", "z"])
COEFFS = st.sampled_from([1, -1, 2, -2, 3, -3, 7])
NONZERO = st.sampled_from([1, -1, 2, -2, 3, -3, 6, 7])


def int_polys(ring=R3, max_exp=2, min_terms=0, max_terms=5):
    monos = st.tuples(*[st.integers(0, max_exp)] * ring.n)
    return st.dictionaries(monos, COEFFS, min_size=min_terms, max_size=max_terms).map(
        lambda terms: Poly(ring, terms)
    )


def canonical_poly(p: Poly) -> bool:
    return all(is_canonical_scalar(c) and c != 0 for c in p.terms.values())


def test_canon_and_exact_div_keep_the_rule():
    for x, want in [(Fraction(6, 3), 2), ("-3/4", Fraction(-3, 4)), (True, 1), (-5, -5)]:
        assert canon(x) == want and is_canonical_scalar(canon(x))
    for a, b, want in [(6, 3, 2), (1, 3, Fraction(1, 3)), (-4, 6, Fraction(-2, 3)),
                       (Fraction(1, 2), Fraction(1, 4), 2), (3, Fraction(3, 2), 2)]:
        assert exact_div(a, b) == want and is_canonical_scalar(exact_div(a, b))
    with pytest.raises(TypeError):
        canon(0.5)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


# ---------------------------------------------------------------------------
# polynomial division


def reference_divmod(p: Poly, divisors, order):
    """The division loop of ``divmod_multi`` over Fraction dicts."""
    work = {m: Fraction(c) for m, c in p.terms.items()}
    quotients = [{} for _ in divisors]
    remainder = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for i, d in enumerate(divisors):
            lm = d.leading_monomial(order)
            if all(a >= b for a, b in zip(m, lm)):
                quot = tuple(a - b for a, b in zip(m, lm))
                coeff = c / Fraction(d.terms[lm])
                quotients[i][quot] = coeff
                for mm, cc in d.terms.items():
                    if mm == lm:
                        continue
                    t = tuple(a + b for a, b in zip(mm, quot))
                    v = work.get(t, Fraction(0)) - coeff * Fraction(cc)
                    if v:
                        work[t] = v
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[m] = c
    return quotients, remainder


@given(int_polys(), st.lists(int_polys(min_terms=1, max_terms=3), min_size=1, max_size=3),
       st.sampled_from([DEGREVLEX, LEX]))
@example(R3.const(1), [R3.const(3)], DEGREVLEX)
@settings(max_examples=150)
def test_divmod_multi_on_ints_gives_canonical_reference_values(p, divisors, order):
    quotients, r = divmod_multi(p, divisors, order)
    want_q, want_r = reference_divmod(p, divisors, order)
    assert [q.terms for q in quotients] == want_q
    assert r.terms == want_r
    assert all(canonical_poly(q) for q in quotients) and canonical_poly(r)


@given(int_polys(), int_polys(min_terms=1, max_terms=3), NONZERO)
@example(R3.var("x"), R3.var("x") * 3, 1)
@example(R3.var("x"), R3.var("x") * 3 + R3.var("y"), 1)
@settings(max_examples=150)
def test_divide_exact_on_ints_gives_canonical_reference_values(p, d, k):
    for dividend in (p, p * d, p * d * k):
        got = divide_exact(dividend, d)
        (want,), rest = reference_divmod(dividend, [d], DEGREVLEX)
        if rest:
            assert got is None
        else:
            assert got.terms == want
            assert canonical_poly(got)


@given(int_polys(), NONZERO)
@example(R3.var("x") * 2, 3)
def test_scalar_division_on_ints_gives_canonical_reference_values(p, k):
    got = p / k
    assert got.terms == {m: Fraction(c) / k for m, c in p.terms.items()}
    assert canonical_poly(got)


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 9)), min_size=1, max_size=4))
@example([(1, 3)])
def test_parsed_rational_coefficients_are_canonical(pairs):
    # one term per variable power, so no two coefficients sum
    text = " + ".join(f"{a}/{b}*x^{i}" for i, (a, b) in enumerate(pairs))
    got = parse_poly(text, R3)
    want = {(i, 0, 0): Fraction(a, b) for i, (a, b) in enumerate(pairs) if a}
    assert got.terms == want
    assert canonical_poly(got)


# ---------------------------------------------------------------------------
# pointwise kernels


def reference_jacobian(section, point):
    rows = []
    for comp in section:
        row = []
        for i in range(len(point)):
            total = Fraction(0)
            for m, c in comp.terms.items():
                if not m[i]:
                    continue
                term = Fraction(c) * m[i]
                for j, (x, e) in enumerate(zip(point, m)):
                    term *= Fraction(x) ** (e - 1 if j == i else e)
                total += term
            row.append(total)
        rows.append(row)
    return rows


@given(st.lists(int_polys(max_exp=3), min_size=1, max_size=3),
       st.lists(st.sampled_from([1, -1, 2, 3, -7]), min_size=3, max_size=3))
@example([R3.var("x") * R3.var("y")], [3, 1, 1])
def test_jacobian_at_nonzero_int_points_gives_canonical_reference_values(section, point):
    got = _jacobian_at(section, tuple(point))
    assert got == reference_jacobian(section, point)
    assert all(is_canonical_scalar(x) for row in got for x in row)


ATLAS = make_charts(Ring(["x", "y", "z", "w"]), WeightMatrix([(1, 1, -1, 0)]), Subtorus.full(1))


def reference_point_to_chart(point, source, target):
    point = [Fraction(x) for x in point]
    t = point[target.pivot]
    if source.pivot == target.pivot:
        return tuple(point)
    if t == 0:
        return None
    return tuple(
        point[source.pivot] * t if i == target.pivot
        else 1 / t if i == source.pivot
        else point[i] / t if i in source.moving
        else point[i]
        for i in range(len(point))
    )


@given(st.sampled_from(ATLAS), st.sampled_from(ATLAS),
       st.lists(st.integers(-3, 7), min_size=4, max_size=4))
@example(ATLAS[0], ATLAS[1], [1, 3, 2, 1])
def test_point_to_chart_on_ints_gives_canonical_reference_values(source, target, point):
    got = point_to_chart(tuple(point), source, target)
    want = reference_point_to_chart(point, source, target)
    assert got == want
    if got is not None:
        assert all(is_canonical_scalar(x) for x in got)


# ---------------------------------------------------------------------------
# exact linear algebra


def reference_rref(A):
    rows = [[Fraction(x) for x in row] for row in A]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def int_matrices(max_rows=4, max_cols=4):
    entries = st.sampled_from([0, 0, 1, -1, 2, 3, -3, 7])
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=max_rows)
    )


@given(int_matrices(), st.lists(st.sampled_from([0, 1, -1, 2, 5]), min_size=4, max_size=4))
@example([[3], [1]], [1, 2, 0, 0])
def test_coker_projection_on_ints_gives_canonical_reference_values(A, v):
    # the coordinates at the non-pivot rows of v minus the element of
    # im(A) that agrees with v at the pivots of A's reduced transpose
    v = v[: len(A)]
    dim, project = coker_projection(A, len(A))
    R, pivots = reference_rref([list(col) for col in zip(*A)])
    free = [i for i in range(len(A)) if i not in pivots]
    got = project(v)
    assert dim == len(free)
    assert list(got) == [
        v[i] - sum(v[pc] * R[r][i] for r, pc in enumerate(pivots)) for i in free
    ]
    assert all(is_canonical_scalar(x) for x in got)


@given(int_matrices(), st.lists(st.sampled_from([0, 1, -1, 2, 5]), min_size=4, max_size=4))
@example([[3]], [1, 0, 0, 0])
def test_solve_on_ints_gives_canonical_reference_values(A, b):
    b = b[: len(A)]
    got = solve(A, b)
    n = len(A[0])
    R, pivots = reference_rref([list(row) + [x] for row, x in zip(A, b)])
    if n in pivots:
        assert got is None
        return
    want = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        want[pc] = R[r][n]
    assert list(got) == want
    assert all(is_canonical_scalar(x) for x in got)


# ---------------------------------------------------------------------------
# reduced Groebner bases


@given(st.lists(int_polys(min_terms=1, max_terms=3), min_size=1, max_size=3))
@example([R3.var("x") * 3 + R3.var("y"), R3.var("x") * R3.var("y") * 7 - 1])
@settings(max_examples=40, deadline=None)
def test_reduced_basis_of_int_generators_is_canonical_and_matches_sympy(gens):
    pytest.importorskip("sympy")
    ideal = Ideal(R3, gens)
    gb, reps = buchberger(ideal, DEGREVLEX, _tracked=True)
    for g in gb.basis:
        assert canonical_poly(g)
        # the tracked representation over the generators is exact and canonical
        assert all(canonical_poly(q) for q in reps[g])
        total = R3.zero()
        for q, h in zip(reps[g], ideal.generators):
            total = total + q * h
        assert total == g
    assert buchberger(ideal, DEGREVLEX).basis == gb.basis
    want = _sympy_basis(list(ideal.generators), "grevlex")
    assert {frozenset(g.terms.items()) for g in gb.basis} == want
