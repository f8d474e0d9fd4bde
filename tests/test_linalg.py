"""Exact rational linear algebra and the convex-position predicates."""

import importlib.util
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
import pytest

from equiblow import (
    PreconditionError,
    Subtorus,
    coker_projection,
    mat_mul,
    rank,
    solve,
    zero_in_relative_interior,
)
from equiblow import linalg, poly
from equiblow.linalg import (
    hermite_rows,
    left_kernel_basis,
    lp_feasible,
    primitive,
    separating_direction,
    transpose,
)
from ref import caratheodory_oracles, frac_rank, sympy_rref
from scalars import is_canonical_scalar

needs_sympy = pytest.mark.skipif(
    importlib.util.find_spec("sympy") is None, reason="needs sympy"
)


def mat_vec(A, v):
    """A times the column vector v, through ``mat_mul``."""
    return tuple(row[0] for row in mat_mul(A, [(x,) for x in v]))


def small_matrices(rows=3, cols=3):
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@given(small_matrices())
def test_rank_bounds_and_transpose_invariance(A):
    r = rank(A)
    assert 0 <= r <= 3
    assert rank(transpose(A)) == r


@given(small_matrices(), st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=3, max_size=3))
def test_solve_round_trip(A, x):
    b = mat_vec(A, x)
    got = solve(A, b)
    assert got is not None
    assert list(mat_vec(A, got)) == list(b)


@given(small_matrices())
@settings(max_examples=60)
def test_coker_projection_annihilates_the_image(A):
    dim, project = coker_projection(A, 3)
    assert dim == 3 - rank(A)
    for col in transpose(A):
        assert all(x == 0 for x in project(col))
    # projection of the standard basis spans a dim-dimensional space
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    images = [list(project(row)) for row in identity]
    assert rank(images) == dim


def test_hermite_rows_preserve_row_space():
    M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    H = hermite_rows(M)
    assert rank(H) == rank(M)
    for row in H:
        assert solve(transpose(M), row) is not None or rank(M + [list(row)]) == rank(M)


def test_left_kernel_is_integral_and_kills_rows():
    M = [[1, 2], [2, 4], [0, 0]]
    K = left_kernel_basis(M)
    assert len(K) == 2
    for v in K:
        assert all(isinstance(x, int) for x in v)
        assert all(x == 0 for x in mat_vec(transpose(M), v))


@st.composite
def _cocharacter_rows(draw):
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, 5))
    return k, draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=d, max_size=d)
    )


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(_cocharacter_rows())
def test_subtorus_saturation_matches_the_invariant_factors(case):
    # the rows span a saturated lattice exactly when every nonzero
    # invariant factor (Smith form diagonal entry) is 1
    import sympy
    from sympy.matrices.normalforms import invariant_factors

    k, rows = case
    factors = invariant_factors(sympy.Matrix(rows))
    saturated = all(f == 1 for f in factors if f)
    try:
        Subtorus(rows, k)
    except PreconditionError:
        assert not saturated, rows
    else:
        assert saturated, rows


def test_primitive_strips_content_but_keeps_direction():
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((-3, 0, 0)) == (-1, 0, 0)


def test_relative_interior_is_strictly_stronger():
    # 0 on the boundary of conv{(1,0), (0,1)}? not even in the hull;
    # conv{(1,0), (-1,0)} contains 0 in its relative interior;
    # conv{(0,0)} is the single point 0, which is its own relint
    assert not zero_in_relative_interior([(1, 0), (0, 1)])
    assert zero_in_relative_interior([(1, 0), (-1, 0)])
    assert zero_in_relative_interior([(0, 0)])
    # hull membership without relint membership
    assert separating_direction([(0, 0), (1, 0)]) is None
    assert not zero_in_relative_interior([(0, 0), (1, 0)])


def mat_mul_naively(A, B):
    """Reference product: the plain triple loop."""
    return tuple(
        tuple(
            sum((Fraction(A[i][t]) * Fraction(B[t][j]) for t in range(len(B))), Fraction(0))
            for j in range(len(B[0]))
        )
        for i in range(len(A))
    )


@given(small_matrices(4, 3), small_matrices(3, 2), st.lists(st.booleans(), min_size=4, max_size=4))
def test_mat_mul_matches_the_triple_loop_with_zero_rows(A, B, zero):
    A = [[Fraction(0)] * 3 if z else row for row, z in zip(A, zero)]
    B[1] = [Fraction(0)] * 2
    product = mat_mul(A, B)
    assert product == mat_mul_naively(A, B)
    assert all(is_canonical_scalar(x) for row in product for x in row)


# ---------------------------------------------------------------------------
# the integer kernels against references that share no code with them


def fraction_phase_one(A, b):
    """The phase-one simplex on Fraction tableaux, as equiblow ran it
    before the fraction-free kernel: Bland's rule, artificial basis."""
    m = len(A)
    n = len(A[0]) if A else 0
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    T = [A[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]] for i in range(m)]
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= T[i][j]
    for i in range(m):
        cost[n + i] = Fraction(0)
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        _, leave = best
        pv = T[leave][enter]
        T[leave] = [x / pv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        f = cost[enter]
        if f != 0:
            cost = [x - f * y for x, y in zip(cost, T[leave])]
        basis[leave] = enter
    return -cost[-1] == 0


def fraction_lp_feasible(A_eq, b_eq, lower):
    A = [[Fraction(x) for x in row] for row in A_eq]
    lo = [Fraction(x) for x in lower]
    b = [Fraction(bi) - sum(a * l for a, l in zip(row, lo)) for bi, row in zip(b_eq, A)]
    return fraction_phase_one(A, b)


def fraction_hull(vs):
    d = len(vs[0])
    A = [[v[i] for v in vs] for i in range(d)] + [[1] * len(vs)]
    return fraction_lp_feasible(A, [0] * d + [1], [0] * len(vs))


def fraction_relint(vs):
    d = len(vs[0])
    A = [[v[i] for v in vs] for i in range(d)]
    return fraction_lp_feasible(A, [0] * d, [1] * len(vs))


# one to seven vectors of Z^d, d <= 3, entries in [-5, 5]
CONFIGURATIONS = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=1, max_size=7)
)


@given(CONFIGURATIONS)
@settings(max_examples=150, deadline=None)
def test_convex_position_predicates_match_the_fraction_simplex(vs):
    lam = separating_direction(vs)
    assert (lam is None) == fraction_hull(vs)
    assert zero_in_relative_interior(vs) == fraction_relint(vs)
    assert lam is None or primitive(lam) == lam and all(
        sum(a * b for a, b in zip(lam, v)) > 0 for v in vs
    )


@needs_sympy
@given(CONFIGURATIONS)
@settings(max_examples=150, deadline=None)
def test_convex_position_predicates_match_the_caratheodory_oracles(vs):
    hull, relint = caratheodory_oracles()
    assert (separating_direction(vs) is None) == hull(vs)
    assert zero_in_relative_interior(vs) == relint(vs)


@given(
    st.integers(1, 4).flatmap(
        lambda m: st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=m, max_size=m),
                st.lists(st.integers(-6, 6), min_size=m, max_size=m),
                st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            )
        )
    )
)
@settings(max_examples=200)
def test_lp_feasible_matches_the_fraction_simplex(system):
    A, b, lower = system
    assert lp_feasible(A, b, lower) == fraction_lp_feasible(A, b, lower)
    # an infeasible system carries a Farkas certificate: y A >= 0, y b < 0
    rhs = [bi - sum(a * l for a, l in zip(row, lower)) for bi, row in zip(b, A)]
    y = linalg._phase_one(A, rhs)
    assert (y is None) == lp_feasible(A, b, lower)
    assert y is None or (
        all(sum(yi * row[j] for yi, row in zip(y, A)) >= 0 for j in range(len(A[0])))
        and sum(yi * bi for yi, bi in zip(y, rhs)) < 0
    )


def mixed_matrices():
    """Tall and wide matrices of ints and Fractions (denominators up to
    10**6), with dependent rows c * row_i + row_j appended and shuffled
    in, and some rows and columns zeroed."""
    entry = st.one_of(
        st.integers(-30, 30),
        st.fractions(min_value=-30, max_value=30, max_denominator=10**6),
    )
    coefficient = st.fractions(min_value=-9, max_value=9, max_denominator=10**6)

    @st.composite
    def build(draw):
        rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
        M = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        for _ in range(draw(st.integers(0, 3)) if rows else 0):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            c = draw(coefficient)
            M.append([c * x + y for x, y in zip(M[i], M[j])])
        M = draw(st.permutations(M))
        zero_rows = draw(st.sets(st.integers(0, len(M))))
        zero_cols = draw(st.sets(st.integers(0, cols)))
        return [
            [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(M)
        ]

    return build()


@given(mixed_matrices())
@settings(max_examples=200)
def test_rank_of_mixed_entries_matches_a_rational_row_reduction(M):
    assert rank(M) == frac_rank(M)
    assert rank(transpose(M)) == frac_rank(M)


def test_the_elimination_refuses_a_float():
    with pytest.raises(TypeError):
        rank([[1, 0.5]])
    with pytest.raises(TypeError):
        solve([[1, 2]], [0.5])
    _, project = coker_projection([[1], [2]], 2)
    with pytest.raises(TypeError):
        project([0.5, 0])


def test_integer_kernels_build_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("an integer kernel built a Fraction")

    # linalg names no Fraction; it builds one only through poly's canon
    # and exact_div, so patching poly's name covers every way in
    assert not hasattr(linalg, "Fraction")
    monkeypatch.setattr(poly, "Fraction", no_fraction)
    assert rank([[1, 2, 3], [2, 4, 6], [0, 1, -1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert separating_direction([(1, -2), (-3, 1), (2, 2)]) is None
    assert separating_direction([(1, 1), (2, -1)]) is not None
    assert zero_in_relative_interior([(1, 0), (-1, 0), (0, 2), (0, -3)])
    assert not zero_in_relative_interior([(0, 0), (1, 0)])


# ---------------------------------------------------------------------------
# the elimination over Q against sympy


@st.composite
def rational_systems(draw):
    """(A, b, v): a dense m x n matrix of ints and Fractions, m, n <= 8,
    with some rows replaced by combinations of others; a right-hand side
    that is consistent by construction or drawn freely (then often
    inconsistent); and a vector of Q^m to project."""
    entry = st.one_of(
        st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=7)
    )
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, m - 1), max_size=max(m - 2, 0))):
        others = [j for j in range(m) if j != i]
        j, k = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        c = draw(entry)
        A[i] = [c * x + y for x, y in zip(A[j], A[k])]
    if draw(st.booleans()):
        x = draw(st.lists(entry, min_size=n, max_size=n))
        b = [sum((a * xi for a, xi in zip(row, x)), 0) for row in A]
    else:
        b = draw(st.lists(entry, min_size=m, max_size=m))
    return A, b, draw(st.lists(entry, min_size=m, max_size=m))


HILBERT8 = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]


@needs_sympy
@given(rational_systems())
@example((HILBERT8, [1] * 8, list(range(8))))
# a dense 8 x 8 of rank 7 and an inconsistent right-hand side
@example((HILBERT8[:7] + [[x + y for x, y in zip(*HILBERT8[:2])]], [1] * 8, [1] * 8))
@settings(max_examples=200, deadline=None)
def test_rank_solve_and_coker_projection_match_sympy(system):
    A, b, v = system
    m, n = len(A), len(A[0])
    _, pivots = sympy_rref(A)
    assert rank(A) == len(pivots)

    R, pivots = sympy_rref([row + [bi] for row, bi in zip(A, b)])
    got = solve(A, b)
    if n in pivots:
        assert got is None
    else:
        want = [0] * n
        for r, c in enumerate(pivots):
            want[c] = R[r][n]
        assert list(got) == want
        assert all(is_canonical_scalar(x) for x in got)

    R, pivots = sympy_rref(transpose(A))
    free = [i for i in range(m) if i not in pivots]
    dim, project = coker_projection(A, m)
    got = project(v)
    assert dim == len(free)
    assert list(got) == [
        v[i] - sum(v[c] * R[r][i] for r, c in enumerate(pivots)) for i in free
    ]
    assert all(is_canonical_scalar(x) for x in got)
