"""Exact rational linear algebra and the convex-position predicates."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from equiblow import (
    coker_projection,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    solve,
    zero_in_convex_hull,
    zero_in_relative_interior,
)
from equiblow.linalg import (
    hermite_rows,
    identity,
    left_kernel_basis,
    primitive,
    smith_diagonal,
    transpose,
)


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


@given(small_matrices())
def test_nullspace_vectors_are_killed(A):
    ns = nullspace(A)
    for v in ns:
        assert all(x == 0 for x in mat_vec(A, v))
    assert len(ns) == 3 - rank(A)


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
    images = [list(project(row)) for row in identity(3)]
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


def test_smith_diagonal_divisibility_chain():
    M = [[2, 0, 0], [0, 6, 0], [0, 0, 4]]
    assert smith_diagonal(M) == [2, 2, 12]
    nonsquare = smith_diagonal([[2, 4], [6, 8], [10, 12]])
    nonzero = [x for x in nonsquare if x]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_primitive_strips_content_but_keeps_direction():
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((-3, 0, 0)) == (-1, 0, 0)


def exhaustive_hull_oracle(vectors):
    """Zero is a convex combination iff some subset of <= k+1 points
    admits nonnegative barycentric weights; brute force over subsets."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return False
    k = len(vectors[0])
    for size in range(1, min(len(vectors), k + 1) + 1):
        for sub in itertools.combinations(vectors, size):
            A = [[Fraction(v[i]) for v in sub] for i in range(k)]
            A.append([Fraction(1)] * size)
            b = [Fraction(0)] * k + [Fraction(1)]
            lam = solve(A, b)
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


@given(
    st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=4
    )
)
@settings(max_examples=150)
def test_convex_hull_membership_matches_caratheodory_oracle(vs):
    assert zero_in_convex_hull(vs) == exhaustive_hull_oracle(vs)


def test_relative_interior_is_strictly_stronger():
    # 0 on the boundary of conv{(1,0), (0,1)}? not even in the hull;
    # conv{(1,0), (-1,0)} contains 0 in its relative interior;
    # conv{(0,0)} is the single point 0, which is its own relint
    assert not zero_in_relative_interior([(1, 0), (0, 1)])
    assert zero_in_relative_interior([(1, 0), (-1, 0)])
    assert zero_in_relative_interior([(0, 0)])
    # hull membership without relint membership
    assert zero_in_convex_hull([(0, 0), (1, 0)])
    assert not zero_in_relative_interior([(0, 0), (1, 0)])


@given(
    st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=4
    )
)
@settings(max_examples=100)
def test_relint_implies_hull(vs):
    if zero_in_relative_interior(vs):
        assert zero_in_convex_hull(vs)


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
    assert all(type(x) is Fraction for row in product for x in row)
