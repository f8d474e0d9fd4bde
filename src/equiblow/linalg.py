"""Exact linear algebra over Q and Z.

Three integer-preserving algorithms, and no floating point anywhere:

- one elimination over Q: ``_echelon``, Bareiss's fraction-free row
  echelon form after clearing each row's denominators, which ``rank``
  counts, ``solve`` back-substitutes and ``coker_projection`` reduces
  by; their results are canonical scalars (an int when integral, else
  a Fraction with denominator > 1, as in ``poly``), built only through
  ``exact_div``;
- Hermite reduction for integer lattices;
- a fraction-free phase-one simplex for the exact LPs and the
  convex-position tests that GIT stability needs.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import index
from typing import Callable, Sequence

from .poly import canon, exact_div

Vec = tuple
Mat = tuple  # tuple of row tuples


def mat_mul(A: Mat, B: Mat) -> Mat:
    if A and B and len(A[0]) != len(B):
        raise ValueError("shape mismatch")
    cols = len(B[0]) if B else 0
    out = []
    for a in A:
        row = [0] * cols
        for x, b in zip(a, B):
            if x:  # a zero entry adds nothing to the row
                for j in range(cols):
                    row[j] += x * b[j]
        out.append(tuple(map(canon, row)))
    return tuple(out)


def transpose(A: Mat) -> Mat:
    return tuple(zip(*A))


def _cleared(row) -> tuple[int, list[int]]:
    """The lcm of the row's denominators, and the row times it as ints.
    A float raises ``TypeError``, as in ``canon``."""
    types = set(map(type, row))
    if types <= {int}:
        return 1, list(row)
    if any(issubclass(t, float) for t in types):
        raise TypeError("a float is not an exact rational")
    den = lcm(*(x.denominator for x in row))
    return den, [x.numerator * (den // x.denominator) for x in row]


def _echelon(A) -> tuple[list[list[int]], list[int]]:
    """Integer row echelon form of a matrix of ints and Fractions: its
    nonzero rows and their pivot columns, by Bareiss's fraction-free
    elimination after clearing each row's denominators.

    Pivot r is the minor of the first r + 1 rows (swaps applied) on the
    first r + 1 pivot columns, so the last pivot is the determinant of
    the pivot block.  A row with a zero below a pivot is left as it is,
    so each row keeps ``base``, the pivot it was last eliminated
    against: its entries are the minors bordering the block of that
    pivot, and the next elimination divides by ``base`` exactly
    (Sylvester's identity), here and in ``coker_projection``.
    """
    rows = [_cleared(row)[1] for row in A]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    base = [1] * m
    pivots = []
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        base[r], base[pivot] = base[pivot], base[r]
        if base[r] != prev:  # scale the pivot row to the minors of this step
            rows[r] = [x * prev // base[r] for x in rows[r]]
        top = rows[r]
        p = top[c]
        for i in range(r + 1, m):
            f = rows[i][c]
            if f:
                rows[i] = [(p * x - f * y) // base[i] for x, y in zip(rows[i], top)]
                base[i] = p
        prev = p
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rank(A: Mat) -> int:
    """Exact rank of a matrix of ints and Fractions."""
    return len(_echelon(A)[1])


def solve(A: Mat, b: Sequence) -> Vec | None:
    """One exact solution of A x = b, with every free variable 0, or None
    when inconsistent."""
    if not A:
        return () if all(canon(x) == 0 for x in b) else None
    n = len(A[0])
    rows, pivots = _echelon([[*row, b[i]] for i, row in enumerate(A)])
    if pivots and pivots[-1] == n:
        return None
    # d, the determinant of the pivot block, makes d * x integral by
    # Cramer's rule: back-substitute for y = d * x in ints
    d = rows[-1][pivots[-1]] if pivots else 1
    x = [0] * n
    y = []
    for row, c in zip(reversed(rows), reversed(pivots)):
        yc = (d * row[n] - sum(row[j] * yj for j, yj in y)) // row[c]
        y.append((c, yc))
        x[c] = exact_div(yc, d)
    return tuple(x)


def coker_projection(A: Mat, rows: int) -> tuple[int, Callable[[Sequence], Vec]]:
    """Cokernel of the column space of A inside Q^rows.

    Returns (dimension, project) where project sends v in Q^rows to its
    coordinates in a fixed complement basis of im(A).  Deterministic:
    the complement consists of the standard basis vectors at non-pivot
    positions of the column space's echelon form, and the coordinates
    are those of the unique w = v - u, u in im(A), that vanishes at the
    pivot positions.
    """
    echelon, pivots = _echelon(transpose(A))
    free = [i for i in range(rows) if i not in pivots]

    def project(v: Sequence) -> Vec:
        # v, denominators cleared, is one more row of the elimination;
        # it ends as base * den * w, the minors bordering the block of
        # the last pivot it was eliminated against
        den, w = _cleared(v)
        base = 1
        for row, c in zip(echelon, pivots):
            f = w[c]
            if f:
                p = row[c]
                w = [(p * x - f * y) // base for x, y in zip(w, row)]
                base = p
        scale = den * base
        return tuple(exact_div(w[i], scale) for i in free)

    return len(free), project


# ---------------------------------------------------------------------------
# integer lattices


def _int_rows(M) -> list[list[int]]:
    return [[int(x) for x in row] for row in M]


def hermite_with_transform(M) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite form H of M with unimodular U such that U M = H.

    Pivots are positive, entries above each pivot are reduced, zero rows
    sink to the bottom.
    """
    H = _int_rows(M)
    m = len(H)
    n = len(H[0]) if H else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        # clear the column below row r by gcd steps
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(H[i][c]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            done = True
            for i in range(r + 1, m):
                if H[i][c] != 0:
                    q = H[i][c] // H[r][c]
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    if H[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                q = H[i][c] // H[r][c]
                if q:
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            r += 1
            if r == m:
                break
    return H, U


def hermite_rows(M) -> list[list[int]]:
    """Nonzero rows of the Hermite form: a canonical lattice basis."""
    H, _ = hermite_with_transform(M)
    return [row for row in H if any(row)]


def left_kernel_basis(M) -> list[list[int]]:
    """Canonical basis of the saturated lattice {v : v M = 0}."""
    H, U = hermite_with_transform(M)
    kernel = [U[i] for i in range(len(H)) if not any(H[i])]
    if not kernel:
        return []
    return hermite_rows(kernel)


def primitive(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    if g <= 1:
        return tuple(int(x) for x in v)
    return tuple(int(x) // g for x in v)


# ---------------------------------------------------------------------------
# exact LP feasibility (fraction-free phase-one simplex, Bland's rule)


def _phase_one(A: list[list[int]], b: list[int]) -> list[int] | None:
    """Decide {x >= 0 : A x = b} for integer A and b: None when it is
    feasible, else a Farkas certificate, an integer y with y A >= 0 and
    y b < 0.

    The tableau is kept integer-preserving (Edmonds, Bareiss): every
    row, the cost row included, is the rational tableau times d, the
    determinant of the current basis, which is the last pivot.  The
    pivot row stays as it is and every other row becomes
    (p*x - f*y) // d, an exact division.  Pivots are positive, so d > 0
    and the signs and cross-multiplied ratios of the integer tableau
    are those of the rational one: Bland's rule makes the same pivots.
    At the optimum the dual of the sign-adjusted rows is read off the
    artificial columns, whose reduced cost is d (1 - dual); an infeasible
    system has positive optimum, and the negated dual, with the signs
    undone, is the certificate.
    """
    m = len(A)
    n = len(A[0]) if A else 0
    # tableau with artificial basis; minimize the sum of artificials
    T = []
    for i in range(m):
        unit = [0] * m
        unit[i] = 1
        if b[i] < 0:
            T.append([-x for x in A[i]] + unit + [-b[i]])
        else:
            T.append(A[i] + unit + [b[i]])
    cost = [-sum(col) for col in zip(*T)] if T else [0]
    cost[n : n + m] = [0] * m
    basis = [n + i for i in range(m)]
    d = 1
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            if cost[-1] == 0:
                return None
            return [
                cost[n + i] - d if b[i] >= 0 else d - cost[n + i]
                for i in range(m)
            ]
        leave = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                if leave is None:
                    leave, num, den = i, T[i][-1], a
                    continue
                # compare the ratio T[i][-1] / a with num / den
                lhs, rhs = T[i][-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, T[i][-1], a
        if leave is None:
            # unbounded phase-one cannot happen (objective bounded below by 0)
            raise ArithmeticError("phase-one simplex unbounded")
        y = T[leave]
        p = y[enter]
        for i in range(m):
            if i != leave:
                f = T[i][enter]
                T[i] = [(p * x - f * z) // d for x, z in zip(T[i], y)]
        f = cost[enter]
        cost = [(p * x - f * z) // d for x, z in zip(cost, y)]
        d = p
        basis[leave] = enter


def lp_feasible(A_eq, b_eq, lower) -> bool:
    """Feasibility of {x : A x = b, x_i >= lower_i} for integer data.

    Substitutes x = lower + x' and decides {x' >= 0 : A x' = b - A lower}
    exactly with the fraction-free simplex.
    """
    lo = [index(x) for x in lower]
    A = [[index(x) for x in row] for row in A_eq]
    b = [index(bi) - sum(a * l for a, l in zip(row, lo)) for bi, row in zip(b_eq, A)]
    return _phase_one(A, b) is None


def separating_direction(vectors: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """None when 0 is a convex combination of the nonempty integer
    vectors, else a primitive integer lambda with lambda . v > 0 for
    every v (Gordan's alternative).

    The certificate (y, c) of the hull system {sum x_v v = 0,
    sum x_v = 1, x >= 0} has y . v + c >= 0 for every v and c < 0, so
    y itself separates.
    """
    vs = [tuple(int(x) for x in v) for v in vectors]
    if not vs:
        raise ValueError("no vectors to separate from 0")
    d = len(vs[0])
    A = [[v[i] for v in vs] for i in range(d)]
    A.append([1] * len(vs))
    certificate = _phase_one(A, [0] * d + [1])
    return None if certificate is None else primitive(certificate[:d])


def zero_in_relative_interior(vectors: Sequence[Sequence[int]]) -> bool:
    """Is 0 a strictly positive convex combination of the vectors?

    For a finite set this characterises membership in the relative
    interior of the convex hull.  The combination is homogeneous, so
    strict positivity can be normalised to lambda_i >= 1.
    """
    vs = [tuple(int(x) for x in v) for v in vectors]
    if not vs:
        return False
    d = len(vs[0])
    A = [[v[i] for v in vs] for i in range(d)]
    return lp_feasible(A, [0] * d, [1] * len(vs))
