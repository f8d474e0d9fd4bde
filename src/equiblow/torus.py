"""Diagonal torus actions: weights, isotypic pieces, stabilizers, centers.

A rank-k torus acts diagonally on affine n-space through an integer k x n
weight matrix; column i is the character through which the i-th
coordinate transforms.  Subtori are saturated cocharacter sublattices,
stored as canonical Hermite-reduced row bases so equal subtori compare
equal.

Because the action is diagonal, a point's stabilizer and the closedness
of its orbit depend only on the set of distinct nonzero weight columns
its support carries, and the vanishing of a monomial on it only on the
support.  The one scan, ``_closed_orbit_supports``, therefore visits
column sets, and only those of rank below k, which alone have a
nontrivial stabilizer.  The center search decides each column set by
emptiness questions (is some point of V(I) nonzero on the chosen
coordinates?), and for a monomial ideal reads those off the coordinates.
"""
from __future__ import annotations

from itertools import product
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from . import groebner, linalg
from .errors import BudgetExceededError, PreconditionError
from .poly import Mono, Poly
from .record import Record


class WeightMatrix(Record):
    """k x n integer weight matrix for a diagonal torus action."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(map(int, row)) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged weight matrix")
        object.__setattr__(self, "rows", rows)

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, i: int) -> tuple[int, ...]:
        return tuple(row[i] for row in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.rows))

    def with_columns(self, cols: Sequence[Sequence[int]]) -> "WeightMatrix":
        return WeightMatrix([[c[a] for c in cols] for a in range(self.k)])


class Subtorus(Record):
    """A subtorus given by a saturated cocharacter sublattice.

    ``cochar`` holds d rows of length k in Hermite-canonical form; d is
    the dimension.  Construction rejects non-primitive bases, since a
    finite-index sublattice names a different group.
    """

    __slots__ = ("cochar", "ambient_rank")

    def __init__(self, cochar: Iterable[Iterable[int]], ambient_rank: int):
        raw = [list(int(x) for x in row) for row in cochar]
        for row in raw:
            if len(row) != ambient_rank:
                raise ValueError("cocharacter length does not match ambient rank")
        reduced = linalg.hermite_rows(raw) if raw else []
        # the rows span a saturated lattice exactly when the gcd of their
        # maximal minors, the product of the pivots of the Hermite form of
        # their transpose, is 1
        if reduced and any(
            next(x for x in row if x) != 1
            for row in linalg.hermite_rows(linalg.transpose(reduced))
        ):
            raise PreconditionError(
                "cocharacter rows generate a non-saturated sublattice"
            )
        object.__setattr__(self, "cochar", tuple(tuple(r) for r in reduced))
        object.__setattr__(self, "ambient_rank", int(ambient_rank))

    @classmethod
    def full(cls, k: int) -> "Subtorus":
        # the identity basis is saturated and already in Hermite form
        full = object.__new__(cls)
        identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        object.__setattr__(full, "cochar", identity)
        object.__setattr__(full, "ambient_rank", int(k))
        return full

    @property
    def dim(self) -> int:
        return len(self.cochar)

    def is_trivial(self) -> bool:
        return not self.cochar

    def is_full(self) -> bool:
        return self.dim == self.ambient_rank

    def restrict(self, weight: Sequence[int]) -> tuple[int, ...]:
        """Pair a character (weight column) with the cocharacter basis."""
        w = tuple(map(int, weight))
        return tuple(sum(map(mul, row, w)) for row in self.cochar)

    def sort_key(self):
        return (-self.dim, self.cochar)


class GradedPiece(Record):
    """One isotypic component: the restricted weight and the part."""

    __slots__ = ("weight", "part")


def monomial_weight(m: Mono, weights: WeightMatrix) -> tuple[int, ...]:
    """Full-torus weight of a monomial: W times the exponent vector."""
    return tuple(
        sum(row[i] * e for i, e in enumerate(m) if e) for row in weights.rows
    )


def poly_weight(p: Poly, weights: WeightMatrix) -> tuple[int, ...] | None:
    """The common weight of a weight-homogeneous polynomial, else None.

    The zero polynomial is homogeneous of every weight; it reports the
    zero weight.
    """
    w = None
    for m in p.terms:
        mw = monomial_weight(m, weights)
        if w is None:
            w = mw
        elif mw != w:
            return None
    return w if w is not None else (0,) * weights.k


def restricted_columns(weights: WeightMatrix, torus: Subtorus) -> list[tuple[int, ...]]:
    """Every weight column restricted to the subtorus, in coordinate order."""
    return [torus.restrict(col) for col in weights.columns()]


def isotypic_pieces(
    p: Poly, restricted: Sequence[tuple[int, ...]], dim: int
) -> list[GradedPiece]:
    """Split p into isotypic parts, sorted by weight, given the weight
    columns already restricted to a subtorus of dimension ``dim``.

    A term's restricted weight is its exponent vector paired with each
    row of the restricted matrix; each part keeps the terms in p's order.
    """
    rows = [[col[a] for col in restricted] for a in range(dim)]
    buckets: dict[tuple[int, ...], dict] = {}
    for m, c in p.terms.items():
        w = tuple([sum(map(mul, m, row)) for row in rows])
        bucket = buckets.get(w)
        if bucket is None:
            buckets[w] = {m: c}
        else:
            bucket[m] = c
    return [
        GradedPiece(w, Poly._make(p.ring, terms))
        for w, terms in sorted(buckets.items())
    ]


def fixed_locus(weights: WeightMatrix, torus: Subtorus) -> tuple[int, ...]:
    """Indices of the moving coordinates; their common zero set is the
    fixed locus of the subtorus."""
    return tuple(
        i for i, r in enumerate(restricted_columns(weights, torus)) if any(r)
    )


def stabilizer_subtorus(support: Iterable[int], weights: WeightMatrix) -> Subtorus:
    """Largest subtorus fixing every point with the given support.

    The kernel {lam : <lam, w_i> = 0 for all i in support} is computed as
    a saturated integer lattice, so the result is canonical.
    """
    support = sorted(set(int(i) for i in support))
    k = weights.k
    if not support:
        return Subtorus.full(k)
    cols = [[weights.rows[a][i] for i in support] for a in range(k)]
    basis = linalg.left_kernel_basis(cols)
    return Subtorus(basis, k)


def orbit_is_closed(support: Iterable[int], weights: WeightMatrix) -> bool:
    """Whether the torus orbit of a point with this support is closed.

    Criterion: 0 lies in the relative interior of the convex hull of the
    support's weight columns.  The empty support is a fixed point.
    """
    support = sorted(set(int(i) for i in support))
    if not support:
        return True
    if weights.k == 0:
        return True
    return linalg.zero_in_relative_interior([weights.column(i) for i in support])


def _monomial_variables(ideal) -> list[set[int]] | None:
    """The variables of each generator when every generator is a
    monomial, else None."""
    if any(len(g.terms) != 1 for g in ideal.generators):
        return None
    return [{i for m in g.terms for i, e in enumerate(m) if e} for g in ideal.generators]


def support_is_realized(
    support: Sequence[int], ideal, budget: groebner.Budget | None = None
) -> bool:
    """Whether some point of V(I) is nonzero on every coordinate of the
    given support.

    For a monomial ideal I the point that is 1 on the support and 0
    elsewhere is the witness: a monomial vanishes there iff one of its
    variables lies outside the support, and a generator whose variables
    all lie inside vanishes at no point nonzero on the support.  So I is
    decided by its generators' variables alone (no generator: always
    realized; a constant generator: never).  Otherwise one Rabinowitsch
    basis decides it: in the ring with one adjoined variable t, the
    ideal generated by I and ``1 - t * prod_{i in S} x_i`` contains 1
    exactly when no such point exists.
    """
    variables = _monomial_variables(ideal)
    if variables is not None:
        return all(v.difference(support) for v in variables)
    ring = ideal.ring
    big = ring.adjoin_front([groebner._fresh_name(ring, "t")])
    prod = big.var(big.names[0])
    for i in support:
        prod = prod * big.var(ring.names[i])
    gens = [g.rename_ring(big) for g in ideal.generators]
    gens.append(big.one() - prod)
    gb = groebner.buchberger(groebner.Ideal(big, gens), budget=budget)
    return not groebner.contains_one(gb)


# the most distinct nonzero weight columns a center scan takes sets of;
# it visits up to 2^16 of them, and a wider weight matrix raises
_MAX_COLUMNS = 16


def _echelon_extend(basis: tuple, col: tuple[int, ...]) -> tuple:
    """An echelon basis of the span of ``basis`` and ``col``.

    ``basis`` holds (pivot, vector) pairs, each vector zero at the
    pivots before its own.  ``col`` is cleared at every pivot in integer
    arithmetic; if anything is left, its primitive part joins the basis,
    otherwise ``basis`` comes back as it is.
    """
    v = col
    for pivot, b in basis:
        if v[pivot]:
            f, g = b[pivot], v[pivot]
            v = [f * x - g * y for x, y in zip(v, b)]
    if not any(v):
        return basis
    d = gcd(*v)
    v = tuple(x // d for x in v)
    return basis + ((next(i for i, x in enumerate(v) if x), v),)


def _rank_deficient_supports(cols: list[tuple[int, ...]], candidates: Sequence[int], k: int):
    """Every support drawn from ``candidates`` whose columns have rank
    below k, by size and within a size in the order of
    ``itertools.combinations``.

    A support has a nontrivial stabilizer exactly when its columns have
    rank below k, and the columns of a superset span at least as much.
    So supports are grown level by level and only a rank-deficient one
    is extended, by one later candidate at a time; its rank is carried
    along as an echelon basis.  Every rank-deficient support arises from
    its prefix, so none is missed.
    """
    if k == 0:
        return
    level = [((), (), 0)]  # support, echelon basis, next candidate position
    while level:
        grown = []
        for support, basis, start in level:
            yield support
            for pos in range(start, len(candidates)):
                j = candidates[pos]
                wider = _echelon_extend(basis, cols[j])
                if len(wider) < k:
                    grown.append((support + (j,), wider, pos + 1))
        level = grown


def _closed_orbit_supports(weights: WeightMatrix):
    """Every set of distinct nonzero weight columns whose orbit is
    closed and whose stabilizer is nontrivial, as the first coordinate
    carrying each of its columns, with that stabilizer.

    Closedness and the stabilizer of a point depend only on the set of
    distinct nonzero weight columns its support carries: a strictly
    positive combination summing to zero can merge repeated columns or
    split one column's coefficient among its copies, and a zero column
    takes any positive coefficient without changing the sum; the
    stabilizer is the left kernel of the same columns, and ``Subtorus``
    stores that lattice in canonical Hermite form.  So the column sets
    cover every coordinate support.  The stabilizer is nontrivial
    exactly when the columns have rank below k, so the scan grows only
    rank-deficient sets (see ``_rank_deficient_supports``).  More than
    16 distinct nonzero columns raise ``BudgetExceededError``.
    """
    first: dict[tuple[int, ...], int] = {}
    for i, col in enumerate(weights.columns()):
        if any(col):
            first.setdefault(col, i)
    if len(first) > _MAX_COLUMNS:
        raise BudgetExceededError(
            f"center scan over {len(first)} distinct weight columns exceeds "
            f"the {_MAX_COLUMNS}-column cap"
        )
    for support in _rank_deficient_supports(weights.columns(), list(first.values()), weights.k):
        if orbit_is_closed(support, weights):
            yield support, stabilizer_subtorus(support, weights)


def closed_orbit_stabilizers(weights: WeightMatrix) -> list[Subtorus]:
    """Nontrivial subtori stabilizing some closed-orbit point of the ambient space.

    Unlike ``enumerate_blowup_centers`` this keeps trivially-acting
    subtori and ignores any ideal: the list serves structural checks that
    quantify over all closed-orbit points.
    """
    found = {R.cochar: R for _, R in _closed_orbit_supports(weights)}
    return sorted(found.values(), key=lambda R: R.sort_key())


def enumerate_blowup_centers(
    weights: WeightMatrix,
    ideal,
    unstable=None,
    budget: groebner.Budget | None = None,
) -> list[Subtorus]:
    """Nontrivial stabilizer subtori of closed-orbit points of V(I) that
    lie outside the unstable locus.

    Scans the column sets C whose orbit is closed and whose stabilizer R
    is nontrivial (see ``_closed_orbit_supports``).  A point's support
    carries exactly the columns C when the point vanishes on every
    coordinate whose nonzero column lies outside C and is nonzero on
    some coordinate of each column of C; zero-weight coordinates are
    free.  The point is not unstable when some generator of the unstable
    ideal (monomials only) is nonzero there, that is when the point is
    nonzero on that generator's variables; at stage 0 the constant 1 is
    that generator, and an unstable ideal without generators excludes
    every center.  So, with I' the ideal I plus the coordinates off C,
    R is a center iff some choice of one coordinate per column of C and
    of one unstable generator whose variables avoid those off C leaves a
    point of V(I') nonzero on the chosen coordinates and variables.
    ``support_is_realized`` decides each choice, smallest first, under
    ``budget``.  Subtori acting trivially on the ambient space are
    excluded: blowing up along the whole space is the degenerate case
    handled by the caller.

    Results are deduplicated and sorted by decreasing dimension, ties
    broken by the canonical cocharacter rows.
    """
    if unstable is None:
        unstable_vars = [set()]
    else:
        unstable_vars = _monomial_variables(unstable)
        if unstable_vars is None:
            raise PreconditionError("unstable ideal must be generated by monomials")
    ring = ideal.ring
    cols = weights.columns()
    found: dict = {}
    for support, R in _closed_orbit_supports(weights):
        if R.cochar in found or not fixed_locus(weights, R):
            continue  # known, or acts trivially on the ambient space
        chosen = {cols[i] for i in support}
        off = [i for i, col in enumerate(cols) if any(col) and col not in chosen]
        classes = [[i for i, col in enumerate(cols) if col == cols[j]] for j in support]
        picks = {
            tuple(sorted(u.union(coords)))
            for u in unstable_vars
            if u.isdisjoint(off)
            for coords in product(*classes)
        }
        sliced = groebner.Ideal(
            ring, [*ideal.generators, *(ring.var(ring.names[i]) for i in off)]
        )
        if any(
            support_is_realized(pick, sliced, budget)
            for pick in sorted(picks, key=lambda p: (len(p), p))
        ):
            found[R.cochar] = R
    return sorted(found.values(), key=lambda R: R.sort_key())
