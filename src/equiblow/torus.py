"""Diagonal torus actions: weights, isotypic pieces, stabilizers, centers.

A rank-k torus acts diagonally on affine n-space through an integer k x n
weight matrix; column i is the character through which the i-th
coordinate transforms.  Subtori are saturated cocharacter sublattices,
stored as canonical Hermite-reduced row bases so equal subtori compare
equal.

Because the action is diagonal, a point's stabilizer, the closedness
of its orbit and the vanishing of a monomial on it depend only on its
coordinate support.  The blowup-center scan therefore works support by
support: everything but one emptiness test (is some point of V(I)
supported exactly there?) is read off the support itself, and for a
monomial ideal that test is too.  Only supports whose weight columns
have rank below k have a nontrivial stabilizer, so the one scan,
``_closed_orbit_supports``, grows those alone.
"""
from __future__ import annotations

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

    def __init__(self, weight: tuple[int, ...], part: Poly):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "part", part)


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


def _realized_on(variables: list[set[int]], support: Iterable[int]) -> bool:
    """Whether some point of V(I) has exactly the support S, for a
    monomial ideal I given by its generators' variables.

    On the points with support exactly S a monomial vanishes iff one of
    its variables lies outside S, so such points lie in V(I) iff every
    generator has a variable outside S.  No generator: always realized;
    a constant generator: never.
    """
    return all(v.difference(support) for v in variables)


def support_is_realized(
    support: Sequence[int], ideal, budget: groebner.Budget | None = None
) -> bool:
    """Whether some point of V(I) has exactly the given coordinate support.

    A monomial ideal is decided by its generators' variables alone.
    Otherwise such a point is a zero of I and of the off-support
    coordinates at which the product of the support's coordinates is
    invertible, so one Rabinowitsch basis decides it: in the ring with
    one adjoined variable t, the ideal generated by I, the off-support
    variables and ``1 - t * prod_{i in S} x_i`` contains 1 exactly when
    no point does.
    """
    variables = _monomial_variables(ideal)
    if variables is not None:
        return _realized_on(variables, support)
    ring = ideal.ring
    support = set(support)
    big = ring.adjoin_front([groebner._fresh_name(ring, "t")])
    gens = [g.rename_ring(big) for g in ideal.generators]
    prod = big.var(big.names[0])
    for i, name in enumerate(ring.names):
        if i in support:
            prod = prod * big.var(name)
        else:
            gens.append(big.var(name))
    gens.append(big.one() - prod)
    gb = groebner.buchberger(groebner.Ideal(big, gens), budget=budget)
    return not groebner.contains_one(gb)


# the widest ambient space a support scan visits; a wider one raises
MAX_SCAN_VARS = 16


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


def _closed_orbit_supports(weights: WeightMatrix, candidates: Sequence[int]):
    """Every support drawn from ``candidates`` whose orbit is closed and
    whose stabilizer is nontrivial, with that stabilizer.  A point's
    stabilizer depends only on its coordinate support, so with every
    coordinate as a candidate the scan is exhaustive.

    The stabilizer is nontrivial exactly when the support's columns have
    rank below k, so the scan grows only rank-deficient supports (see
    ``_rank_deficient_supports``): a full-rank support and each of its
    supersets are never visited.  Closedness and the stabilizer depend
    only on the set of distinct nonzero weight columns of the support,
    so the closed-orbit LP and the kernel run once per such set among
    the rank-deficient supports.  This is exact: a strictly positive
    combination summing to zero can merge repeated columns or split one
    column's coefficient among its copies, and a zero column takes any
    positive coefficient without changing the sum; the stabilizer is
    the left kernel of the same columns, and ``Subtorus`` stores that
    lattice in canonical Hermite form.  Every support the full scan
    would yield is still yielded, in the same order.  A weight matrix
    wider than ``MAX_SCAN_VARS`` raises ``BudgetExceededError``.
    """
    if weights.n > MAX_SCAN_VARS:
        raise BudgetExceededError(
            f"support scan over {weights.n} coordinates exceeds the "
            f"{MAX_SCAN_VARS}-variable cap"
        )
    cols = weights.columns()
    by_columns: dict[frozenset, Subtorus | None] = {}
    for support in _rank_deficient_supports(cols, candidates, weights.k):
        key = frozenset(cols[i] for i in support if any(cols[i]))
        if key not in by_columns:
            by_columns[key] = (
                stabilizer_subtorus(support, weights)
                if orbit_is_closed(support, weights)
                else None
            )
        R = by_columns[key]
        if R is not None:
            yield support, R


def closed_orbit_stabilizers(weights: WeightMatrix) -> list[Subtorus]:
    """Nontrivial subtori stabilizing some closed-orbit point of the ambient space.

    Unlike ``enumerate_blowup_centers`` this keeps trivially-acting
    subtori and ignores any ideal: the list serves structural checks that
    quantify over all closed-orbit points.

    Closedness and the stabilizer depend only on the set of distinct
    nonzero weight columns of a support (see ``_closed_orbit_supports``),
    so the scan's candidates are those columns, each represented by the
    first coordinate carrying it.
    """
    first: dict[tuple[int, ...], int] = {}
    for i, col in enumerate(weights.columns()):
        if any(col):
            first.setdefault(col, i)
    found = {R.cochar: R for _, R in _closed_orbit_supports(weights, list(first.values()))}
    return sorted(found.values(), key=lambda R: R.sort_key())


def enumerate_blowup_centers(
    weights: WeightMatrix,
    ideal,
    unstable=None,
    budget: groebner.Budget | None = None,
) -> list[Subtorus]:
    """Nontrivial stabilizer subtori of closed-orbit points of V(I).

    Scans every coordinate support S whose orbit is closed and whose
    stabilizer is nontrivial (see ``_closed_orbit_supports``).  On the
    points with support exactly S a monomial vanishes iff one of its
    variables lies outside S, so an unstable ideal (monomial generators
    only) excludes S when every generator has such a variable; one
    without generators vanishes everywhere and so excludes every center.
    That test is read off S and runs first.  A support that passes it
    must be realized by a point of V(I): for a monomial ideal I the same
    rule decides that, otherwise it costs one emptiness basis, under
    ``budget``.  Subtori acting trivially on the ambient space
    are excluded: blowing up along the whole space is the degenerate
    case handled by the caller.

    Results are deduplicated and sorted by decreasing dimension, ties
    broken by the canonical cocharacter rows.
    """
    unstable_vars = None
    if unstable is not None:
        unstable_vars = _monomial_variables(unstable)
        if unstable_vars is None:
            raise PreconditionError("unstable ideal must be generated by monomials")
    found: dict = {}
    for support, R in _closed_orbit_supports(weights, range(weights.n)):
        if R.cochar in found:
            continue
        if not fixed_locus(weights, R):
            continue  # acts trivially on the ambient space
        if unstable_vars is not None and _realized_on(unstable_vars, support):
            continue  # every point with this support is unstable
        if not support_is_realized(support, ideal, budget):
            continue
        found[R.cochar] = R
    return sorted(found.values(), key=lambda R: R.sort_key())
