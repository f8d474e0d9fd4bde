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
monomial ideal that test is too.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import groebner, linalg
from .errors import BudgetExceededError, PreconditionError
from .poly import Mono, Poly, Ring


@dataclass(frozen=True)
class WeightMatrix:
    """k x n integer weight matrix for a diagonal torus action."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
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
        cols = [tuple(int(x) for x in c) for c in cols]
        return WeightMatrix(
            tuple(tuple(c[a] for c in cols) for a in range(self.k))
        )


@dataclass(frozen=True)
class Subtorus:
    """A subtorus given by a saturated cocharacter sublattice.

    ``cochar`` holds d rows of length k in Hermite-canonical form; d is
    the dimension.  Construction rejects non-primitive bases, since a
    finite-index sublattice names a different group.
    """

    cochar: tuple[tuple[int, ...], ...]
    ambient_rank: int

    def __init__(self, cochar: Iterable[Iterable[int]], ambient_rank: int):
        raw = [list(int(x) for x in row) for row in cochar]
        for row in raw:
            if len(row) != ambient_rank:
                raise ValueError("cocharacter length does not match ambient rank")
        reduced = linalg.hermite_rows(raw) if raw else []
        if reduced:
            divisors = linalg.smith_diagonal(reduced)
            if any(d != 1 for d in divisors):
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
        w = [int(x) for x in weight]
        return tuple(sum(row[a] * w[a] for a in range(self.ambient_rank)) for row in self.cochar)

    def sort_key(self):
        return (-self.dim, self.cochar)


@dataclass(frozen=True)
class GradedPiece:
    """One isotypic component: the restricted weight and the part."""

    weight: tuple[int, ...]
    part: Poly


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


def isotypic_decompose(p: Poly, weights: WeightMatrix, torus: Subtorus) -> list[GradedPiece]:
    """Split p into isotypic parts under the subtorus, sorted by weight."""
    buckets: dict[tuple[int, ...], dict] = {}
    for m, c in p.terms.items():
        w = torus.restrict(monomial_weight(m, weights))
        buckets.setdefault(w, {})[m] = c
    return [
        GradedPiece(w, Poly._make(p.ring, terms))
        for w, terms in sorted(buckets.items())
    ]


def reynolds(p: Poly, weights: WeightMatrix, torus: Subtorus) -> Poly:
    """Projection onto the weight-zero isotypic piece (Reynolds operator)."""
    zero = (0,) * torus.dim
    kept = {
        m: c
        for m, c in p.terms.items()
        if torus.restrict(monomial_weight(m, weights)) == zero
    }
    return Poly._make(p.ring, kept)


def fixed_locus(weights: WeightMatrix, torus: Subtorus) -> tuple[int, ...]:
    """Indices of the moving coordinates; their common zero set is the
    fixed locus of the subtorus."""
    zero = (0,) * torus.dim
    return tuple(
        i for i in range(weights.n) if torus.restrict(weights.column(i)) != zero
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


def _check_scan_size(n: int, max_vars: int):
    if n > max_vars:
        raise BudgetExceededError(
            f"support scan over {n} coordinates exceeds the {max_vars}-variable cap"
        )


def _closed_orbit_supports(weights: WeightMatrix, n: int, max_vars: int):
    """Every coordinate support of a closed orbit whose stabilizer is
    nontrivial, with that stabilizer.  A point's stabilizer depends only on
    its coordinate support, so the scan is exhaustive.

    Closedness and the stabilizer depend only on the set of distinct
    nonzero weight columns of the support, so the LP and the kernel are
    solved once per such set and scan.  This is exact: a strictly
    positive combination summing to zero can merge repeated columns or
    split one column's coefficient among its copies, and a zero column
    takes any positive coefficient without changing the sum; the
    stabilizer is the left kernel of the same columns, and ``Subtorus``
    stores that lattice in canonical Hermite form.  Every support is
    still yielded, in the same order.
    """
    _check_scan_size(n, max_vars)
    cols = weights.columns()
    by_columns: dict[frozenset, Subtorus | None] = {}
    for size in range(n + 1):
        for support in itertools.combinations(range(n), size):
            key = frozenset(cols[i] for i in support if any(cols[i]))
            if key not in by_columns:
                R = None
                if orbit_is_closed(support, weights):
                    R = stabilizer_subtorus(support, weights)
                by_columns[key] = None if R is None or R.is_trivial() else R
            R = by_columns[key]
            if R is not None:
                yield support, R


def closed_orbit_stabilizers(weights: WeightMatrix, max_vars: int = 16) -> list[Subtorus]:
    """Nontrivial subtori stabilizing some closed-orbit point of the ambient space.

    Unlike ``enumerate_blowup_centers`` this keeps trivially-acting
    subtori and ignores any ideal: the list serves structural checks that
    quantify over all closed-orbit points.

    Closedness and the stabilizer depend only on the set of distinct
    nonzero weight columns of a support (see ``_closed_orbit_supports``),
    so the scan runs over the subsets of those columns, each represented
    by the first coordinate carrying it, rather than over every support.
    """
    _check_scan_size(weights.n, max_vars)
    first: dict[tuple[int, ...], int] = {}
    for i, col in enumerate(weights.columns()):
        if any(col):
            first.setdefault(col, i)
    found: dict = {}
    for size in range(len(first) + 1):
        for support in itertools.combinations(first.values(), size):
            if orbit_is_closed(support, weights):
                R = stabilizer_subtorus(support, weights)
                if not R.is_trivial():
                    found.setdefault(R.cochar, R)
    return sorted(found.values(), key=lambda R: R.sort_key())


def enumerate_blowup_centers(
    weights: WeightMatrix,
    ideal,
    unstable=None,
    max_vars: int = 16,
    budget: groebner.Budget | None = None,
) -> list[Subtorus]:
    """Nontrivial stabilizer subtori of closed-orbit points of V(I).

    Scans every coordinate support S whose orbit is closed.  On the
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
    for support, R in _closed_orbit_supports(weights, ideal.ring.n, max_vars):
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
