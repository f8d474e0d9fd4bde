"""Buchberger's algorithm with reduced bases, elimination and saturation.

The engine uses the sugar selection strategy together with both classic
pair-discard criteria (coprime leading terms, and the chain criterion).
Reduced bases are unique for a fixed ideal and monomial order, which is
what the ideal-equality test relies on.  Every entry point takes an
optional Budget; blowing past it raises a typed error rather than
silently truncating.
"""
from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Sequence

from .errors import BudgetExceededError, PreconditionError, TheoremCheckError
from .poly import (
    DEGREVLEX,
    MonomialOrder,
    Mono,
    Poly,
    Ring,
    block_order,
    divmod_multi,
    exact_div,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    sub_scaled,
)
from .record import Record


class Budget(Record):
    """Caps for a single Groebner computation."""

    __slots__ = ("max_basis", "max_degree")

    def __init__(self, max_basis: int = 2000, max_degree: int = 40):
        object.__setattr__(self, "max_basis", max_basis)
        object.__setattr__(self, "max_degree", max_degree)


DEFAULT_BUDGET = Budget()


class Ideal(Record):
    """A finitely generated ideal; zero generators are dropped on entry."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: Ring, generators: Iterable[Poly]):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator outside the ideal's ring")
            if not g.is_zero():
                gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))


class GroebnerBasis(Record):
    """A reduced Groebner basis: monic, interreduced, canonically sorted."""

    __slots__ = ("ring", "order", "basis")

    def __init__(self, ring: Ring, order: MonomialOrder, basis: tuple[Poly, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "basis", basis)


def contains_one(gb: GroebnerBasis) -> bool:
    return len(gb.basis) == 1 and gb.basis[0].is_constant() and not gb.basis[0].is_zero()


# ---------------------------------------------------------------------------
# division


def normal_form(p: Poly, gb: GroebnerBasis) -> Poly:
    """Fully reduced remainder of p modulo the basis (unique)."""
    if not gb.basis:
        return p
    _, r = divmod_multi(p, gb.basis, gb.order)
    return r


# ---------------------------------------------------------------------------
# Buchberger


def _s_poly(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = mono_lcm(lf, lg)
    uf = mono_div(lcm, lf)
    ug = mono_div(lcm, lg)
    return f.term_mul(uf, exact_div(1, f.leading_coefficient(order))) - g.term_mul(
        ug, exact_div(1, g.leading_coefficient(order))
    )


class _Tracked:
    """A polynomial plus its representation over the original generators."""

    __slots__ = ("poly", "rep", "sugar")

    def __init__(self, poly: Poly, rep: tuple[Poly, ...] | None, sugar: int):
        self.poly = poly
        self.rep = rep
        self.sugar = sugar

    def scaled(self, c) -> "_Tracked":
        rep = None if self.rep is None else tuple(r * c for r in self.rep)
        return _Tracked(self.poly * c, rep, self.sugar)


def _reduce_tracked(
    item: _Tracked, basis: list[_Tracked], order: MonomialOrder, budget: Budget
) -> _Tracked:
    """Full reduction of a tracked polynomial against the working basis.

    The running remainder is a dict updated in place; each step does the
    same exact arithmetic as subtracting the reducer as a new Poly.
    """
    ring = item.poly.ring
    work = dict(item.poly.terms)
    rep = item.rep
    sugar = item.sugar
    out_terms: dict = {}
    key = order.key
    lead = [(b, b.poly.leading_monomial(order), b.poly.leading_coefficient(order)) for b in basis]
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for b, lm, lc in lead:
            quot = mono_div(m, lm)
            if quot is not None:
                break
        else:
            out_terms[m] = c
            continue
        coeff = exact_div(c, lc)
        sub_scaled(work, b.poly.terms, quot, coeff, lm)
        sugar = max(sugar, b.sugar + mono_degree(quot))
        if rep is not None:
            rep = tuple(
                r - br.term_mul(quot, coeff) for r, br in zip(rep, b.rep)
            )
    reduced = Poly._make(ring, out_terms)
    _check_degree(reduced.total_degree(), budget)
    return _Tracked(reduced, rep, sugar)


def _check_degree(degree: int, budget: Budget) -> None:
    if degree > budget.max_degree:
        raise BudgetExceededError(
            f"reduction produced degree {degree} (cap {budget.max_degree})"
        )


def _check_size(size: int, budget: Budget) -> None:
    if size > budget.max_basis:
        raise BudgetExceededError(f"basis size exceeded the cap of {budget.max_basis}")


def buchberger(
    ideal: Ideal,
    order: MonomialOrder = DEGREVLEX,
    budget: Budget | None = None,
    _tracked: bool = False,
):
    """Reduced Groebner basis of the ideal under the given order.

    With ``_tracked`` the return value also carries, for every basis
    element, exact quotients over the original generators (used by lift
    certificates).  Sugar-strategy pair selection with the coprime and
    chain criteria keeps the pair queue short; the budget caps basis
    size and the degree of any new basis element.  An ideal generated by
    monomials needs no pairs: its reduced basis is read off the minimal
    generators.
    """
    budget = budget or DEFAULT_BUDGET
    ring = ideal.ring
    gens = ideal.generators
    if not gens:
        gb = GroebnerBasis(ring, order, ())
        return (gb, {}) if _tracked else gb
    if not _tracked and all(len(g.terms) == 1 for g in gens):
        return _monomial_basis(ring, order, gens, budget)

    def unit_rep(i: int) -> tuple[Poly, ...] | None:
        if not _tracked:
            return None
        return tuple(ring.one() if j == i else ring.zero() for j in range(len(gens)))

    basis: list[_Tracked] = []
    for i, g in enumerate(gens):
        item = _reduce_tracked(
            _Tracked(g, unit_rep(i), g.total_degree()), basis, order, budget
        )
        if not item.poly.is_zero():
            basis.append(item)
        _check_size(len(basis), budget)

    # each pair is pushed once under (sugar, order key of the lcm, i, j);
    # the keys never change, so the heap yields the pairs in that order
    lms: list[Mono] = [b.poly.leading_monomial(order) for b in basis]
    pairs: list[tuple] = []
    done: set[tuple[int, int]] = set()

    def push_pairs(j: int):
        lj, sj = lms[j], basis[j].sugar
        dj = mono_degree(lj)
        for i in range(j):
            li = lms[i]
            lcm = mono_lcm(li, lj)
            d = mono_degree(lcm)
            sugar = max(basis[i].sugar + d - mono_degree(li), sj + d - dj)
            heappush(pairs, (sugar, order.key(lcm), i, j))

    for j in range(1, len(basis)):
        push_pairs(j)

    while pairs:
        sugar, _, i, j = heappop(pairs)
        ij = (i, j)
        done.add(ij)
        li, lj = lms[i], lms[j]
        if mono_coprime(li, lj):
            continue
        lcm = mono_lcm(li, lj)
        skip = False
        for k in range(len(basis)):
            if k in ij:
                continue
            if not mono_divides(lms[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            continue
        s = _s_poly(basis[i].poly, basis[j].poly, order)
        rep = None
        if _tracked:
            ui = mono_div(lcm, li)
            uj = mono_div(lcm, lj)
            ci = exact_div(1, basis[i].poly.leading_coefficient(order))
            cj = exact_div(1, basis[j].poly.leading_coefficient(order))
            rep = tuple(
                ri.term_mul(ui, ci) - rj.term_mul(uj, cj)
                for ri, rj in zip(basis[i].rep, basis[j].rep)
            )
        item = _reduce_tracked(_Tracked(s, rep, sugar), basis, order, budget)
        if item.poly.is_zero():
            continue
        basis.append(item)
        lms.append(item.poly.leading_monomial(order))
        _check_size(len(basis), budget)
        push_pairs(len(basis) - 1)

    return _finalize(ring, order, basis, _tracked, budget)


def _finalize(
    ring: Ring, order: MonomialOrder, basis: list[_Tracked], tracked: bool, budget: Budget
):
    """Interreduce, tail-reduce, normalise to monic, sort canonically.

    Tail reduction keeps the leading term, but outside a graded order it
    can raise the total degree, so it runs under the caller's budget too.
    """
    # drop elements whose leading monomial another one divides
    keep: list[_Tracked] = []
    lms = [b.poly.leading_monomial(order) for b in basis]
    for i, b in enumerate(basis):
        redundant = False
        for j in range(len(basis)):
            if i == j:
                continue
            if mono_divides(lms[j], lms[i]):
                if lms[j] != lms[i] or j < i:
                    redundant = True
                    break
        if not redundant:
            keep.append(b)

    # tail-reduce every survivor against the others
    final: list[_Tracked] = []
    for i, b in enumerate(keep):
        others = [keep[j] for j in range(len(keep)) if j != i]
        if others:
            b = _reduce_tracked(b, others, order, budget)
        lc = b.poly.leading_coefficient(order)
        final.append(b.scaled(exact_div(1, lc)))

    final.sort(key=lambda b: order.key(b.poly.leading_monomial(order)))
    gb = GroebnerBasis(ring, order, tuple(b.poly for b in final))
    if tracked:
        reps = {b.poly: b.rep for b in final}
        return gb, reps
    return gb


def _monomial_basis(
    ring: Ring, order: MonomialOrder, gens: Sequence[Poly], budget: Budget
) -> GroebnerBasis:
    """Reduced basis of an ideal generated by monomials: its minimal
    generators, made monic and sorted.

    Every S-polynomial of two monomials is zero, so the general loop only
    reduces each generator against the ones kept before it and then
    drops the kept ones that a later one divides.  This is that scan,
    with the same budget checks in the same order, so it raises the same
    errors; no pair, reduction or coefficient arithmetic is needed.
    """
    kept: list[Mono] = []
    for g in gens:
        (m,) = g.terms
        if any(mono_divides(k, m) for k in kept):
            continue
        _check_degree(mono_degree(m), budget)
        kept.append(m)
        _check_size(len(kept), budget)
    minimal = [
        m for i, m in enumerate(kept) if not any(mono_divides(k, m) for k in kept[i + 1 :])
    ]
    minimal.sort(key=order.key)
    return GroebnerBasis(
        ring, order, tuple(Poly._make(ring, {m: 1}) for m in minimal)
    )


# ---------------------------------------------------------------------------
# derived operations


def ideal_equal(
    a: Ideal, b: Ideal, order: MonomialOrder = DEGREVLEX, budget: Budget | None = None
) -> bool:
    """Ideal equality: the same generator set gives the same ideal at
    once; otherwise reduced bases, which are unique, decide."""
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    if set(a.generators) == set(b.generators):
        return True
    return buchberger(a, order, budget).basis == buchberger(b, order, budget).basis


def lift_certificate(
    p: Poly, ideal: Ideal, budget: Budget | None = None
) -> tuple[Poly, ...] | None:
    """Exact quotients expressing p over the ideal's generators.

    Returns q with p == sum(q_i * g_i), or None when p is not a member.
    The identity is re-checked by expansion before returning.
    """
    if p.is_zero():
        return tuple(ideal.ring.zero() for _ in ideal.generators)
    if not ideal.generators:
        return None
    gb, reps = buchberger(ideal, DEGREVLEX, budget, _tracked=True)
    quotients, r = divmod_multi(p, gb.basis, gb.order)
    if not r.is_zero():
        return None
    out = [ideal.ring.zero() for _ in ideal.generators]
    for q, b in zip(quotients, gb.basis):
        if q.is_zero():
            continue
        for t, rep_part in enumerate(reps[b]):
            out[t] = out[t] + q * rep_part
    total = ideal.ring.zero()
    for q, g in zip(out, ideal.generators):
        total = total + q * g
    if total != p:
        raise TheoremCheckError("lift certificate failed re-expansion")  # pragma: no cover
    return tuple(out)


def eliminate(
    ideal: Ideal,
    names: Iterable[str],
    budget: Budget | None = None,
) -> Ideal:
    """Intersection of the ideal with the subring omitting ``names``.

    Computed with a block order that makes the eliminated variables
    dominate, so basis elements free of them generate the intersection.
    """
    drop = [nm for nm in ideal.ring.names if nm in set(names)]
    missing = set(names) - set(ideal.ring.names)
    if missing:
        raise ValueError(f"cannot eliminate non-variables: {sorted(missing)}")
    if not drop:
        return ideal
    front = Ring(tuple(drop) + tuple(nm for nm in ideal.ring.names if nm not in set(drop)))
    moved = Ideal(front, [g.rename_ring(front) for g in ideal.generators])
    gb = buchberger(moved, block_order(len(drop)), budget)
    sub = ideal.ring.without(drop)
    kept = []
    block = len(drop)
    for g in gb.basis:
        if all(all(m[i] == 0 for i in range(block)) for m in g.terms):
            kept.append(g.rename_ring(sub))
    return Ideal(sub, kept)


def _fresh_name(ring: Ring, stem: str) -> str:
    nm = stem
    i = 0
    while nm in ring.index:
        i += 1
        nm = f"{stem}{i}"
    return nm


def saturate(ideal: Ideal, h: Poly, budget: Budget | None = None) -> Ideal:
    """Saturation I : h^infinity via an inverse variable and elimination."""
    if h.ring != ideal.ring:
        raise ValueError("saturating element outside the ideal's ring")
    if h.is_zero():
        raise PreconditionError("cannot saturate by zero")
    if h.is_constant():
        return ideal
    ring = ideal.ring
    t = _fresh_name(ring, "s_inv")
    big = ring.adjoin_front([t])
    gens = [g.rename_ring(big) for g in ideal.generators]
    gens.append(big.var(t) * h.rename_ring(big) - 1)
    return eliminate(Ideal(big, gens), [t], budget)
