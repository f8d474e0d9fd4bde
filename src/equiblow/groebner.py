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
    _divide,
    block_order,
    divmod_multi,
    exact_div,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
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


def _reduce(
    p: Poly, basis: Sequence[Poly], order: MonomialOrder, budget: Budget
) -> tuple[Poly, dict[int, dict]]:
    """Full reduction of p by the working basis: the remainder, whose
    degree the budget caps, and the quotient terms by basis index."""
    quotients, r_terms = _divide(p, basis, order)
    reduced = Poly._make(p.ring, r_terms)
    _check_degree(reduced.total_degree(), budget)
    return reduced, quotients


def _cofactors(
    rep: tuple[Poly, ...], quotients: dict[int, dict], reps: Sequence[tuple[Poly, ...]]
) -> tuple[Poly, ...]:
    """rep - sum(q_i * reps[i]): the cofactors over the generators of a
    remainder, from those of its dividend (``rep``) and of its divisors
    (``reps``), and the quotient terms q_i that ``_divide`` returned."""
    ring = rep[0].ring
    qs = [(Poly._make(ring, q), reps[i]) for i, q in quotients.items()]
    return tuple(
        r - Poly._sum_of_products(ring, [(q, rr[t]) for q, rr in qs])
        for t, r in enumerate(rep)
    )


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

    # the working basis, each element's sugar and, when tracked, its
    # cofactors over the generators; a remainder's sugar and cofactors
    # are read off the quotients of its reduction
    basis: list[Poly] = []
    sugars: list[int] = []
    reps: list[tuple[Poly, ...]] | None = [] if _tracked else None
    zero = (ring.zero(),) * len(gens)

    def add(p: Poly, sugar: int, rep) -> bool:
        p, quotients = _reduce(p, basis, order, budget)
        if p.is_zero():
            return False
        for i, q in quotients.items():
            sugar = max(sugar, sugars[i] + max(map(mono_degree, q)))
        basis.append(p)
        sugars.append(sugar)
        if reps is not None:
            reps.append(_cofactors(rep, quotients, reps))
        _check_size(len(basis), budget)
        return True

    for t, g in enumerate(gens):
        rep = None if reps is None else zero[:t] + (ring.one(),) + zero[t + 1 :]
        add(g, g.total_degree(), rep)

    # each pair is pushed once under (sugar, order key of the lcm, i, j);
    # the keys never change, so the heap yields the pairs in that order
    lms: list[Mono] = [b.leading_monomial(order) for b in basis]
    pairs: list[tuple] = []
    done: set[tuple[int, int]] = set()

    def push_pairs(j: int):
        lj, sj = lms[j], sugars[j]
        dj = mono_degree(lj)
        for i in range(j):
            li = lms[i]
            lcm = mono_lcm(li, lj)
            d = mono_degree(lcm)
            sugar = max(sugars[i] + d - mono_degree(li), sj + d - dj)
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
        # the S-polynomial s = 0 - (-ci*x^ui)*basis[i] - (cj*x^uj)*basis[j]
        ui, uj = mono_div(lcm, li), mono_div(lcm, lj)
        ci = exact_div(1, basis[i].leading_coefficient(order))
        cj = exact_div(1, basis[j].leading_coefficient(order))
        s = basis[i].term_mul(ui, ci) - basis[j].term_mul(uj, cj)
        rep = None if reps is None else _cofactors(zero, {i: {ui: -ci}, j: {uj: cj}}, reps)
        if add(s, sugar, rep):
            lms.append(basis[-1].leading_monomial(order))
            push_pairs(len(basis) - 1)

    return _finalize(ring, order, basis, reps, budget)


def _finalize(
    ring: Ring, order: MonomialOrder, basis: list[Poly], reps: list | None, budget: Budget
):
    """Interreduce, tail-reduce, normalise to monic, sort canonically;
    with ``reps``, the basis elements' cofactors, also return the
    cofactors of each result.

    Tail reduction keeps the leading term, but outside a graded order it
    can raise the total degree, so it runs under the caller's budget too.
    """
    # drop elements whose leading monomial another one divides
    keep: list[int] = []
    lms = [b.leading_monomial(order) for b in basis]
    for i in range(len(basis)):
        redundant = False
        for j in range(len(basis)):
            if i == j:
                continue
            if mono_divides(lms[j], lms[i]):
                if lms[j] != lms[i] or j < i:
                    redundant = True
                    break
        if not redundant:
            keep.append(i)

    # tail-reduce every survivor against the others
    final: list[tuple] = []
    for i in keep:
        others = [k for k in keep if k != i]
        b, quotients = basis[i], {}
        if others:
            b, quotients = _reduce(b, [basis[k] for k in others], order, budget)
        c = exact_div(1, b.leading_coefficient(order))
        rep = None
        if reps is not None:
            rep = _cofactors(reps[i], quotients, [reps[k] for k in others])
            rep = tuple(r * c for r in rep)
        final.append((b * c, rep))

    final.sort(key=lambda f: order.key(f[0].leading_monomial(order)))
    gb = GroebnerBasis(ring, order, tuple(b for b, _ in final))
    return gb if reps is None else (gb, dict(final))


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


def ideal_equal(a: Ideal, b: Ideal, budget: Budget | None = None) -> bool:
    """Ideal equality: the same generator set gives the same ideal at
    once; otherwise reduced DEGREVLEX bases, which are unique, decide."""
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    if set(a.generators) == set(b.generators):
        return True
    return buchberger(a, DEGREVLEX, budget).basis == buchberger(b, DEGREVLEX, budget).basis


def lift_certificate(
    p: Poly, ideal: Ideal, budget: Budget | None = None
) -> tuple[Poly, ...] | None:
    """Exact quotients expressing p over the ideal's generators.

    Returns q with p == sum(q_i * g_i), or None when p is not a member.
    The identity is re-checked by expansion before returning.
    """
    zero = tuple(ideal.ring.zero() for _ in ideal.generators)
    if p.is_zero():
        return zero
    if not ideal.generators:
        return None
    gb, reps = buchberger(ideal, DEGREVLEX, budget, _tracked=True)
    # dividing -p gives -q_b where p = sum(q_b * b) + r, so with r = 0
    # the cofactors of p are 0 - sum(-q_b * reps[b])
    quotients, r = _divide(-p, gb.basis, gb.order)
    if r:
        return None
    out = _cofactors(zero, quotients, [reps[b] for b in gb.basis])
    total = ideal.ring.zero()
    for q, g in zip(out, ideal.generators):
        total = total + q * g
    if total != p:
        raise TheoremCheckError("lift certificate failed re-expansion")  # pragma: no cover
    return out


def eliminate(
    ideal: Ideal,
    names: Iterable[str],
    budget: Budget | None = None,
) -> Ideal:
    """Intersection of the ideal with the subring omitting ``names``.

    Computed with a block order that makes the eliminated variables
    dominate, so basis elements free of them generate the intersection.
    """
    names = set(names)
    drop = [nm for nm in ideal.ring.names if nm in names]
    missing = names - set(ideal.ring.names)
    if missing:
        raise ValueError(f"cannot eliminate non-variables: {sorted(missing)}")
    if not drop:
        return ideal
    front = Ring(tuple(drop) + tuple(nm for nm in ideal.ring.names if nm not in names))
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
