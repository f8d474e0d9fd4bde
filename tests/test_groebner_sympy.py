"""Reduced bases against sympy, an implementation that shares no code.

Reduced Groebner bases are unique for a fixed ideal and order, so the
basis of ``buchberger`` must equal sympy's, element by element, once
both are made monic.  sympy is only a test oracle here; the tests skip
without it.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402

from equiblow import DEGREVLEX, Ring, parse_poly  # noqa: E402
from equiblow.groebner import Ideal, buchberger, eliminate  # noqa: E402
from equiblow.poly import Poly, block_order  # noqa: E402
from ref import _sympy_basis  # noqa: E402


def _terms(basis) -> set[frozenset]:
    return {frozenset(g.terms.items()) for g in basis}


def _cyclic(n: int) -> list[Poly]:
    names = [f"x{i}" for i in range(n)]
    ring = Ring(names)
    gens = [
        " + ".join("*".join(names[(i + k) % n] for k in range(d)) for i in range(n))
        for d in range(1, n)
    ]
    gens.append("*".join(names) + " - 1")
    return [parse_poly(g, ring) for g in gens]


@pytest.mark.parametrize("n", [4, 5])
def test_cyclic_bases_match_sympy(n):
    polys = _cyclic(n)
    gb = buchberger(Ideal(polys[0].ring, polys), DEGREVLEX)
    assert len(gb.basis) == (7 if n == 4 else 20)
    assert _terms(gb.basis) == _sympy_basis(polys, "grevlex")


def _ideals():
    def build(n, max_terms):
        ring = Ring([f"v{i}" for i in range(n)])
        mono = st.tuples(*[st.integers(0, 2) for _ in range(n)])
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        poly = st.dictionaries(mono, coeff, min_size=1, max_size=max_terms).map(
            lambda d: Poly(ring, d)
        )
        return st.lists(poly, min_size=1, max_size=3 if max_terms > 1 else 5).map(
            lambda ps: [p for p in ps if not p.is_zero()]
        )

    # one term per generator draws monomial ideals, whose bases are read
    # off the minimal generators without the pair loop
    sizes = st.tuples(st.integers(2, 4), st.sampled_from([3, 1]))
    return sizes.flatmap(lambda nt: build(*nt)).filter(bool)


@given(_ideals())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generated_ideals_match_sympy(polys):
    gb = buchberger(Ideal(polys[0].ring, polys), DEGREVLEX)
    assert _terms(gb.basis) == _sympy_basis(polys, "grevlex")


def test_block_order_elimination_matches_sympy():
    ring = Ring(["t", "x", "y", "z"])
    polys = [
        parse_poly(s, ring)
        for s in ("x - t^2", "y - t^3 + t", "z*t - x*y + 1")
    ]
    # the block order is degrevlex on the first block, then degrevlex on the rest
    order = ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))
    gb = buchberger(Ideal(ring, polys), block_order(1))
    expected = _sympy_basis(polys, order)
    assert _terms(gb.basis) == expected
    # the elimination ideal is generated by the elements free of t
    kept = eliminate(Ideal(ring, polys), ["t"])
    free_of_t = {
        frozenset((m[1:], c) for m, c in g) for g in expected if all(m[0] == 0 for m, _ in g)
    }
    assert free_of_t and _terms(kept.generators) == free_of_t
