"""The center scan against sympy, an implementation that shares no code.

``enumerate_blowup_centers`` reads the unstable exclusion off the
coordinate support and decides realization with one emptiness basis.
The reference below keeps the semantics those shortcuts replace and
answers both questions with ``sympy.groebner``:

- a support S is realized when the Rabinowitsch system of V(I), the
  off-support coordinates and ``1 - t * prod_{i in S} x_i`` is not the
  unit ideal;
- S is excluded when every unstable generator g lies in the radical of
  the support slice, that is when adding ``1 - s * g`` makes the same
  system the unit ideal.

Only the supports and their stabilizers come from equiblow, through
``torus._closed_orbit_supports``.  sympy is only a test oracle here; the
tests skip without it.
"""

import itertools

from hypothesis import HealthCheck, example, given, settings, strategies as st
import pytest

sympy = pytest.importorskip("sympy")

from equiblow import (  # noqa: E402
    Ideal,
    Poly,
    Ring,
    Subtorus,
    WeightMatrix,
    enumerate_blowup_centers,
    intrinsic_ideal,
    make_charts,
    parse_poly,
    unstable_ideal,
)
from equiblow.torus import _closed_orbit_supports, monomial_weight  # noqa: E402


def _to_sympy(p: Poly, gens):
    return sympy.Add(
        *[
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[g**e for g, e in zip(gens, m)])
            for m, c in p.terms.items()
        ]
    )


def _is_unit_ideal(polys, gens) -> bool:
    return list(sympy.groebner(polys, *gens, order="grevlex").exprs) == [1]


def _reference_centers(weights: WeightMatrix, ideal: Ideal, unstable) -> list:
    ring = ideal.ring
    xs = sympy.symbols(ring.names)
    t, s = sympy.Dummy("t"), sympy.Dummy("s")
    found: dict = {}
    for support, R in _closed_orbit_supports(weights, ring.n, 16):
        if R.cochar in found:
            continue
        if all(not any(R.restrict(weights.column(i))) for i in range(ring.n)):
            continue  # acts trivially on the ambient space
        system = [_to_sympy(g, xs) for g in ideal.generators]
        system += [xs[i] for i in range(ring.n) if i not in support]
        system.append(1 - t * sympy.Mul(*[xs[i] for i in support]))
        if _is_unit_ideal(system, (t, *xs)):
            continue  # no point of V(I) has this support
        if unstable is not None and all(
            _is_unit_ideal(system + [1 - s * _to_sympy(g, xs)], (s, t, *xs))
            for g in unstable.generators
        ):
            continue  # every realizing point is unstable
        found[R.cochar] = R
    return sorted(found.values(), key=lambda R: R.sort_key())


@st.composite
def rank_one_models(draw):
    """Rank-1 weights in [-2, 2] on 2-4 coordinates, not all zero, an
    ideal of one to three weight-homogeneous monomials or binomials, and
    for each coordinate up to two squarefree monomials: the unstable
    ideal drawn for the chart with that pivot."""
    n = draw(st.integers(2, 4))
    weights = WeightMatrix(
        [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))]
    )
    ring = Ring([f"x{i}" for i in range(n)])
    monos = list(itertools.product(range(3), repeat=n))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.sampled_from(monos))
        w = monomial_weight(a, weights)
        partners = [b for b in monos if b != a and monomial_weight(b, weights) == w]
        if partners and draw(st.booleans()):
            b = draw(st.sampled_from(partners))
            gens.append(Poly(ring, {a: 1, b: draw(st.sampled_from([1, -1, 2]))}))
        else:
            gens.append(Poly(ring, {a: 1}))
    squarefree = st.tuples(*[st.integers(0, 1)] * n)
    drawn = [draw(st.lists(squarefree, max_size=2)) for _ in range(n)]
    return weights, Ideal(ring, gens), drawn


def _model(weights, gens, drawn):
    ring = Ring([f"x{i}" for i in range(len(weights))])
    return (
        WeightMatrix([weights]),
        Ideal(ring, [parse_poly(g, ring) for g in gens]),
        drawn,
    )


# the origin is not on x0*x1 = 1, so the full torus is no center there,
# though other supports are realized
@example(_model((1, -1), ["x0*x1 - 1"], [[], []]))
@example(_model((1, -1, 0), ["x0*x1 - 1", "x2"], [[(0, 0, 1)], [(1, 0, 0)]]))
@given(rank_one_models())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_center_scan_matches_sympy_on_full_torus_charts(model):
    weights, ideal, drawn = model
    assert enumerate_blowup_centers(weights, ideal) == _reference_centers(
        weights, ideal, None
    )
    for chart in make_charts(ideal.ring, weights, Subtorus.full(1)):
        raw = intrinsic_ideal(ideal, chart)
        # the chart's own unstable ideal excludes every center on rank 1
        # (the descent theorem), so a drawn monomial ideal also exercises
        # the support rule where it keeps a center
        monomials = [Poly(chart.ring, {m: 1}) for m in drawn[chart.pivot]]
        for unstable in (unstable_ideal(chart), Ideal(chart.ring, monomials)):
            assert enumerate_blowup_centers(
                chart.weights, raw, unstable
            ) == _reference_centers(chart.weights, raw, unstable)
