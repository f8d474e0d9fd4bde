"""The center scan against sympy, an implementation that shares no code.

``enumerate_blowup_centers`` scans sets of distinct weight columns,
reads the unstable exclusion off the chosen coordinates and decides
realization with one emptiness basis per choice, or, for a monomial
ideal, off the coordinates too.  The reference, ``ref._reference_centers``,
keeps the per-coordinate definition those shortcuts replace: it
enumerates every coordinate support S with ``itertools`` and

- decides whether the orbit of a point with support S is closed, and
  the row space of its stabilizer, exactly over QQ with sympy
  (``ref.caratheodory_oracles`` and ``ref.sympy_rref``);
- calls S realized when the Rabinowitsch system of V(I), the
  off-support coordinates and ``1 - t * prod_{i in S} x_i`` is not the
  unit ideal (``sympy.groebner``);
- excludes S when every unstable generator g lies in the radical of
  the support slice, that is when adding ``1 - s * g`` makes the same
  system the unit ideal.

Centers are compared as rational row spaces.  sympy is only a test
oracle here; the tests skip without it.
"""

import itertools
import operator

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
    support_is_realized,
    unstable_ideal,
)
from ref import _is_unit_ideal, _rabinowitsch, _reference_centers, _row_space  # noqa: E402


def assert_centers_match(weights, ideal, unstable=None):
    centers = enumerate_blowup_centers(weights, ideal, unstable)
    spaces = {_row_space(R.cochar) for R in centers}
    assert len(spaces) == len(centers)
    assert spaces == _reference_centers(weights, ideal, unstable)


@st.composite
def rank_one_models(draw):
    """Rank-1 weights in [-2, 2] on 2-4 coordinates, not all zero, an
    ideal of one to three weight-homogeneous monomials or binomials (or,
    for a third of the draws, of monomials only), and for each
    coordinate up to two squarefree monomials: the unstable ideal drawn
    for the chart with that pivot."""
    n = draw(st.integers(2, 4))
    weights = WeightMatrix(
        [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))]
    )
    ring = Ring([f"x{i}" for i in range(n)])
    monos = list(itertools.product(range(3), repeat=n))
    monomial = draw(st.integers(0, 2)) == 0
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.sampled_from(monos))
        w = sum(map(operator.mul, a, weights.rows[0]))
        partners = [b for b in monos if b != a and sum(map(operator.mul, b, weights.rows[0])) == w]
        if partners and not monomial and draw(st.booleans()):
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
# though other supports are realized; the empty ideal realizes every
# support and the unit ideal none
@example(_model((1, -1), ["x0*x1 - 1"], [[], []]))
@example(_model((1, -1, 0), [], [[(0, 0, 1)], []]))
@example(_model((1, -1, 0), ["1"], [[], []]))
@example(_model((1, -1, 0), ["x0*x1 - 1", "x2"], [[(0, 0, 1)], [(1, 0, 0)]]))
@given(rank_one_models())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_center_scan_matches_sympy_on_full_torus_charts(model):
    weights, ideal, drawn = model
    assert_centers_match(weights, ideal)
    for chart in make_charts(ideal.ring, weights, Subtorus.full(1)):
        raw = intrinsic_ideal(ideal, chart)
        # the chart's own unstable ideal excludes every center on rank 1
        # (the descent theorem), so a drawn monomial ideal also exercises
        # the support rule where it keeps a center
        monomials = [Poly(chart.ring, {m: 1}) for m in drawn[chart.pivot]]
        for unstable in (unstable_ideal(chart), Ideal(chart.ring, monomials)):
            assert_centers_match(chart.weights, raw, unstable)


R2 = Ring(["x0", "x1"])


@st.composite
def monomial_ideals(draw):
    """Up to four monomials of degree at most 2 in 1-4 coordinates, with
    coefficients 1, -1 or 2, sometimes with the constant 1."""
    n = draw(st.integers(1, 4))
    ring = Ring([f"x{i}" for i in range(n)])
    mono = st.tuples(*[st.integers(0, 2)] * n)
    terms = st.builds(lambda m, c: Poly(ring, {m: c}), mono, st.sampled_from([1, -1, 2]))
    gens = draw(st.lists(terms, max_size=4))
    if draw(st.integers(0, 4)) == 0:
        gens.append(ring.one())
    return Ideal(ring, gens)


@example(Ideal(Ring(["x0", "x1", "x2"]), []))
@example(Ideal(R2, [parse_poly("x0*x1", R2), R2.one()]))
@given(monomial_ideals())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_monomial_support_realization_matches_sympy(ideal):
    # monomial ideals are decided off the supports, with no emptiness
    # basis; every support, closed orbit or not, must agree with sympy,
    # and for a monomial ideal a point nonzero on S exists exactly when
    # one with support S does
    ring = ideal.ring
    xs = sympy.symbols(ring.names)
    t = sympy.Dummy("t")
    for size in range(ring.n + 1):
        for support in itertools.combinations(range(ring.n), size):
            system = _rabinowitsch(ideal, support, xs, t)
            exact = not _is_unit_ideal(system, (t, *xs))
            off = [xs[i] for i in range(ring.n) if i not in support]
            nonzero = not _is_unit_ideal([p for p in system if p not in off], (t, *xs))
            assert support_is_realized(support, ideal) == nonzero == exact
    weights = WeightMatrix([[(-1) ** i for i in range(ring.n)]])
    assert_centers_match(weights, ideal)
