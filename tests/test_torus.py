"""Torus actions on coordinates: weights, isotypic pieces, stabilizers,
closed orbits, and the enumeration of blowup centers."""

import itertools
import unittest.mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bench_models import MATRIX_MODELS
from ref import closedness_limit_oracle
from equiblow import (
    Budget,
    BudgetExceededError,
    Ideal,
    Poly,
    PreconditionError,
    Ring,
    Subtorus,
    WeightMatrix,
    buchberger,
    build_model,
    closed_orbit_stabilizers,
    contains_one,
    enumerate_blowup_centers,
    orbit_is_closed,
    parse_model_text,
    parse_poly,
    poly_weight,
    stabilizer_subtorus,
    support_is_realized,
)
from equiblow import linalg, torus
from equiblow.torus import (
    _closed_orbit_supports,
    isotypic_pieces,
    monomial_weight,
    restricted_columns,
)

R3 = Ring(["x", "y", "z"])
W1 = WeightMatrix([(1, -1, 0)])
T1 = Subtorus.full(1)


def test_poly_weight_detects_homogeneity():
    assert poly_weight(parse_poly("x*y + z^2", R3), W1) == (0,)
    assert poly_weight(parse_poly("x^2*y", R3), W1) == (1,)
    assert poly_weight(parse_poly("x + y", R3), W1) is None


def test_isotypic_pieces_sum_back_and_are_homogeneous():
    p = parse_poly("x*y + x^2*y + z + x - 3*y", R3)
    pieces = isotypic_pieces(p, restricted_columns(W1, T1), T1.dim)
    total = R3.zero()
    for gp in pieces:
        assert poly_weight(gp.part, W1) == gp.weight
        total = total + gp.part
    assert total == p
    weights = [gp.weight for gp in pieces]
    assert len(weights) == len(set(weights))


@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=1,
        max_size=2,
    ),
    st.sampled_from([None, (1, 0), (0, 1), (1, 1), (2, -1)]),
    st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        max_size=8,
    ),
)
@settings(max_examples=60)
def test_isotypic_pieces_match_per_term_restriction(rows, cochar, terms):
    # reference: restrict every term's full weight, one term at a time
    weights = WeightMatrix(rows)
    if cochar is None or weights.k == 1:
        torus = Subtorus.full(weights.k)
    else:
        torus = Subtorus([cochar], 2)
    p = Poly(R3, terms)
    buckets = {}
    for m, c in p.terms.items():
        w = torus.restrict(monomial_weight(m, weights))
        buckets.setdefault(w, {})[m] = c
    pieces = isotypic_pieces(p, restricted_columns(weights, torus), torus.dim)
    assert [(gp.weight, list(gp.part.terms.items())) for gp in pieces] == [
        (w, list(t.items())) for w, t in sorted(buckets.items())
    ]


def test_subtorus_rejects_non_saturated_lattice():
    with pytest.raises(PreconditionError):
        Subtorus([[2, 0]], 2)
    # a saturated sublattice of the same rank is accepted
    t = Subtorus([[1, 1]], 2)
    assert t.dim == 1


def test_subtorus_restrict_is_the_pairing():
    t = Subtorus([[1, 2]], 2)
    assert t.restrict((3, -1)) == (1,)
    full = Subtorus.full(2)
    assert full.restrict((3, -1)) == (3, -1)


def test_stabilizer_subtorus_kills_exactly_the_support_weights():
    W = WeightMatrix([(1, -1, 0), (0, 1, 0)])
    stab = stabilizer_subtorus((2,), W)
    assert stab.dim == 2
    stab_x = stabilizer_subtorus((0, 2), W)
    for row in stab_x.cochar:
        assert row[0] * 1 + row[1] * 0 == 0
    assert stab_x.dim == 1


def test_closed_orbit_rule_on_worked_supports():
    assert not orbit_is_closed((0,), W1)
    assert orbit_is_closed((0, 1), W1)
    assert orbit_is_closed((2,), W1)
    assert orbit_is_closed((), W1)


def test_closed_orbit_rule_matches_limit_oracle_k2_sample():
    # distinct restricted weight sets decide the verdict, so sweep the
    # sign patterns on three coordinates exhaustively
    seen = set()
    for flat in itertools.product((-1, 0, 1), repeat=6):
        W = WeightMatrix([flat[:3], flat[3:]])
        for size in range(1, 4):
            for support in itertools.combinations(range(3), size):
                key = frozenset(tuple(W.column(i)) for i in support)
                if key in seen:
                    continue
                seen.add(key)
                assert orbit_is_closed(support, W) == closedness_limit_oracle(key)


def test_support_is_realized_gives_the_slice():
    I = Ideal(R3, [parse_poly("y*z", R3), parse_poly("x*z", R3), parse_poly("x*y", R3)])
    # the z-axis minus the origin is nonzero on {z}
    assert support_is_realized((2,), I) is True
    # the support {x, y} forces x*y = 0, impossible with both nonzero
    assert support_is_realized((0, 1), I) is False
    # the empty support asks only for a point of V(I), off the support
    # anything goes: x = 1 has the point (1, 0, 0), and x = 1 is nonzero
    # on {x} but never on {x, y} once x*y = 0 holds too
    assert support_is_realized((), I) is True
    line = Ideal(R3, [parse_poly("x - 1", R3)])
    assert support_is_realized((), line) is True
    assert support_is_realized((0,), line) is True
    assert support_is_realized((0, 1), Ideal(R3, [*line.generators, *I.generators])) is False
    assert support_is_realized((), Ideal(R3, [parse_poly("x - 1", R3), R3.var("x")])) is False


def test_enumerate_blowup_centers_on_three_axes():
    I = Ideal(R3, [parse_poly("y*z", R3), parse_poly("x*z", R3), parse_poly("x*y", R3)])
    centers = enumerate_blowup_centers(W1, I)
    assert centers
    assert centers[0].is_full()


def test_center_scan_runs_under_the_callers_budget():
    # a non-monomial ideal costs one emptiness basis per surviving support
    I = Ideal(R3, [parse_poly("x*y - z^2", R3)])
    assert [c.is_full() for c in enumerate_blowup_centers(W1, I)] == [True]
    with pytest.raises(BudgetExceededError, match="basis size exceeded the cap of 1"):
        enumerate_blowup_centers(W1, I, budget=Budget(max_basis=1))


def test_center_scan_on_a_monomial_ideal_computes_no_basis(monkeypatch):
    from equiblow import groebner

    def fail(*args, **kwargs):
        raise AssertionError("a monomial ideal is decided by its supports")

    monkeypatch.setattr(groebner, "buchberger", fail)
    I = Ideal(R3, [parse_poly("y*z", R3), parse_poly("x*z", R3), parse_poly("x*y", R3)])
    tight = Budget(max_basis=1)
    assert [c.is_full() for c in enumerate_blowup_centers(W1, I, budget=tight)] == [True]
    # no generator: every support is realized; a constant: none is
    assert support_is_realized((0, 2), Ideal(R3, []), tight)
    assert not support_is_realized((), Ideal(R3, [R3.const(3)]), tight)
    assert enumerate_blowup_centers(W1, Ideal(R3, [R3.one()]), budget=tight) == []


def test_center_scan_reads_unstable_monomials_off_the_support():
    everything = Ideal(R3, [])

    def centers(*unstable):
        gens = [parse_poly(g, R3) for g in unstable]
        return enumerate_blowup_centers(W1, everything, Ideal(R3, gens))

    # only the supports () and {z} have a nontrivial stabilizer; x*z
    # vanishes on both strata, z only on the origin
    assert centers("x*z") == []
    assert [c.is_full() for c in centers("z")] == [True]
    assert centers() == []
    with pytest.raises(PreconditionError):
        centers("x + z")


def test_closed_orbit_stabilizers_lists_the_full_torus():
    subs = closed_orbit_stabilizers(W1)
    assert any(s.is_full() for s in subs)
    assert all(s.dim >= 1 for s in subs)


@st.composite
def weight_matrices_with_repeats(draw):
    """Rank 1 to 3, at most 6 coordinates, entries in [-2, 2], and at
    least one column that repeats another or is zero."""
    k = draw(st.sampled_from([1, 2, 3]))
    column = st.tuples(*[st.integers(min_value=-2, max_value=2)] * k)
    base = draw(st.lists(column, min_size=1, max_size=4))
    extra = draw(
        st.lists(
            st.one_of(st.sampled_from(base), st.just((0,) * k)),
            min_size=1,
            max_size=6 - len(base),
        )
    )
    cols = draw(st.permutations(base + extra))
    return WeightMatrix([[c[a] for c in cols] for a in range(k)])


def closed_orbit_supports_by_brute_force(W):
    """One LP and one kernel per support, in the scan's order."""
    out = []
    for size in range(W.n + 1):
        for support in itertools.combinations(range(W.n), size):
            if orbit_is_closed(support, W):
                R = stabilizer_subtorus(support, W)
                if not R.is_trivial():
                    out.append((support, R.cochar))
    return out


def nonzero_columns(support, W):
    return frozenset(W.column(i) for i in support if any(W.column(i)))


@settings(max_examples=80, deadline=None)
@given(weight_matrices_with_repeats())
def test_closed_orbit_scan_matches_the_per_support_scan(W):
    # every coordinate support with the same nonzero columns has the
    # same stabilizer, and the scan visits each such column set once,
    # through the first coordinate carrying each column
    want = {}
    for support, cochar in closed_orbit_supports_by_brute_force(W):
        assert want.setdefault(nonzero_columns(support, W), cochar) == cochar
    got = {}
    for support, R in _closed_orbit_supports(W):
        assert all(W.columns().index(W.column(i)) == i for i in support)
        key = nonzero_columns(support, W)
        assert key not in got
        got[key] = R.cochar
    assert got == want


@settings(max_examples=80, deadline=None)
@given(weight_matrices_with_repeats())
def test_scans_solve_closed_orbit_lps_only_below_full_rank(W):
    # a support of rank k has a trivial stabilizer, and so has every
    # superset, so neither scan may ask whether its orbit is closed
    seen = []

    def recorded(support, weights):
        seen.append(tuple(support))
        return orbit_is_closed(support, weights)

    with unittest.mock.patch.object(torus, "orbit_is_closed", recorded):
        list(_closed_orbit_supports(W))
        closed_orbit_stabilizers(W)
    assert seen
    for support in seen:
        assert linalg.rank([W.column(i) for i in support]) < W.k


def test_a_rank_one_scan_visits_only_the_empty_support():
    seen = []

    def recorded(support, weights):
        seen.append(tuple(support))
        return orbit_is_closed(support, weights)

    W = WeightMatrix([(1, -1, 2, -2)])
    with unittest.mock.patch.object(torus, "orbit_is_closed", recorded):
        assert list(_closed_orbit_supports(W)) == [((), T1)]
        assert closed_orbit_stabilizers(W) == [T1]
    assert seen == [(), ()]


@settings(max_examples=80, deadline=None)
@given(weight_matrices_with_repeats(), st.data())
def test_zero_and_repeated_columns_change_neither_test(W, data):
    cols = W.columns()
    support = tuple(sorted(data.draw(st.sets(st.integers(0, W.n - 1), min_size=1))))
    copy = cols[data.draw(st.sampled_from(support))]
    for added in ((0,) * W.k, copy):
        wider = W.with_columns(cols + [added])
        grown = support + (W.n,)
        assert orbit_is_closed(grown, wider) == orbit_is_closed(support, W)
        assert stabilizer_subtorus(grown, wider) == stabilizer_subtorus(support, W)


@st.composite
def weight_matrices(draw):
    """Rank 1 to 3, 0 to 7 coordinates, entries in [-2, 2]; columns are
    drawn from a short list plus the zero column, so repeats are common."""
    k = draw(st.integers(min_value=1, max_value=3))
    column = st.tuples(*[st.integers(min_value=-2, max_value=2)] * k)
    pool = draw(st.lists(column, min_size=1, max_size=4)) + [(0,) * k]
    cols = draw(st.lists(st.sampled_from(pool), max_size=7))
    return WeightMatrix([[c[a] for c in cols] for a in range(k)])


@settings(max_examples=120, deadline=None)
@given(weight_matrices())
def test_closed_orbit_stabilizers_match_the_support_scan(W):
    by_cochar = {
        cochar: Subtorus(cochar, W.k)
        for _, cochar in closed_orbit_supports_by_brute_force(W)
    }
    want = sorted(by_cochar.values(), key=lambda R: R.sort_key())
    assert closed_orbit_stabilizers(W) == want


@st.composite
def center_models(draw):
    """Rank 1 to 3 and 1 to 7 coordinates, whose columns are drawn from
    up to three columns, their negatives and the zero column, so repeats
    and lower-dimensional closed-orbit stabilizers are common; an ideal
    of one to three weight-homogeneous squarefree monomials or binomials,
    none constant (monomials only for a third of the draws); and no
    unstable ideal, or one of up to two squarefree monomials."""
    k = draw(st.integers(min_value=1, max_value=3))
    column = st.tuples(*[st.integers(min_value=-2, max_value=2)] * k)
    base = draw(st.lists(column, min_size=1, max_size=3))
    pool = base + [tuple(-x for x in c) for c in base] + [(0,) * k]
    cols = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    W = WeightMatrix([[c[a] for c in cols] for a in range(k)])
    ring = Ring([f"x{i}" for i in range(W.n)])
    monos = list(itertools.product(range(2), repeat=W.n))
    monomial = draw(st.integers(0, 2)) == 0
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.sampled_from(monos[1:]))
        w = monomial_weight(a, W)
        partners = [b for b in monos if b != a and monomial_weight(b, W) == w]
        if partners and not monomial and draw(st.booleans()):
            b = draw(st.sampled_from(partners))
            gens.append(Poly(ring, {a: 1, b: draw(st.sampled_from([1, -1, 2]))}))
        else:
            gens.append(Poly(ring, {a: 1}))
    unstable = None
    if draw(st.booleans()):
        drawn = draw(st.lists(st.sampled_from(monos), max_size=2))
        unstable = Ideal(ring, [Poly(ring, {m: 1}) for m in drawn])
    return W, Ideal(ring, gens), unstable


def centers_by_brute_force(W, ideal, unstable):
    """The centers by their definition, one coordinate support at a
    time: a closed orbit, a stabilizer acting nontrivially on the ambient
    space, some unstable generator nonzero on the support, and a point
    of V(I) with exactly that support, which a Rabinowitsch basis of I,
    the off-support coordinates and ``1 - t * prod_{i in S} x_i`` finds."""
    ring = ideal.ring
    big = Ring(["t", *ring.names])
    found = {}
    for size in range(W.n + 1):
        for support in itertools.combinations(range(W.n), size):
            if not orbit_is_closed(support, W):
                continue
            R = stabilizer_subtorus(support, W)
            if R.is_trivial() or not any(any(R.restrict(c)) for c in W.columns()):
                continue
            if unstable is not None and not any(
                all(i in support for m in g.terms for i, e in enumerate(m) if e)
                for g in unstable.generators
            ):
                continue  # every point with this support is unstable
            gens = [g.rename_ring(big) for g in ideal.generators]
            gens += [big.var(ring.names[i]) for i in range(W.n) if i not in support]
            prod = big.var("t")
            for i in support:
                prod = prod * big.var(ring.names[i])
            gens.append(big.one() - prod)
            if not contains_one(buchberger(Ideal(big, gens))):
                found[R.cochar] = R
    return sorted(found.values(), key=lambda R: R.sort_key())


R5 = Ring([f"x{i}" for i in range(5)])
# x0 and x4 carry the same column: on x1*(x0 - x4) = 0 no point has
# support {x0, x1} or {x1, x4}, only {x0, x1, x4}; on x0 = 0 the column
# is carried by x4 alone
W5 = WeightMatrix([(1, -1, 0, 0, 1), (0, 0, 1, -1, 0)])
BINOMIAL = Ideal(R5, [parse_poly("x0*x1 - x1*x4", R5)])


@example((W5, BINOMIAL, None))
@example((W5, BINOMIAL, Ideal(R5, [parse_poly("x4", R5)])))
@example((W5, BINOMIAL, Ideal(R5, [parse_poly("x2*x4", R5)])))
@example((W5, Ideal(R5, [parse_poly("x0", R5)]), None))
@example((W5, Ideal(R5, [parse_poly("x0", R5), parse_poly("x1*x2 - x3*x4", R5)]), None))
@settings(max_examples=150, deadline=None)
@given(center_models())
def test_center_scan_matches_the_per_support_definition(model):
    W, ideal, unstable = model
    assert enumerate_blowup_centers(W, ideal, unstable) == centers_by_brute_force(
        W, ideal, unstable
    )


def test_gl3_matrix_model_has_the_three_root_kernels():
    # the stabilizers of the GL(3) matrix model's closed orbits: the
    # full torus and the kernel of each root pair
    W = build_model(parse_model_text(MATRIX_MODELS["c3m3.kb"])).weights
    assert W.n == 27
    got = [R.cochar for R in closed_orbit_stabilizers(W)]
    assert got == [((1, 0), (0, 1)), ((0, 1),), ((1, 0),), ((1, 1),)]


def test_both_scans_refuse_one_column_past_the_cap():
    # the cap counts distinct nonzero weight columns: 40 coordinates with
    # two columns pass, and so do 16 columns beside a zero one
    for cols in ([1, -1] * 20, [0] + [c for c in range(-8, 9) if c]):
        W = WeightMatrix([cols])
        everything = Ideal(Ring([f"x{i}" for i in range(W.n)]), [])
        assert closed_orbit_stabilizers(W) == [T1]
        assert enumerate_blowup_centers(W, everything) == [T1]
    W = WeightMatrix([[c for c in range(-8, 10) if c]])
    everything = Ideal(Ring([f"x{i}" for i in range(W.n)]), [])
    with pytest.raises(BudgetExceededError) as centers:
        enumerate_blowup_centers(W, everything)
    with pytest.raises(BudgetExceededError) as stabilizers:
        closed_orbit_stabilizers(W)
    want = "center scan over 17 distinct weight columns exceeds the 16-column cap"
    assert str(centers.value) == str(stabilizers.value) == want
