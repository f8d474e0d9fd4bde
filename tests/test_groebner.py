"""Buchberger engine: worked and reduced bases, the ideal operations
(saturation, elimination, lift certificates), and the two branches of
ideal_equal.  The S-pair check, on every basis the acceptance battery
computes and on random bases, and the presentation invariance of
ideal_equal are acceptance criterion 11."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equiblow import (
    Budget,
    BudgetExceededError,
    DEGREVLEX,
    LEX,
    Ideal,
    Poly,
    Ring,
    buchberger,
    contains_one,
    eliminate,
    ideal_equal,
    lift_certificate,
    normal_form,
    parse_poly,
    saturate,
)
from equiblow.poly import block_order, mono_divides

R2 = Ring(["x", "y"])
R3 = Ring(["x", "y", "z"])


def gb_strs(gb):
    return sorted(str(p) for p in gb.basis)


def test_worked_basis_degrevlex():
    I = Ideal(R2, [parse_poly("y - x^2", R2), parse_poly("x*y", R2)])
    gb = buchberger(I, DEGREVLEX)
    assert gb_strs(gb) == ["x*y", "x^2 - y", "y^2"]
    # membership of the generator x*y is a zero normal form
    assert normal_form(parse_poly("x*y", R2), gb).is_zero()


def test_worked_basis_lex_with_y_first():
    # under lex with y ahead of x the same ideal collapses to two elements
    Ryx = Ring(["y", "x"])
    I = Ideal(Ryx, [parse_poly("y - x^2", Ryx), parse_poly("x*y", Ryx)])
    gb = buchberger(I, LEX)
    assert gb_strs(gb) == ["-x^2 + y", "x^3"]


def test_reduced_basis_is_autoreduced_and_spolys_vanish():
    I = Ideal(R3, [parse_poly("x*y - z^2", R3), parse_poly("x^2 - y*z", R3)])
    gb = buchberger(I, DEGREVLEX)
    # sympy's grevlex basis of the ideal, so its S-polynomials vanish
    assert gb_strs(gb) == ["x*y - z^2", "x^2 - y*z", "y^2*z - x*z^2"]
    # no leading term divides a term of another basis element
    for i, f in enumerate(gb.basis):
        for j, g in enumerate(gb.basis):
            if i == j:
                continue
            mg = g.leading_monomial(DEGREVLEX)
            assert all(not mono_divides(mg, m) for m in f.terms)


def test_ideal_equal_on_one_generator_set_computes_no_basis(monkeypatch):
    from equiblow import groebner

    def fail(*args, **kwargs):
        raise AssertionError("no basis is needed for one generator set")

    x, y = R2.gens()
    monkeypatch.setattr(groebner, "buchberger", fail)
    assert ideal_equal(Ideal(R2, [x, y * y - x]), Ideal(R2, [y * y - x, x, x]))


def test_ideal_equal_compares_bases_of_different_generator_sets(monkeypatch):
    from equiblow import groebner

    calls = []
    original = groebner.buchberger

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    x, y = R2.gens()
    monkeypatch.setattr(groebner, "buchberger", counted)
    assert ideal_equal(Ideal(R2, [x, y]), Ideal(R2, [x + y, x - y]))
    assert len(calls) == 2


def test_ideal_equal_detects_difference():
    I = Ideal(R2, [parse_poly("x", R2)])
    J = Ideal(R2, [parse_poly("x", R2), parse_poly("y", R2)])
    assert not ideal_equal(I, J)
    assert not ideal_equal(J, I)


def test_normal_form_is_idempotent_and_linear():
    I = Ideal(R2, [parse_poly("x^2 - y", R2)])
    gb = buchberger(I, DEGREVLEX)
    p = parse_poly("x^4 + x^2*y + 1", R2)
    q = parse_poly("x^3 - y^2", R2)
    np_, nq = normal_form(p, gb), normal_form(q, gb)
    assert normal_form(np_, gb) == np_
    assert normal_form(p + q, gb) == np_ + nq


def test_lift_certificate_re_expands():
    I = Ideal(R3, [parse_poly("x*y - z^2", R3), parse_poly("y^2 - x*z", R3)])
    member = parse_poly("x*(x*y - z^2) + (z - 1)*(y^2 - x*z)", R3)
    cert = lift_certificate(member, I)
    assert cert is not None
    total = R3.zero()
    for c, g in zip(cert, I.generators):
        total = total + c * g
    assert total == member
    outside = parse_poly("x + 1", R3)
    assert lift_certificate(outside, I) is None


def test_contains_one_flags_the_unit_ideal():
    I = Ideal(R2, [parse_poly("x", R2), parse_poly("x + 1", R2)])
    assert contains_one(buchberger(I, DEGREVLEX))
    J = Ideal(R2, [parse_poly("x", R2)])
    assert not contains_one(buchberger(J, DEGREVLEX))


def test_saturation_removes_a_component():
    # V(x*y) with the y-axis removed leaves the x-axis: (x*y) : y^inf = (x)
    I = Ideal(R2, [parse_poly("x*y", R2)])
    S = saturate(I, parse_poly("y", R2))
    assert ideal_equal(S, Ideal(R2, [parse_poly("x", R2)]))
    # saturating by a unit changes nothing
    S1 = saturate(I, R2.one())
    assert ideal_equal(S1, I)


def test_saturation_is_idempotent():
    I = Ideal(R2, [parse_poly("x^2*y^3", R2), parse_poly("x^3", R2)])
    h = parse_poly("x", R2)
    once = saturate(I, h)
    twice = saturate(once, h)
    assert ideal_equal(once, twice)


def test_elimination_projects_a_graph():
    # z = x^2 + y on the graph ideal; killing z leaves no relation
    I = Ideal(R3, [parse_poly("z - x^2 - y", R3)])
    E = eliminate(I, ["z"])
    assert E.ring.names == ("x", "y")
    assert not E.generators
    # the twisted cubic projects to the plane parabola
    C = Ideal(R3, [parse_poly("y - x^2", R3), parse_poly("z - x^3", R3)])
    E2 = eliminate(C, ["z"])
    target = Ring(["x", "y"])
    assert ideal_equal(E2, Ideal(target, [parse_poly("y - x^2", target)]))
    # the names are read once, so a one-shot iterable eliminates them all
    assert eliminate(C, (n for n in ["z"])) == E2
    E3 = eliminate(C, iter(["x", "z"]))
    assert E3.ring.names == ("y",) and not E3.generators


def test_budget_caps_raise():
    I = Ideal(R3, [parse_poly("x*y - z^2", R3), parse_poly("x^2 - y*z", R3)])
    with pytest.raises(BudgetExceededError):
        buchberger(I, DEGREVLEX, Budget(max_basis=1, max_degree=1))


def test_budget_caps_the_tail_reduction_of_finalisation(monkeypatch):
    # under a block order the tail reduction of v^2 + u*y^2 by u - z^3
    # gives v^2 + y^2*z^3: degree 5 from inputs of degree 3, with no pair
    # to reduce (the leading monomials are coprime)
    from equiblow import groebner

    ring = Ring(["u", "v", "y", "z"])
    ideal = Ideal(ring, [parse_poly("v^2 + u*y^2", ring), parse_poly("u - z^3", ring)])
    order = block_order(2)
    finalised = []
    original = groebner._finalize

    def finalize(*args):
        finalised.append(None)
        return original(*args)

    monkeypatch.setattr(groebner, "_finalize", finalize)
    with pytest.raises(BudgetExceededError, match=r"degree 5 \(cap 4\)"):
        buchberger(ideal, order, Budget(max_basis=10, max_degree=4))
    assert finalised
    gb = buchberger(ideal, order, Budget(max_basis=10, max_degree=5))
    assert gb.basis == (parse_poly("u - z^3", ring), parse_poly("v^2 + y^2*z^3", ring))


def test_zero_generators_are_dropped():
    I = Ideal(R2, [R2.zero(), parse_poly("x", R2), R2.zero()])
    assert len(I.generators) == 1


SMALL_BUDGETS = st.builds(Budget, st.integers(0, 4), st.integers(0, 8))


@st.composite
def drawn_ideals(draw, max_terms=1, min_gens=0, budgets=st.none() | SMALL_BUDGETS):
    """One to four variables, ``min_gens`` to six generators of one to
    ``max_terms`` terms with coefficients 1, -1, 2 or -1/3, some repeated,
    sometimes the constant 1, under one of the three orders and a drawn
    budget."""
    n = draw(st.integers(1, 4))
    ring = Ring([f"v{i}" for i in range(n)])
    mono = st.tuples(*[st.integers(0, 3)] * n)
    coeff = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)])
    terms = st.dictionaries(mono, coeff, min_size=1, max_size=max_terms)
    gens = draw(st.lists(st.builds(lambda t: Poly(ring, t), terms), min_size=min_gens, max_size=6))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    if draw(st.integers(0, 4)) == 0:
        gens.insert(draw(st.integers(0, len(gens))), ring.one())
    gens = draw(st.permutations(gens))
    order = draw(st.sampled_from([DEGREVLEX, LEX, block_order(1)]))
    return Ideal(ring, gens), order, draw(budgets)


def _basis_or_error(ideal, order, budget, tracked):
    """The reduced basis, or the budget error's text; a tracked basis
    element must re-expand from its cofactors over the generators."""
    try:
        gb = buchberger(ideal, order, budget, _tracked=tracked)
    except BudgetExceededError as exc:
        return str(exc)
    if tracked:
        gb, reps = gb
        for g in gb.basis:
            total = ideal.ring.zero()
            for q, h in zip(reps[g], ideal.generators):
                total = total + q * h
            assert total == g
    return [(str(p), p.terms) for p in gb.basis]


@given(drawn_ideals())
@settings(max_examples=300, deadline=None)
def test_monomial_bases_equal_the_general_engine(case):
    # the certificate-tracking engine always runs the pair loop; reduced
    # bases and budget errors must agree with the minimal-generator path
    ideal, order, budget = case
    assert _basis_or_error(ideal, order, budget, False) == _basis_or_error(
        ideal, order, budget, True
    )


@given(
    drawn_ideals(
        max_terms=3, min_gens=2, budgets=st.builds(Budget, st.integers(2, 12), st.integers(4, 16))
    )
)
@settings(max_examples=200, deadline=None)
def test_tracked_and_plain_engines_agree_on_general_ideals(case):
    # the same reductions run with and without cofactors, so the bases
    # and the budget errors are the same
    ideal, order, budget = case
    assert _basis_or_error(ideal, order, budget, False) == _basis_or_error(
        ideal, order, budget, True
    )
