"""Acceptance battery: one test per shipped guarantee.

Each test states its guarantee, checks it, and prints a single
checklist line.  Criteria 5, 6 and 7 are checked against oracles of
``ref`` that share no code with the package: the rank computation
``frac_rank``, the destabilizer grid and the limit analysis.  The
others check the package against itself: criterion 9 against its lift
search, criterion 11 through the engine's ``normal_form``, and
criterion 12 compares two runs' bytes.  The whole battery is budgeted
to run in well under a minute.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from equiblow import (
    DEGREVLEX,
    EquivariantBundle,
    Ideal,
    LocalModel,
    Poly,
    PreconditionError,
    Ring,
    SmallExtension,
    Subtorus,
    TheoremCheckError,
    WeightMatrix,
    blowup_local_model,
    blowup_section,
    blowup_tree,
    buchberger,
    cli,
    cohomology_dims,
    construct_equivalence,
    contains_one,
    dcritical_chart,
    embedding_independence_check,
    fiber_charts_commute,
    find_lift,
    four_term_at,
    hm_fiber_semistable,
    ideal_equal,
    intrinsic_ideal,
    lift_morphism_to_blowup,
    make_charts,
    normal_form,
    obstruction_assignment,
    orbit_is_closed,
    parse_poly,
    point_semistable,
    specialize,
    unstable_ideal,
    verify_omega_equivalence,
)
from equiblow.modelfile import build_model, load_model_file
from equiblow.poly import mono_lcm
from equiblow.torus import monomial_weight
from ref import closedness_limit_oracle, frac_rank, strict_destabilizer_exists

F = Fraction
CORPUS = Path(cli.__file__).parent / "corpus"

R1 = Ring(["x"])
R2 = Ring(["x", "y"])
R3 = Ring(["x", "y", "z"])
W0 = WeightMatrix([])
W2 = WeightMatrix([(1, -1)])
W3 = WeightMatrix([(1, -1, 0)])


def _pass(n, label):
    print(f"criterion {n:02d} ({label}): PASS")


def family_fiber_zero():
    built = build_model(load_model_file(str(CORPUS / "family.kb")))
    return specialize(built.model, 0)


def ambient_models():
    """Five reference models: every chart of each must pass the
    coincidence check, and every stage of each feeds the later batteries."""
    return [
        ("pair", dcritical_chart(parse_poly("x*y", R2), W2)),
        ("three-axes", dcritical_chart(parse_poly("x*y*z", R3), W3)),
        ("conic", dcritical_chart(parse_poly("x*y - z^2", R3), W3)),
        ("square", dcritical_chart(parse_poly("1/2*x^2*y^2", R2), W2)),
        ("family-fiber-0", family_fiber_zero()),
    ]


# ---------------------------------------------------------------------------
# 1: the blowup section cuts exactly the intrinsic ideal, chart by chart


def test_criterion_01_intrinsic_ideal_matches_blowup_section():
    checked = 0
    for name, model in ambient_models():
        center = Subtorus.full(model.weights.k)
        atlas = make_charts(model.ring, model.weights, center)
        nodes, _ = blowup_tree(model.ideal, model, atlas)
        results = {node.chart.name: node.coincides for node in nodes}
        assert set(results) == {"chart_x", "chart_y"}, name
        assert all(results.values()), (name, results)
        checked += 1
    assert checked >= 5
    _pass(1, "coincidence on 5 models, every chart")


# ---------------------------------------------------------------------------
# 2: exceptional division is always exact on stable ideals


NAMES = ("x", "y", "z", "w")
_EXPONENTS = {
    n: [
        e
        for e in itertools.product(range(6), repeat=n)
        if 1 <= sum(e) <= 5
    ]
    for n in (2, 3, 4)
}


def random_stable_ideal(rng):
    """Ideal with weight-homogeneous generators, hence torus stable."""
    n = rng.randint(2, 4)
    k = rng.randint(1, 2)
    ring = Ring(list(NAMES[:n]))
    while True:
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
        if any(any(r) for r in rows):
            break
    weights = WeightMatrix(rows)
    by_weight = {}
    for e in _EXPONENTS[n]:
        by_weight.setdefault(monomial_weight(e, weights), []).append(e)
    classes = sorted(by_weight)
    gens = []
    for _ in range(rng.randint(1, 3)):
        monos = by_weight[classes[rng.randrange(len(classes))]]
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[monos[rng.randrange(len(monos))]] = F(
                rng.choice([-3, -2, -1, 1, 2, 3])
            )
        gens.append(Poly(ring, terms))
    return ring, weights, Ideal(ring, gens)


def test_criterion_02_exceptional_division_never_fails_on_stable_input():
    instances = []
    for name, model in ambient_models():
        instances.append((model.ring, model.weights, model.ideal))
    # stable ideal whose listed generators are not weight homogeneous
    instances.append(
        (R2, W2, Ideal(R2, [parse_poly("x + y", R2), parse_poly("x - y", R2)]))
    )
    rng = random.Random(20260819)
    while len(instances) < 106:
        instances.append(random_stable_ideal(rng))
    division_failures = 0
    chart_runs = 0
    for ring, weights, ideal in instances:
        center = Subtorus.full(weights.k)
        for chart in make_charts(ring, weights, center):
            try:
                intrinsic_ideal(ideal, chart)
            except TheoremCheckError:
                division_failures += 1
            chart_runs += 1
    assert len(instances) >= 106
    assert chart_runs >= 200
    assert division_failures == 0
    _pass(2, f"exact division on {chart_runs} chart pullbacks, 0 failures")


# ---------------------------------------------------------------------------
# 3: the intrinsic ideal does not depend on the equivariant embedding


def test_criterion_03_intrinsic_ideal_is_embedding_independent():
    cases = [
        ("x*y", ["x", "y"], [(1, -1)]),
        ("x*y*z", ["x", "y", "z"], [(1, -1, 0)]),
    ]
    for text, names, rows in cases:
        small_ring = Ring(names)
        weights = WeightMatrix(rows)
        small = dcritical_chart(parse_poly(text, small_ring), weights)
        wide = Ring(names + ["u"])
        wide_weights = WeightMatrix([tuple(r) + (0,) for r in rows])
        labels = [f"e{i}" for i in range(len(names) + 1)]
        frame_weights = [weights.column(i) for i in range(len(names))] + [(0,)]
        section = tuple(parse_poly(str(c), wide) for c in small.section)
        section += (wide.var("u"),)
        big = LocalModel(
            wide,
            wide_weights,
            EquivariantBundle(labels, frame_weights),
            section,
        )
        assert embedding_independence_check(
            small.ideal, big.ideal, wide_weights, ("u",)
        ), text
    _pass(3, "elimination recovers the small intrinsic ideal, all charts")


# ---------------------------------------------------------------------------
# 4: the four-term complex really is a complex, before and after blowup


VALUES = [
    F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2),
    F(3), F(2, 3), F(-3), F(5), F(-5, 2), F(7, 3),
]


def locus_points(model, want=20):
    """Rational points of the section's zero locus: the origin, axis
    points, then coordinate-pair points, until the quota is met."""
    n = model.ring.n
    zero = (F(0),) * n
    pts, seen = [], set()

    def offer(p):
        if p in seen or len(pts) >= want:
            return
        seen.add(p)
        if all(c.evaluate(p) == 0 for c in model.section):
            pts.append(p)

    offer(zero)
    for i in range(n):
        for v in VALUES:
            q = list(zero)
            q[i] = v
            offer(tuple(q))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for v in VALUES[:5]:
                for w in VALUES[:5]:
                    q = list(zero)
                    q[i] = v
                    q[j] = w
                    offer(tuple(q))
    return pts


def walk_nodes(model):
    """Every node of the model's Kirwan tree with its depth, depth first."""
    atlas = make_charts(model.ring, model.weights, Subtorus.full(model.weights.k))
    out = []

    def rec(depth, stage):
        for node in stage:
            out.append((depth, node))
            rec(depth + 1, node.children)

    rec(1, blowup_tree(model.ideal, model, atlas, full=True)[1])
    return out


def test_criterion_04_complex_compositions_vanish_at_sampled_points():
    rich = {"three-axes", "square", "family-fiber-0"}
    total = 0
    for name, model in ambient_models():
        pts = locus_points(model)
        if name in rich:
            assert len(pts) >= 20, name
        else:
            # the section cuts out one rational point; sample all of it
            assert len(pts) >= 1, name
        for p in pts:
            four_term_at(model, p)  # raises if a composition is nonzero
        total += len(pts)
        for depth, oc in walk_nodes(model):
            stage_pts = locus_points(oc.model)
            if not stage_pts:
                # nothing to sample only when the stage locus is empty
                assert contains_one(oc.gb), (name, oc.chart.name)
            if name in rich and depth == 1:
                assert len(stage_pts) >= 20, (name, oc.chart.name)
            for p in stage_pts:
                four_term_at(oc.model, p)
            total += len(stage_pts)
    assert total >= 120
    _pass(4, f"compositions vanish at {total} sampled locus points")


# ---------------------------------------------------------------------------
# 5: worked cohomology dimensions, against a standalone rank oracle


def oracle_dims(K):
    r0, r1, r2 = frac_rank(K.m0), frac_rank(K.m1), frac_rank(K.m2)
    return (K.k - r0, K.n - r1 - r0, K.r - r2 - r1, K.k - r2)


def test_criterion_05_worked_cohomology_dimensions():
    square = dcritical_chart(parse_poly("1/2*x^2*y^2", R2), W2)
    xyz = dcritical_chart(parse_poly("x*y*z", R3), W3)
    cubic = dcritical_chart(parse_poly("1/3*x^3", R1), W0)
    chart = make_charts(R3, W3, Subtorus.full(1))[0]
    hat = blowup_local_model(xyz, Subtorus.full(1), chart)
    cases = [
        (square, (F(1), F(0)), (0, 0, 0, 0)),
        (square, (F(0), F(0)), (1, 2, 2, 1)),
        (xyz, (F(1), F(0), F(0)), (0, 0, 0, 0)),
        (cubic, (F(0),), (0, 1, 1, 0)),
        (hat, (F(0), F(1), F(0)), (0, 1, 1, 0)),
    ]
    for model, point, expected in cases:
        K = four_term_at(model, point)
        assert cohomology_dims(K) == expected, point
        assert oracle_dims(K) == expected, point
    _pass(5, "5 worked dimension vectors match the standalone rank oracle")


# ---------------------------------------------------------------------------
# 6: fiberwise semistability against an exhaustive destabilizer search


def test_criterion_06_exceptional_fiber_stability():
    atlas = make_charts(R3, W3, Subtorus.full(1))
    cx = atlas[0]
    assert sorted(str(p) for p in unstable_ideal(cx).generators) == ["T_y"]
    v = point_semistable((0, 1, 0), cx)
    assert v.semistable
    v = point_semistable((1, 0, 0), cx)
    assert not v.semistable
    assert v.direction == (1,)
    assert v.limit == (F(0),) * 3
    v = point_semistable((0, 1, 5), cx)
    assert v.semistable
    agreements = 0
    for k in (1, 2):
        for dim in (1, 2, 3):
            for flat in itertools.product((-1, 0, 1), repeat=k * dim):
                cols = [tuple(flat[i * k : (i + 1) * k]) for i in range(dim)]
                got = hm_fiber_semistable(tuple(range(dim)), cols)
                assert got == (not strict_destabilizer_exists(cols))
                agreements += 1
    _pass(6, f"worked verdicts plus {agreements} oracle agreements")


# ---------------------------------------------------------------------------
# 7: the closed-orbit rule against exhaustive limit analysis


def test_criterion_07_closed_orbit_rule_matches_limit_analysis():
    verdicts = {}

    def oracle(key):
        if key not in verdicts:
            verdicts[key] = closedness_limit_oracle(key)
        return verdicts[key]

    # rank 1: every weight row with entries in -2..2, every support
    for n in range(1, 5):
        for flat in itertools.product((-2, -1, 0, 1, 2), repeat=n):
            weights = WeightMatrix([flat])
            for size in range(1, n + 1):
                for support in itertools.combinations(range(n), size):
                    key = frozenset(weights.column(i) for i in support)
                    assert orbit_is_closed(support, weights) == oracle(key)

    # rank 2: the verdict depends only on the set of distinct support
    # columns, so enumerating every set of sign columns of size <= 4
    # covers every sign-pattern matrix with n <= 4 and every support
    sign_cols = list(itertools.product((-1, 0, 1), repeat=2))
    for size in range(1, 5):
        for cols in itertools.combinations(sign_cols, size):
            weights = WeightMatrix(
                [tuple(c[0] for c in cols), tuple(c[1] for c in cols)]
            )
            support = tuple(range(size))
            assert orbit_is_closed(support, weights) == oracle(frozenset(cols))

    # the reduction above also holds for the implementation: on a random
    # sample of full configurations the verdict matches the one already
    # recorded for the distinct-column representative
    rng = random.Random(96577)
    for _ in range(2000):
        n = rng.randint(1, 4)
        flat = [rng.choice((-1, 0, 1)) for _ in range(2 * n)]
        weights = WeightMatrix([tuple(flat[:n]), tuple(flat[n:])])
        support = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        key = frozenset(weights.column(i) for i in support)
        assert orbit_is_closed(support, weights) == oracle(key)
    assert len(verdicts) >= 280
    _pass(7, f"rule agrees with limit analysis on {len(verdicts)} weight sets")


# ---------------------------------------------------------------------------
# 8: equivalences are found, verified, and survive the blowup lift


def test_criterion_08_equivalence_construction_and_blowup_lift():
    f1 = parse_poly("1/2*x^2", R1)
    g1 = parse_poly("1/2*x^2 + x^4", R1)
    A, B, h = construct_equivalence(f1, g1, W0)
    assert str(h) == "4*x^2 + 1"
    model1 = dcritical_chart(f1, W0)
    rep = verify_omega_equivalence(
        model1, (g1.derivative(0),), A=A, B=B, hint=h, basepoint=(0,)
    )
    assert rep.passed

    f = parse_poly("1/2*x^2*y^2", R2)
    g = parse_poly("1/2*x^2*y^2 + x^4*y^4", R2)
    A, B, h = construct_equivalence(f, g, W2)
    assert str(h) == "4*x^2*y^2 + 1"
    model = dcritical_chart(f, W2)
    gbar = tuple(g.derivative(i) for i in range(2))
    assert verify_omega_equivalence(
        model, gbar, A=A, B=B, hint=h, basepoint=(0, 0)
    ).passed

    # a nonzero correction matrix, lifted through the chart with the
    # divisor twist, must re-verify upstairs
    zero = R2.zero()
    A = ((zero, zero), (zero, zero))
    B = ((parse_poly("2*x^2", R2), zero), (zero, zero))
    h = parse_poly("1 + 4*x^2*y^2", R2)
    assert verify_omega_equivalence(model, gbar, A=A, B=B, hint=h).passed
    center = Subtorus.full(1)
    g_model = dcritical_chart(g, W2)
    chart = make_charts(R2, W2, center)[0]
    assert chart.name == "chart_x"
    Bhat = lift_morphism_to_blowup(B, model, chart)
    Ahat = lift_morphism_to_blowup(A, model, chart)
    hat = blowup_local_model(model, center, chart)
    gbar_hat = blowup_section(g_model, chart)
    h_hat = chart.pullback(h)
    assert verify_omega_equivalence(
        hat, gbar_hat, A=Ahat, B=Bhat, hint=h_hat
    ).passed
    _pass(8, "both quartic pairs verify; correction lifts to chart_x")


# ---------------------------------------------------------------------------
# 9: obstruction vectors agree with a direct search for lifts


def test_criterion_09_obstruction_agrees_with_lift_search():
    cubic = dcritical_chart(parse_poly("1/3*x^3", R1), W0)
    ext = SmallExtension(2, [(0, 1)])
    ob = obstruction_assignment(cubic, ext)
    assert ob.vector == (F(1),)
    assert ob.coker_dim == 1
    assert not ob.liftable
    assert find_lift(cubic, ext) is None

    quad = dcritical_chart(parse_poly("1/2*x^2", R1), W0)
    for m in (1, 2, 3):
        ext = SmallExtension(m, [(0,)])
        ob = obstruction_assignment(quad, ext)
        assert ob.liftable and ob.vector == ()
        lifted = find_lift(quad, ext)
        assert lifted is not None and lifted.m == m + 1

    square = dcritical_chart(parse_poly("1/2*x^2*y^2", R2), W2)
    xyz = dcritical_chart(parse_poly("x*y*z", R3), W3)
    cases = []
    for m in (1, 2, 3):
        cases.append((cubic, SmallExtension(m, [(0, 1)])))
        cases.append((quad, SmallExtension(m, [(0, 1)])))
        cases.append((square, SmallExtension(m, [(2, 1), (0,)])))
        cases.append((xyz, SmallExtension(m, [(0,), (0,), (1, 1)])))
    checked = 0
    for model, ext in cases:
        try:
            ob = obstruction_assignment(model, ext)
        except PreconditionError:
            continue
        assert ob.liftable == (find_lift(model, ext) is not None)
        checked += 1
    assert checked >= 8
    _pass(9, f"verdict matches the lift search on {checked} extensions")


# ---------------------------------------------------------------------------
# 10: specialize-then-blow-up equals blow-up-then-specialize


def test_criterion_10_fiberwise_blowup_commutes():
    built = build_model(load_model_file(str(CORPUS / "family.kb")))
    for c in (0, 1, -2):
        fiber = specialize(built.model, c)
        results = fiber_charts_commute(
            built.model, fiber, c, built.atlas, built.fiber_atlas(fiber), None
        )
        assert set(results) == {"chart_x", "chart_y"}, c
        assert all(results.values()), (c, results)
    _pass(10, "family fibers commute at 0, 1, -2, every chart")


# ---------------------------------------------------------------------------
# 11: Groebner engine self-checks on every basis the battery computes


def spoly_reduces_to_zero(gb, order):
    """Buchberger's criterion checked from outside the engine, through
    its ``normal_form``."""
    basis = list(gb.basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            f, g = basis[i], basis[j]
            mf = f.leading_monomial(order)
            mg = g.leading_monomial(order)
            lcm = mono_lcm(mf, mg)
            a = tuple(l - m for l, m in zip(lcm, mf))
            b = tuple(l - m for l, m in zip(lcm, mg))
            s = f.term_mul(a, F(1) / f.leading_coefficient(order)) - g.term_mul(
                b, F(1) / g.leading_coefficient(order)
            )
            if not normal_form(s, gb).is_zero():
                return False
    return True


def random_ideal(rng, ring):
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, 2) for _ in range(ring.n))
            terms[mono] = F(rng.choice([-2, -1, 1, 2, 3]))
        gens.append(Poly(ring, terms))
    return Ideal(ring, gens)


def test_criterion_11_spolys_vanish_and_equality_ignores_presentation():
    bases = []
    for name, model in ambient_models():
        bases.append(buchberger(model.ideal, DEGREVLEX))
        center = Subtorus.full(model.weights.k)
        for chart in make_charts(model.ring, model.weights, center):
            bases.append(buchberger(intrinsic_ideal(model.ideal, chart)))
    rng = random.Random(5040)
    for _ in range(40):
        bases.append(buchberger(random_ideal(rng, R2), DEGREVLEX))
    for gb in bases:
        assert spoly_reduces_to_zero(gb, DEGREVLEX)
    rng = random.Random(40320)
    for _ in range(100):
        I = random_ideal(rng, R2)
        gens = list(I.generators)
        rng.shuffle(gens)
        scaled = [
            g * F(rng.choice([1, 2, -1, 3]), rng.choice([1, 2])) for g in gens
        ]
        assert ideal_equal(I, Ideal(R2, scaled))
    _pass(11, f"{len(bases)} bases pass the S-pair check; 100 shuffles agree")


# ---------------------------------------------------------------------------
# 12: reports are byte deterministic


def test_criterion_12_corpus_report_bytes_are_reproducible(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli.main(["corpus", "--json", str(first)]) == 0
    assert cli.main(["corpus", "--json", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["ledger"]["failed"] == []
    assert len(report["ledger"]["checks"]) == 20
    _pass(12, "two corpus runs emit identical bytes, 20 checks green")
