"""Iterated blowup driver: stage discovery, tree nodes, descent of the
stabilizer set, and the trivial-action and rank-0 exits."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from equiblow import (
    Budget,
    BudgetExceededError,
    Ideal,
    PreconditionError,
    Ring,
    Subtorus,
    WeightMatrix,
    blowup_tree,
    dcritical_chart,
    make_charts,
    parse_poly,
)
from equiblow import cli, desing

R2 = Ring(["x", "y"])
R3 = Ring(["x", "y", "z"])
CORPUS = cli.CORPUS_DIR


def grow(model, budget=None, ideal=None):
    """The stage-0 nodes of ``model`` and the first stage of its tree."""
    atlas = make_charts(model.ring, model.weights, Subtorus.full(model.weights.k))
    ideal = model.ideal if ideal is None else ideal
    return blowup_tree(ideal, model, atlas, budget, full=True)


def test_smooth_pair_terminates_in_one_empty_stage():
    model = dcritical_chart(parse_poly("x*y", R2), WeightMatrix([(1, -1)]))
    nodes, first = grow(model)
    assert first == tuple(nodes)
    for node in first:
        assert node.chart.center.is_full()
        assert [str(p) for p in node.gb.basis] == ["1"]
        assert node.children == ()


def test_three_axes_single_stage_with_unstable_data():
    model = dcritical_chart(parse_poly("x*y*z", R3), WeightMatrix([(1, -1, 0)]))
    nodes, first = grow(model)
    assert first == tuple(nodes)
    by_name = {node.chart.name: node for node in first}
    ox = by_name["chart_x"]
    assert sorted(str(p) for p in ox.gb.basis) == ["xi_x^2*T_y", "z"]
    assert ox.unstable is not None
    assert sorted(str(p) for p in ox.unstable.generators) == ["T_y"]
    assert ox.coincides is True
    assert ox.model is not None
    assert ox.model.divisor == {"xi_x": 2}
    assert type(ox.model.section) is tuple
    assert ox.children == ()


def test_charts_keep_their_stage_zero_nodes_per_budget():
    # full, plain and full calls on one atlas get the nodes the charts
    # keep, each full call giving them their models and children anew;
    # a call under another budget gets nodes of its own
    model = dcritical_chart(parse_poly("x*y*z", R3), WeightMatrix([(1, -1, 0)]))
    atlas = make_charts(model.ring, model.weights, Subtorus.full(1))
    full, first = blowup_tree(model.ideal, model, atlas, full=True)
    models = [node.model for node in full]
    plain, _ = blowup_tree(model.ideal, model, atlas)
    again, _ = blowup_tree(model.ideal, model, atlas, full=True)
    assert first == tuple(full) and all(node.model is not None for node in full)
    for a, b, c, m in zip(full, plain, again, models):
        assert a is b is c
        assert a.model is not m and a.model.section == m.section
    budgeted, _ = blowup_tree(model.ideal, model, atlas, Budget(50, 50))
    for a, b in zip(full, budgeted):
        assert a is not b and a.chart is b.chart
        assert a.gb.basis == b.gb.basis and b.model is None


def test_trivial_action_is_reported_dense(capsys):
    # every point is fixed, so the blowup of everything is empty: the
    # report says so before any atlas is built
    code = cli.main(["blowup", str(CORPUS / "trivial.kb"), "--full"])
    assert code == 0
    ledger = json.loads(capsys.readouterr().out)["ledger"]
    assert ledger["dense"] is True
    assert ledger["stages"] == []


def test_rank_zero_model_has_no_stage(capsys, tmp_path):
    # no torus acts, so there is no center and no atlas: exit 3
    src = tmp_path / "cubic.kb"
    src.write_text('variables = [x]\nweights = []\npotential = "1/3*x^3"\n')
    code = cli.main(["blowup", str(src), "--full"])
    assert code == 3
    assert "center equals ambient" in capsys.readouterr().err


def test_depth_budget_is_respected(monkeypatch):
    model = dcritical_chart(parse_poly("x*y*z", R3), WeightMatrix([(1, -1, 0)]))
    monkeypatch.setattr(desing, "MAX_DEPTH", 0)
    with pytest.raises(BudgetExceededError, match="recursion depth"):
        grow(model)


def test_a_section_that_misses_the_intrinsic_ideal_is_refused():
    # the model presents (yz, xz, xy); its sections cannot cut (x*y*z)
    model = dcritical_chart(parse_poly("x*y*z", R3), WeightMatrix([(1, -1, 0)]))
    other = Ideal(R3, [parse_poly("x*y*z", R3)])
    nodes, _ = blowup_tree(other, model, make_charts(R3, model.weights, Subtorus.full(1)))
    assert [node.coincides for node in nodes] == [False, False]
    with pytest.raises(PreconditionError, match="does not cut"):
        grow(model, ideal=other)


def test_every_center_scan_gets_the_callers_budget(monkeypatch):
    seen = []
    original = desing.enumerate_blowup_centers

    def spy(weights, ideal, unstable, budget):
        seen.append(budget)
        return original(weights, ideal, unstable, budget=budget)

    monkeypatch.setattr(desing, "enumerate_blowup_centers", spy)
    budget = Budget(max_basis=500, max_degree=30)
    model = dcritical_chart(parse_poly("x*y*z", R3), WeightMatrix([(1, -1, 0)]))
    grow(model, budget)
    # the scan of the model and one scan per chart of the first stage
    assert len(seen) == 3
    assert all(b is budget for b in seen)


@st.composite
def ext_quiver_models(draw):
    """An Ext-quiver local model as model-file text, with its torus rank:
    at most 6 arrows a_j between 2-4 vertices, arrow weights e_t - e_s
    with vertex 0 dropped (the diagonal acts trivially), and a potential
    of 1-3 oriented cycles of length 2-4, each invariant because its
    weights sum to zero."""
    vertices = draw(st.integers(2, 4))
    vertex = st.integers(0, vertices - 1)
    arrows, terms = [], []
    for _ in range(draw(st.integers(1, 3))):
        walk = draw(st.lists(vertex, min_size=2, max_size=4))
        steps = list(zip(walk, walk[1:] + walk[:1]))
        new = [e for e in dict.fromkeys(steps) if e not in arrows]
        if len(arrows) + len(new) > 6:
            continue
        arrows += new
        monomial = "*".join(f"a{arrows.index(e)}" for e in steps)
        terms.append(f"{draw(st.integers(1, 3))}*{monomial}")
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=6 - len(arrows)))
    arrows += extra
    rows = [[int(t == v) - int(s == v) for s, t in arrows] for v in range(1, vertices)]
    names = ", ".join(f"a{j}" for j in range(len(arrows)))
    text = f'variables = [{names}]\nweights = {rows}\npotential = "{" + ".join(terms)}"\n'
    return text, len(rows)


def tree_depth(stages) -> int:
    return max(
        (1 + max((tree_depth(co["substages"]) for co in s["charts"]), default=0)
         for s in stages),
        default=0,
    )


@given(ext_quiver_models())
@settings(max_examples=100, deadline=None)
def test_kirwan_loop_on_ext_quivers_never_fails_a_theorem_check(tmp_path_factory, case):
    text, rank = case
    path = tmp_path_factory.mktemp("quiver") / "quiver.kb"
    path.write_text(text)
    trees = []

    def kept(*args, **kwargs):
        built = blowup_tree(*args, **kwargs)
        trees.append(built[1])
        return built

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "blowup_tree", kept)
            code = cli.main(["blowup", str(path), "--full", "--budget", "12"])
    assert code in (0, 3, 4), (text, err.getvalue())
    if code == 0:
        stages = json.loads(out.getvalue())["ledger"]["stages"]
        assert tree_depth(stages) <= rank, text
        # every node's path extends its parent's by one stage and chart,
        # and all nodes of one stage share its center; a trivial action
        # builds no tree
        paths = []

        def walk(stage, parent, depth):
            assert len({node.chart.center.cochar for node in stage}) <= 1
            for node in stage:
                assert node.parent is parent
                prefix = "" if parent is None else parent.path + "/"
                assert node.path == f"{prefix}stage{depth - 1}/{node.chart.name}"
                assert len(node.path.split("/")) == 2 * depth, node.path
                paths.append(node.path)
                walk(node.children, node, depth + 1)

        for first in trees:
            walk(first, None, 1)
        assert len(set(paths)) == len(paths), paths


SUBTORUS_FIRST = (
    "variables = [x, y, z, w, u]\n"
    "weights = [[1, -1, 0, 0, 0], [0, 0, 1, -1, 0]]\n"
    'potential = "u + x*y*u"\n'
)


def test_a_first_center_below_the_full_torus_grows_a_stage_of_its_own(
    capsys, tmp_path
):
    # the locus is u = 0, x*y = -1: no point is fixed by the full torus,
    # and every point by the second factor, which moves only z and w
    from equiblow import build_model, load_model_file

    src = tmp_path / "subtorus.kb"
    src.write_text(SUBTORUS_FIRST)
    assert cli.main(["blowup", str(src), "--full"]) == 0
    (stage,) = json.loads(capsys.readouterr().out)["ledger"]["stages"]
    assert stage["center"] == [[0, 1]]
    assert [c["name"] for c in stage["charts"]] == ["chart_z", "chart_w"]
    for chart in stage["charts"]:
        assert chart["ideal_gb"] == ["u", "x*y + 1"]
        assert chart["substages"] == []

    nodes, first = grow(build_model(load_model_file(str(src))).model)
    assert len(nodes) == 4
    assert all(node.model is None for node in nodes)
    assert not set(nodes) & set(first)
    for node in first:
        assert node.chart.center.cochar == ((0, 1),)
        assert node.parent is None and node.model is None
        assert node.path == f"stage0/{node.chart.name}"
