"""Iterated blowup driver: stage discovery, chart outcomes, descent of
the stabilizer set, and the trivial-action early exit."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from equiblow import (
    Budget,
    BudgetExceededError,
    Ring,
    WeightMatrix,
    dcritical_chart,
    parse_poly,
    partial_desingularization,
)
from equiblow import cli
from equiblow.desing import blowup_tree

R2 = Ring(["x", "y"])
R3 = Ring(["x", "y", "z"])


def test_smooth_pair_terminates_in_one_empty_stage():
    model = dcritical_chart(parse_poly("x*y", R2), WeightMatrix([(1, -1)]))
    tree = partial_desingularization(model)
    assert not tree.dense
    assert len(tree.stages) == 1
    stage = tree.stages[0]
    assert stage.center.is_full()
    for outcome in stage.charts:
        assert [str(p) for p in outcome.gb.basis] == ["1"]
        assert outcome.substages == ()


def test_three_axes_single_stage_with_unstable_data():
    model = dcritical_chart(parse_poly("x*y*z", R3), WeightMatrix([(1, -1, 0)]))
    tree = partial_desingularization(model)
    assert len(tree.stages) == 1
    by_name = {o.chart.name: o for o in tree.stages[0].charts}
    ox = by_name["chart_x"]
    assert sorted(str(p) for p in ox.gb.basis) == ["xi_x^2*T_y", "z"]
    assert ox.unstable is not None
    assert sorted(str(p) for p in ox.unstable.generators) == ["T_y"]
    assert ox.model is not None
    assert ox.model.divisor == {"xi_x": 2}
    assert type(ox.model.section) is tuple
    assert ox.substages == ()


def test_trivial_action_is_reported_dense():
    model = dcritical_chart(parse_poly("x^2 + y^3", R2), WeightMatrix([(0, 0)]))
    tree = partial_desingularization(model)
    assert tree.dense
    assert tree.stages == ()


def test_rank_zero_model_has_no_stage():
    # no torus acts, so there is no center and no atlas to build
    model = dcritical_chart(parse_poly("1/3*x^3", Ring(["x"])), WeightMatrix([]))
    tree = partial_desingularization(model)
    assert not tree.dense
    assert tree.stages == ()


def test_depth_budget_is_respected():
    model = dcritical_chart(parse_poly("x*y*z", R3), WeightMatrix([(1, -1, 0)]))
    with pytest.raises(BudgetExceededError):
        partial_desingularization(model, max_depth=0)


def test_every_center_scan_gets_the_callers_budget(monkeypatch):
    from equiblow import desing

    seen = []
    original = desing.enumerate_blowup_centers

    def spy(weights, ideal, unstable, max_vars, budget):
        seen.append(budget)
        return original(weights, ideal, unstable, max_vars, budget)

    monkeypatch.setattr(desing, "enumerate_blowup_centers", spy)
    budget = Budget(max_basis=500, max_degree=30)
    model = dcritical_chart(parse_poly("x*y*z", R3), WeightMatrix([(1, -1, 0)]))
    partial_desingularization(model, budget)
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
        trees.append(built[2])
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
        # every node's path extends its parent's by one stage and chart;
        # a trivial action builds no tree
        paths = []

        def walk(stages, parent, depth):
            for stage in stages:
                for node in stage.charts:
                    assert node.parent is parent
                    prefix = "" if parent is None else parent.path + "/"
                    assert node.path == f"{prefix}stage{depth - 1}/{node.chart.name}"
                    assert len(node.path.split("/")) == 2 * depth, node.path
                    paths.append(node.path)
                    walk(node.substages, node, depth + 1)

        for tree in trees:
            walk(tree.stages, None, 1)
        assert len(set(paths)) == len(paths), paths
