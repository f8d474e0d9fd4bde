"""Iterated blowup driver: stage discovery, chart outcomes, descent of
the stabilizer set, and the trivial-action early exit."""

import pytest

from equiblow import (
    Budget,
    BudgetExceededError,
    Ring,
    WeightMatrix,
    dcritical_chart,
    parse_poly,
    partial_desingularization,
)

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
    assert ox.substages == ()


def test_trivial_action_is_reported_dense():
    model = dcritical_chart(parse_poly("x^2 + y^3", R2), WeightMatrix([(0, 0)]))
    tree = partial_desingularization(model)
    assert tree.dense
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
