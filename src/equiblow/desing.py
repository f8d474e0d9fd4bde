"""Iterated Kirwan blowups, the only builder of tree nodes.  Stage 0 is
the blowup along the full torus.  The tree blows up the largest
stabilizer, attaches each chart's unstable ideal, and recurses chart by
chart over centers with semistable points until every residual
stabilizer of a semistable point is trivial; when its first center is
the full torus, it continues from stage 0.

The driver never re-discovers a center it just blew up; that descent is a
theorem and its failure raises loudly.
"""

from .blowup import (
    LocalModel,
    blowup_section,
    intrinsic_ideal,
    make_charts,
    transport_model,
)
from .errors import BudgetExceededError, TheoremCheckError
from .groebner import Budget, Ideal, buchberger, ideal_equal
from .poly import DEGREVLEX
from .stability import unstable_ideal
from .torus import Subtorus, WeightMatrix, enumerate_blowup_centers


class ChartOutcome:
    """One chart of one blowup stage: the chart ideal (with its reduced
    basis), the transported model when a tree's center is the full torus,
    the unstable ideal, which the center scan below excludes, and deeper
    stages.  ``parent`` is the outcome blown up to reach this one (None at
    stage 0); ``path`` reads like ``stage0/chart_x/stage1/chart_T_y``."""

    __slots__ = (
        "chart", "ideal", "gb", "model", "unstable", "substages", "parent", "path"
    )

    def __init__(self, chart, ideal, gb, model, unstable, parent=None):
        self.chart = chart
        self.ideal = ideal
        self.gb = gb
        self.model = model
        self.unstable = unstable
        self.substages = ()
        self.parent = parent
        prefix = "" if parent is None else parent.path + "/"
        self.path = f"{prefix}stage{prefix.count('/') // 2}/{chart.name}"

    def __repr__(self):
        return f"ChartOutcome({self.path})"


class Stage:
    """One blowup step: the center and the outcome on each chart."""

    __slots__ = ("center", "charts")

    def __init__(self, center, charts):
        self.center = center
        self.charts = tuple(charts)

    def __repr__(self):
        return (
            f"Stage(center_dim={self.center.dim}, "
            f"charts={[c.chart.name for c in self.charts]})"
        )


class Desingularization:
    """Stage tree of the iterated blowup, with the degenerate-density flag
    for a trivial action (the blowup of everything is empty)."""

    __slots__ = ("stages", "dense")

    def __init__(self, stages, dense):
        self.stages = tuple(stages)
        self.dense = bool(dense)

    def __repr__(self):
        return f"Desingularization(stages={len(self.stages)}, dense={self.dense})"


def action_is_trivial(weights: WeightMatrix) -> bool:
    """A torus of positive rank whose weights all vanish: every point is
    fixed, and the blowup of everything is empty."""
    return weights.k > 0 and not any(any(row) for row in weights.rows)


def blowup_tree(
    ideal, model, charts, budget=None, full=False, max_depth=4, max_vars=16
):
    """Stage 0 of ``ideal`` on ``charts`` of the full-torus atlas, per
    chart whether the model's blowup section cuts the intrinsic ideal
    (None without a model), and with ``full`` the tree (all charts)."""
    rows = list(_outcomes(ideal, model, charts, budget))
    tree = _grow(model, lambda: rows, budget, max_depth, max_vars) if full else None
    return Stage(charts[0].center, [r[0] for r in rows]), [r[2] for r in rows], tree


def partial_desingularization(
    model: LocalModel,
    budget: Budget | None = None,
    max_depth: int = 4,
    max_vars: int = 16,
) -> Desingularization:
    """Run the blowup loop on a local model until no semistable point has
    a nontrivial stabilizer, returning the full stage tree."""
    if action_is_trivial(model.weights):
        return Desingularization((), dense=True)

    def stage0():
        atlas = make_charts(model.ring, model.weights, Subtorus.full(model.weights.k))
        return _outcomes(model.ideal, model, atlas, budget)

    return _grow(model, stage0, budget, max_depth, max_vars)


def _outcomes(ideal, model, charts, budget, parent=None):
    """Chart by chart: the intrinsic outcome, the model's blowup section,
    and whether it cuts the intrinsic ideal (both None without a model)."""
    for chart in charts:
        raw = intrinsic_ideal(ideal, chart, budget)
        gb = buchberger(raw, DEGREVLEX, budget)
        section = same = None
        if model is not None:
            section = blowup_section(model, chart)
            same = ideal_equal(Ideal(chart.ring, section), raw, budget=budget)
        outcome = ChartOutcome(chart, raw, gb, None, unstable_ideal(chart), parent)
        yield outcome, section, same


def _grow(model, stage0, budget, max_depth, max_vars):
    """The tree of ``model``.  A full first center continues from the
    rows of ``stage0()``, built only then: each chart follows the
    transported section, with the intrinsic basis where the two coincide.
    No deeper stage has the full torus as center (the descent check)."""

    def continued():
        for outcome, section, same in stage0():
            chart_model = transport_model(model, section, outcome.chart)
            sec = chart_model.ideal
            gb = outcome.gb if same else buchberger(sec, DEGREVLEX, budget)
            yield ChartOutcome(outcome.chart, sec, gb, chart_model, outcome.unstable)

    centers = enumerate_blowup_centers(
        model.weights, model.ideal, None, max_vars, budget
    )
    nodes = continued() if centers and centers[0].is_full() else None
    stages = _descend(
        model.weights, model.ideal, centers, budget, max_depth, max_vars, None, nodes
    )
    return Desingularization(stages, dense=False)


def _descend(weights, ideal, centers, budget, depth_left, max_vars, parent, nodes=None):
    """The stage along ``centers[0]`` below ``parent``, each chart grown
    to its subtree; ``nodes`` yields the stage's outcomes if known, else
    they are the intrinsic ones."""
    if not centers:
        return ()
    if depth_left <= 0:
        raise BudgetExceededError("blowup recursion depth exhausted")
    center = centers[0]
    if nodes is None:
        charts = make_charts(ideal.ring, weights, center)
        nodes = (row[0] for row in _outcomes(ideal, None, charts, budget, parent))
    out = []
    for node in nodes:
        chart = node.chart
        next_centers = enumerate_blowup_centers(
            chart.weights, node.ideal, node.unstable, max_vars, budget
        )
        for R in next_centers:
            if R.cochar == center.cochar:
                raise TheoremCheckError(
                    f"center re-discovered on chart {chart.name}: the "
                    "stabilizer set did not descend"
                )
        node.substages = _descend(
            chart.weights, node.ideal, next_centers, budget,
            depth_left - 1, max_vars, node,
        )
        out.append(node)
    return (Stage(center, out),)
