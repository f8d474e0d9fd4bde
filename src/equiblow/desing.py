"""Iterated Kirwan blowups: blow up the largest-dimensional stabilizer,
attach each chart's unstable ideal (for a center of any dimension), and
recurse chart by chart, scanning only centers with semistable points,
until every residual stabilizer of a semistable point is trivial.

The driver never re-discovers a center it just blew up; that descent is a
theorem and its failure raises loudly.
"""

from .blowup import LocalModel, blowup_local_model, intrinsic_ideal, make_charts
from .errors import BudgetExceededError, TheoremCheckError
from .groebner import Budget, Ideal, buchberger
from .poly import DEGREVLEX, Ring
from .stability import unstable_ideal
from .torus import Subtorus, WeightMatrix, enumerate_blowup_centers


class ChartOutcome:
    """One chart of one blowup stage: the intrinsic ideal (with its
    reduced basis), the transported model when the center is the full
    torus, the chart's unstable ideal, which the center scan below it
    excludes, and deeper stages."""

    __slots__ = ("chart", "ideal", "gb", "model", "unstable", "substages")

    def __init__(self, chart, ideal, gb, model, unstable, substages):
        self.chart = chart
        self.ideal = ideal
        self.gb = gb
        self.model = model
        self.unstable = unstable
        self.substages = tuple(substages)

    def __repr__(self):
        return f"ChartOutcome({self.chart.name})"


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


def partial_desingularization(
    model: LocalModel,
    budget: Budget | None = None,
    max_depth: int = 4,
    max_vars: int = 16,
    chart_bases: dict | None = None,
) -> Desingularization:
    """Run the blowup loop on a local model until no semistable point has
    a nontrivial stabilizer, returning the full stage tree.

    ``chart_bases`` maps chart names of the full-torus atlas to reduced
    bases the caller already holds of the blown-up model's chart ideals
    (the blowup sections); a first blowup along the full torus takes
    them instead of computing them again.
    """
    if action_is_trivial(model.weights):
        return Desingularization((), dense=True)
    centers = enumerate_blowup_centers(
        model.weights, model.ideal, None, max_vars, budget
    )
    stages = _descend(
        model.ring,
        model.weights,
        model.ideal,
        model,
        centers,
        budget,
        max_depth,
        max_vars,
        chart_bases or {},
    )
    return Desingularization(stages, dense=False)


def _descend(
    ring: Ring,
    weights: WeightMatrix,
    ideal: Ideal,
    model: LocalModel | None,
    centers: list[Subtorus],
    budget,
    depth_left: int,
    max_vars: int,
    known: dict,
):
    if not centers:
        return ()
    if depth_left <= 0:
        raise BudgetExceededError("blowup recursion depth exhausted")
    center = centers[0]
    charts = make_charts(ring, weights, center)
    outcomes = []
    for chart in charts:
        gb = None
        if model is not None and center.is_full():
            chart_model = blowup_local_model(model, center, chart, budget)
            raw = chart_model.ideal
            gb = known.get(chart.name)
        else:
            chart_model = None
            raw = intrinsic_ideal(ideal, chart, budget)
        if gb is None:
            gb = buchberger(raw, DEGREVLEX, budget)
        chart_unstable = unstable_ideal(chart)
        next_centers = enumerate_blowup_centers(
            chart.weights, raw, chart_unstable, max_vars, budget
        )
        for R in next_centers:
            if R.cochar == center.cochar:
                raise TheoremCheckError(
                    f"center re-discovered on chart {chart.name}: the "
                    "stabilizer set did not descend"
                )
        substages = _descend(
            chart.ring,
            chart.weights,
            raw,
            chart_model,
            next_centers,
            budget,
            depth_left - 1,
            max_vars,
            {},
        )
        outcomes.append(
            ChartOutcome(chart, raw, gb, chart_model, chart_unstable, substages)
        )
    return (Stage(center, outcomes),)
