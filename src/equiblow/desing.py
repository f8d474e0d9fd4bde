"""Iterated Kirwan blowups, the only builder of tree nodes.  Stage 0 is
the blowup along the full torus.  The tree blows up the largest
stabilizer, attaches each chart's unstable ideal, and recurses chart by
chart over centers with semistable points until every residual
stabilizer of a semistable point is trivial; when its first center is
the full torus, stage 0 is its first stage.

The driver never re-discovers a center it just blew up; that descent is a
theorem and its failure raises loudly.

``ChartFacts`` computes what a node holds (the intrinsic ideal, its
basis, the unstable ideal, the blowup section and the coincidence
verdict), and a stage-0 chart keeps it per ideal, model and budget.
Nodes are built anew on every call.
"""

from functools import cached_property

from .blowup import blowup_section, intrinsic_ideal, make_charts, transport_model
from .errors import BudgetExceededError, PreconditionError, TheoremCheckError
from .groebner import Ideal, buchberger, ideal_equal
from .poly import DEGREVLEX
from .stability import unstable_ideal
from .torus import WeightMatrix, enumerate_blowup_centers

# stages a tree may stack before the loop is taken for a runaway one
MAX_DEPTH = 4


class ChartOutcome:
    """One node of the Kirwan tree: a chart of one blowup stage, its
    intrinsic ideal with the reduced basis, and its unstable ideal, which
    the center scan below excludes.  ``coincides`` says whether the
    model's blowup section cuts the intrinsic ideal (None without a
    model); ``model`` is the transported model once the tree continues
    from a stage-0 node; ``children`` is the next stage, all along one
    center.  ``parent`` is the node blown up to reach this one (None at
    the first stage); ``path`` reads like ``stage0/chart_x/stage1/chart_T_y``."""

    __slots__ = (
        "chart", "ideal", "gb", "unstable", "coincides", "model", "children",
        "parent", "path",
    )

    def __init__(self, chart, ideal, gb, unstable, coincides, parent):
        self.chart = chart
        self.ideal = ideal
        self.gb = gb
        self.unstable = unstable
        self.coincides = coincides
        self.model = None
        self.children = ()
        self.parent = parent
        prefix = "" if parent is None else parent.path + "/"
        self.path = f"{prefix}stage{prefix.count('/') // 2}/{chart.name}"

    def __repr__(self):
        return f"ChartOutcome({self.path})"


class ChartFacts:
    """What a stage reads of ``ideal`` on one chart, each fact computed
    under ``budget`` on its first read and then kept: the intrinsic
    ideal, its reduced basis, the chart's unstable ideal and, with a
    model, the model's blowup section there and whether that cuts the
    intrinsic ideal (both None without a model).  A fact whose
    computation raises is not kept, so its error comes on every read."""

    def __init__(self, chart, ideal, model, budget):
        self.chart = chart
        self.source = ideal
        self.model = model
        self.budget = budget

    @cached_property
    def ideal(self):
        return intrinsic_ideal(self.source, self.chart, self.budget)

    @cached_property
    def gb(self):
        return buchberger(self.ideal, DEGREVLEX, self.budget)

    @cached_property
    def unstable(self):
        return unstable_ideal(self.chart)

    @cached_property
    def section(self):
        if self.model is not None:
            return blowup_section(self.model, self.chart)

    @cached_property
    def coincides(self):
        if self.model is not None:
            section = Ideal(self.chart.ring, self.section)
            return ideal_equal(section, self.ideal, budget=self.budget)


def chart_facts(chart, ideal, model, budget) -> ChartFacts:
    """The facts of ``ideal`` and ``model`` on ``chart`` under
    ``budget``, the ones ``chart.kept`` holds if any.  A fact is read
    back only under an equal budget, so a budget that a fresh run would
    exceed is exceeded again."""
    key = (ideal, model, budget)
    facts = chart.kept.get(key)
    if facts is None:
        facts = chart.kept[key] = ChartFacts(chart, ideal, model, budget)
    return facts


def action_is_trivial(weights: WeightMatrix) -> bool:
    """A torus of positive rank whose weights all vanish: every point is
    fixed, and the blowup of everything is empty."""
    return weights.k > 0 and not any(any(row) for row in weights.rows)


def blowup_tree(ideal, model, charts, budget=None, full=False):
    """The stage-0 nodes of ``ideal`` on ``charts`` of the full-torus
    atlas, each judged against the model's blowup section, and with
    ``full`` the first stage of the tree of ``ideal`` (empty when no
    center has a semistable point).  When that stage's center is the
    full torus it is these very nodes, each given its transported model
    and its children.  A ``full`` tree is refused before any center scan
    when the model's blowup section does not cut the intrinsic ideal of
    some stage-0 node.

    The nodes are new on every call, but their facts are the ones each
    chart keeps (``chart_facts``): charts that outlive the call, such as
    a built model's atlas, spare the next call that work."""
    rows = list(_stage([chart_facts(c, ideal, model, budget) for c in charts]))
    nodes = [node for node, _ in rows]
    if not full:
        return nodes, ()
    for node in nodes:
        if not node.coincides:
            raise PreconditionError(
                f"the blowup section on {node.chart.name} does not cut the "
                "intrinsic chart ideal: the model does not present this ideal"
            )
    centers = enumerate_blowup_centers(model.weights, ideal, None, budget=budget)
    args = (model.weights, ideal, centers, budget, MAX_DEPTH, None)
    if centers and centers[0].is_full():
        return nodes, _descend(*args, rows, model)
    return nodes, _descend(*args)


def _stage(facts, parent=None):
    """Chart by chart, a new node of each chart's ``facts`` and the
    model's blowup section there (None without a model)."""
    for f in facts:
        ideal, gb, coincides = f.ideal, f.gb, f.coincides
        yield ChartOutcome(f.chart, ideal, gb, f.unstable, coincides, parent), f.section


def _descend(weights, ideal, centers, budget, depth_left, parent, rows=None, model=None):
    """The stage along ``centers[0]`` below ``parent``, each node grown
    to its subtree.  ``rows`` are the stage-0 nodes with their sections
    when the stage is stage 0: each node then carries ``model`` to its
    chart, and its subtree grows from the transported section's ideal."""
    if not centers:
        return ()
    if depth_left <= 0:
        raise BudgetExceededError("blowup recursion depth exhausted")
    center = centers[0]
    if rows is None:
        charts = make_charts(ideal.ring, weights, center)
        rows = _stage((ChartFacts(c, ideal, None, budget) for c in charts), parent)
    out = []
    for node, section in rows:
        chart, node_ideal = node.chart, node.ideal
        if model is not None:
            node.model = transport_model(model, section, chart)
            node_ideal = node.model.ideal
        next_centers = enumerate_blowup_centers(
            chart.weights, node_ideal, node.unstable, budget=budget
        )
        for R in next_centers:
            if R.cochar == center.cochar:
                raise TheoremCheckError(
                    f"center re-discovered on chart {chart.name}: the "
                    "stabilizer set did not descend"
                )
        node.children = _descend(
            chart.weights, node_ideal, next_centers, budget, depth_left - 1, node
        )
        out.append(node)
    return tuple(out)
