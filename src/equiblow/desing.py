"""Iterated Kirwan blowups, the only builder of tree nodes.  Stage 0 is
the blowup along the full torus.  The tree blows up the largest
stabilizer, attaches each chart's unstable ideal, and recurses chart by
chart over centers with semistable points until every residual
stabilizer of a semistable point is trivial; when its first center is
the full torus, stage 0 is its first stage.

The driver never re-discovers a center it just blew up; that descent is a
theorem and its failure raises loudly.

A node (``ChartOutcome``) computes its facts (the intrinsic ideal, its
basis, the unstable ideal, the blowup section and the coincidence
verdict) on their first read.  It is the one caller of
``blowup.intrinsic_ideal``, and of ``blowup.blowup_section`` but for
the test-only ``blowup_local_model``.  A stage-0 chart keeps its node
per ideal, model and budget (``chart_node``); deeper stages build new
nodes.

The two commutation checks of the intrinsic blowup read their chart
facts from nodes too: with the equivariant embedding
(``embedding_independence_check``) and with taking fibers
(``fiber_charts_commute``).  The fiber check builds no fiber model: a
fiber's node reads the family's bundle and the fiber's section, which
is all that ``blowup_section`` reads of a model.
"""

from functools import cached_property

from .blowup import blowup_section, intrinsic_ideal, make_charts, transport_model
from .errors import BudgetExceededError, PreconditionError, TheoremCheckError
from .family import _drop_var, fiber_section
from .groebner import Ideal, buchberger, eliminate, ideal_equal
from .poly import DEGREVLEX, canon
from .record import Record
from .stability import unstable_ideal
from .torus import WeightMatrix, enumerate_blowup_centers

# stages a tree may stack before the loop is taken for a runaway one
MAX_DEPTH = 4


class ChartOutcome:
    """One node of the Kirwan tree: a chart of one blowup stage and the
    facts of ``source``, the ideal blown up, there.  Each fact is
    computed under ``budget`` on its first read and then kept: the
    intrinsic ``ideal``, its reduced basis ``gb``, the chart's
    ``unstable`` ideal, which the center scan below excludes, and, with
    a model, its blowup ``section`` and whether that cuts the intrinsic
    ideal (``coincides``; both None without a model).  A fact whose
    computation raises is not kept, so its error comes on every read.

    ``model`` is the transported model once the tree continues from a
    stage-0 node; ``children`` is the next stage, all along one center.
    ``parent`` is the node blown up to reach this one (None at the first
    stage); ``path`` reads like ``stage0/chart_x/stage1/chart_T_y``."""

    def __init__(self, chart, source, source_model, budget, parent=None):
        self.chart = chart
        self.source = source
        self.source_model = source_model
        self.budget = budget
        self.model = None
        self.children = ()
        self.parent = parent
        prefix = "" if parent is None else parent.path + "/"
        self.path = f"{prefix}stage{prefix.count('/') // 2}/{chart.name}"

    def __repr__(self):
        return f"ChartOutcome({self.path})"

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
        if self.source_model is not None:
            return blowup_section(self.source_model, self.chart)

    @cached_property
    def coincides(self):
        if self.source_model is not None:
            section = Ideal(self.chart.ring, self.section)
            return ideal_equal(section, self.ideal, budget=self.budget)


def chart_node(chart, ideal, model, budget) -> ChartOutcome:
    """The stage-0 node of ``ideal`` and ``model`` on ``chart`` under
    ``budget``, the one ``chart.kept`` holds if any.  A node is read
    back only under an equal budget, so a budget that a fresh run would
    exceed is exceeded again."""
    key = (ideal, model, budget)
    node = chart.kept.get(key)
    if node is None:
        node = chart.kept[key] = ChartOutcome(chart, ideal, model, budget)
    return node


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
    and its children anew.  A ``full`` tree is refused before any
    center scan when the model's blowup section does not cut the
    intrinsic ideal of some stage-0 node.

    The stage-0 nodes are the ones each chart keeps (``chart_node``):
    charts that outlive the call, such as a built model's atlas, give
    the next call the same nodes, with the facts already read."""
    nodes = list(_stage(chart_node(c, ideal, model, budget) for c in charts))
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
        return nodes, _descend(*args, nodes, model)
    return nodes, _descend(*args)


def _stage(nodes):
    """The ``nodes`` of one stage, chart by chart, each yielded once its
    facts are read, in one fixed order, so a budget stops a stage at the
    same fact on every run."""
    for node in nodes:
        node.ideal, node.gb, node.coincides, node.unstable
        yield node


def _descend(weights, ideal, centers, budget, depth_left, parent, nodes=None, model=None):
    """The stage along ``centers[0]`` below ``parent``, each node grown
    to its subtree.  ``nodes`` are the stage-0 nodes when the stage is
    stage 0: each node then carries ``model`` to its chart, and its
    subtree grows from the transported section's ideal."""
    if not centers:
        return ()
    if depth_left <= 0:
        raise BudgetExceededError("blowup recursion depth exhausted")
    center = centers[0]
    if nodes is None:
        charts = make_charts(ideal.ring, weights, center)
        nodes = _stage(ChartOutcome(c, ideal, None, budget, parent) for c in charts)
    out = []
    for node in nodes:
        chart, node_ideal = node.chart, node.ideal
        if model is not None:
            node.model = transport_model(model, node.section, chart)
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


def embedding_independence_check(small, big, atlas, aux, budget=None) -> bool:
    """Intrinsic ideals do not depend on the equivariant embedding.

    ``big`` must present the same locus as ``small`` inside the small
    ambient extended by auxiliary coordinates fixed by the torus.
    ``atlas`` is the big ambient's full-torus atlas; the small
    ambient's weights are read off its weights by name.  On
    every chart of the full-torus blowup, eliminating the auxiliary
    variables from the big intrinsic ideal must recover the small one
    exactly.  The big ideal is that of the node each big chart keeps
    (``chart_node`` without a model), which for an ideal file is the
    node its plain blowup reads; the small charts are built anew.
    """
    aux = tuple(str(a) for a in aux)
    small_names = set(small.ring.names)
    if set(big.ring.names) != small_names | set(aux) or small_names & set(aux):
        raise PreconditionError(
            "big ambient must be the small ambient plus the auxiliary coordinates"
        )
    index = big.ring.index
    weights, center = atlas[0].parent_weights, atlas[0].center
    for a in aux:
        if any(center.restrict(weights.column(index[a]))):
            raise PreconditionError(
                f"auxiliary coordinate {a!r} must be fixed by the center"
            )
    small_weights = weights.with_columns(
        [weights.column(index[name]) for name in small.ring.names]
    )
    charts_small = make_charts(small.ring, small_weights, center)
    by_pivot = {c.parent_ring.names[c.pivot]: c for c in atlas}
    for cs in charts_small:
        cb = by_pivot[cs.parent_ring.names[cs.pivot]]
        ideal_small = ChartOutcome(cs, small, None, budget).ideal
        dropped = eliminate(chart_node(cb, big, None, budget).ideal, aux, budget)
        carried = Ideal(
            cs.ring, [g.rename_ring(cs.ring) for g in dropped.generators]
        )
        if not ideal_equal(carried, ideal_small, budget=budget):
            return False
    return True


class _Fiber(Record):
    """What a fiber's node reads of its model: the family's ``bundle``,
    whose frame weights every fiber shares, and the fiber's
    ``section``."""

    __slots__ = ("bundle", "section")


def fiber_charts_commute(model, c, family_charts, fiber_charts, budget):
    """Chart-by-chart commutation of intrinsic full-torus blowup with
    fibers: ``model`` at c, over the full-torus atlases of the family
    and of its fibers.

    Route one forms the intrinsic chart ideal of the family and then sets
    the parameter, into each fiber chart's ring; route two sets the
    parameter in the family's section alone (``fiber_section``), in the
    fibers' ring that the fiber charts keep as ``parent_ring``, and
    blows up that section's ideal.  The verdict per chart also demands
    the blowup sections agree componentwise when the model carries a
    factorization witness.  Route one reads the node each family chart
    keeps (``chart_node``), so charts that outlive the call serve every
    base value; route two reads a new node on each fiber chart, since
    each fiber is another section."""
    c = canon(c)
    fiber_ring = fiber_charts[0].parent_ring
    fiber = _Fiber(model.bundle, fiber_section(model, c, fiber_ring))
    ideal, fiber_ideal = model.ideal, Ideal(fiber_ring, fiber.section)
    by_pivot = {ch.parent_ring.names[ch.pivot]: ch for ch in fiber_charts}
    out: dict[str, bool] = {}
    for ch in family_charts:
        fch = by_pivot[model.ring.names[ch.pivot]]
        sub = _drop_var(ch.ring, model.base_param, c, fch.ring)
        node = chart_node(ch, ideal, model, budget)
        fiber_node = ChartOutcome(fch, fiber_ideal, fiber, budget)
        gens_a = [sub(p) for p in node.ideal.generators]
        ok = ideal_equal(Ideal(fch.ring, gens_a), fiber_node.ideal, budget=budget)
        if ok and model.sigma_lift is not None:
            ok = [sub(p) for p in node.section] == list(fiber_node.section)
        out[ch.name] = ok
    return out
