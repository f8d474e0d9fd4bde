"""Families over an affine base line: specialization of local models at a
parameter value and the chart-by-chart check that the intrinsic blowup
commutes with taking fibers.

The base direction carries weight zero in every row, so the torus acts
fiberwise and isotypic decomposition never mixes the parameter in.
"""

from .blowup import LocalModel, blowup_section, intrinsic_ideal
from .desing import chart_node
from .errors import PreconditionError
from .groebner import Ideal, ideal_equal
from .poly import Poly, Ring, canon
from .torus import WeightMatrix


def _base_index(model: LocalModel) -> int:
    if model.base_param is None:
        raise PreconditionError("model has no base parameter")
    t = model.ring.index[model.base_param]
    for row in model.weights.rows:
        if row[t] != 0:
            raise PreconditionError(
                "base parameter must have weight zero in every row"
            )
    return t


def _drop_var(source: Ring, name: str, c):
    """The map setting the variable ``name`` of ``source`` to c, into the
    ring without it.

    Each term loses its exponent e of ``name`` and its coefficient takes
    a factor c^e, cached per exponent; terms that land on one monomial
    sum, and zero sums are dropped.  The result equals ``subs`` of
    ``tests/chart_maps.py`` with c as the image of ``name``, term order
    included.
    """
    target = source.without((name,))
    t = source.index[name]
    powers: dict = {}

    def images(p: Poly):
        for m, cc in p.terms.items():
            e = m[t]
            if e:
                if not c:
                    continue  # the term vanishes
                f = powers.get(e)
                if f is None:
                    f = powers[e] = c**e
                cc = cc * f
            yield m[:t] + m[t + 1 :], cc

    def sub(p: Poly) -> Poly:
        return Poly._collect(target, images(p))

    return sub


def fiber_space(model: LocalModel) -> tuple[Ring, WeightMatrix]:
    """The ring and weights of every fiber of ``model``: the family's
    without the base coordinate and its weight column."""
    t = _base_index(model)
    rows = [row[:t] + row[t + 1 :] for row in model.weights.rows]
    return model.ring.without((model.base_param,)), WeightMatrix(rows)


def specialize(model: LocalModel, c) -> LocalModel:
    """Fiber of a family at a base value: substitute the parameter and drop
    its coordinate and weight column."""
    target, weights = fiber_space(model)
    c = canon(c)
    ring = model.ring
    t = ring.index[model.base_param]
    if model.base_param in model.divisor:
        raise PreconditionError("base parameter cannot carry the divisor")

    sub = _drop_var(ring, model.base_param, c)
    section = tuple(sub(comp) for comp in model.section)
    cofactor = tuple(tuple(sub(e) for e in row) for row in model.cofactor)
    lift = None
    if model.sigma_lift is not None:
        lift = tuple(
            tuple(sub(e) for i, e in enumerate(row) if i != t)
            for row in model.sigma_lift
        )
    potential = sub(model.potential) if model.potential is not None else None
    return LocalModel(
        target,
        weights,
        model.bundle,
        section,
        divisor=dict(model.divisor),
        cofactor=cofactor,
        sigma_lift=lift,
        potential=potential,
        base_param=None,
    )


def fiber_charts_commute(model, fiber, c, family_charts, fiber_charts, budget):
    """Chart-by-chart commutation of intrinsic full-torus blowup with
    fibers: ``model`` at c, whose fiber is ``fiber``, over the full-torus
    atlases of the two.

    Route one forms the intrinsic chart ideal of the family and then sets
    the parameter; route two specializes first and blows up the fiber.
    The verdict per chart also demands the blowup sections agree
    componentwise when the model carries a factorization witness.  Route
    one reads the node each family chart keeps (``desing.chart_node``),
    so charts that outlive the call serve every base value; route two is
    computed anew, since each fiber is another model."""
    c = canon(c)
    ideal = model.ideal
    by_pivot = {
        ch.parent_ring.names[ch.pivot]: ch for ch in fiber_charts
    }
    out: dict[str, bool] = {}
    for ch in family_charts:
        pivot_name = model.ring.names[ch.pivot]
        fch = by_pivot[pivot_name]
        sub = _drop_var(ch.ring, model.base_param, c)
        node = chart_node(ch, ideal, model, budget)
        gens_a = [sub(p) for p in node.ideal.generators]
        ideal_b = intrinsic_ideal(fiber.ideal, fch, budget)
        ok = ideal_equal(Ideal(fch.ring, gens_a), ideal_b, budget=budget)
        if ok and model.sigma_lift is not None:
            sec_a = [sub(p) for p in node.section]
            sec_b = list(blowup_section(fiber, fch))
            ok = sec_a == sec_b
        out[ch.name] = ok
    return out
