"""Families over an affine base line: the space of every fiber and the
specialization of local models at a parameter value.  The check that
the intrinsic blowup commutes with taking fibers reads chart facts, so
it lives with the tree nodes, in ``desing``.

The base direction carries weight zero in every row, so the torus acts
fiberwise and isotypic decomposition never mixes the parameter in.
"""

from .blowup import LocalModel
from .errors import PreconditionError
from .poly import Poly, Ring, canon
from .torus import WeightMatrix


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
    without the base coordinate and its weight column.  Refuses a model
    without a base parameter, or whose base parameter moves or carries
    the divisor."""
    if model.base_param is None:
        raise PreconditionError("model has no base parameter")
    t = model.ring.index[model.base_param]
    if any(row[t] for row in model.weights.rows):
        raise PreconditionError("base parameter must have weight zero in every row")
    if model.base_param in model.divisor:
        raise PreconditionError("base parameter cannot carry the divisor")
    rows = [row[:t] + row[t + 1 :] for row in model.weights.rows]
    return model.ring.without((model.base_param,)), WeightMatrix(rows)


def specialize(model: LocalModel, c) -> LocalModel:
    """Fiber of a family at a base value: substitute the parameter and drop
    its coordinate and weight column."""
    target, weights = fiber_space(model)
    c = canon(c)
    ring = model.ring
    t = ring.index[model.base_param]
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
