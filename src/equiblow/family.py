"""Families over an affine base line: the space of every fiber
(``fiber_space``), the section of one fiber (``fiber_section``) and the
whole fiber as a local model (``specialize``, built on that section).
The check that the intrinsic blowup commutes with taking fibers reads
chart facts, so it lives with the tree nodes, in ``desing``; of each
fiber it substitutes only the section, in the ring that the fibers'
atlas keeps.

The base direction carries weight zero in every row, so the torus acts
fiberwise and isotypic decomposition never mixes the parameter in.
"""

from .blowup import LocalModel
from .errors import PreconditionError
from .poly import Poly, Ring, canon
from .torus import WeightMatrix


def _drop_var(source: Ring, name: str, c, target: Ring):
    """The map setting the variable ``name`` of ``source`` to the
    rational c, into ``target``: the caller's ring of the other
    variables, in their order, which is not checked.

    Each term loses its exponent e of ``name`` and its coefficient takes
    a factor c^e, cached per exponent.  Terms that land on one monomial
    sum by the rule of ``poly._fold``, written out inline in the loop
    that takes the terms apart.  The result equals ``subs`` of
    ``tests/chart_maps.py`` with c as the image of ``name``, term order
    included.
    """
    t = source.index[name]
    powers: dict = {}

    def sub(p: Poly) -> Poly:
        out: dict = {}
        for m, cc in p.terms.items():
            e = m[t]
            if e:
                if not c:
                    continue  # the term vanishes
                f = powers.get(e)
                if f is None:
                    f = powers[e] = c**e
                cc = cc * f
            m = m[:t] + m[t + 1 :]
            if m in out:
                cc += out[m]
                if not cc:
                    del out[m]
                    continue
            if type(cc) is not int and cc.denominator == 1:
                cc = cc.numerator
            out[m] = cc
        return Poly._make(target, out)

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


def fiber_section(model: LocalModel, c, ring: Ring) -> tuple[Poly, ...]:
    """The section of the fiber of ``model`` at the canonical base value
    c, in ``ring``, the fibers' ring of ``fiber_space``, which the caller
    holds.  This is all of a fiber that its blowup reads but the
    family's bundle."""
    sub = _drop_var(model.ring, model.base_param, c, ring)
    return tuple(sub(comp) for comp in model.section)


def specialize(model: LocalModel, c) -> LocalModel:
    """Fiber of a family at a base value: its ``fiber_section``, with the
    cofactor, witness and potential substituted alike and the base
    coordinate's weight column dropped."""
    target, weights = fiber_space(model)
    c = canon(c)
    ring = model.ring
    t = ring.index[model.base_param]
    sub = _drop_var(ring, model.base_param, c, target)
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
        fiber_section(model, c, target),
        divisor=dict(model.divisor),
        cofactor=cofactor,
        sigma_lift=lift,
        potential=potential,
        base_param=None,
    )
