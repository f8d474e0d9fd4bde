"""Test oracles for blowup charts, written out here on their own so
they share nothing with how the package transports polynomials.

``subs`` is the reference substitution, each term expanded with Poly
arithmetic.  ``chart_images`` gives the chart map as one image per
parent variable, for ``subs``.  ``charts_glue`` checks that chart ideals
of one blowup agree on chart overlaps, through the transition map
between two charts.
"""

from equiblow import Ideal, PreconditionError, ideal_equal, saturate


def subs(p, images, target):
    """Substitute images[i], a polynomial of ``target``, for the i-th
    variable of p's ring: each term expanded with Poly arithmetic."""
    total = target.zero()
    for m, c in p.terms.items():
        term = target.const(c)
        for im, e in zip(images, m):
            term = term * im**e
        total = total + term
    return total


def chart_images(chart):
    """The chart map by Poly arithmetic: x_k -> xi_k, moving x_i ->
    xi_k*T_i, fixed x_i -> x_i."""
    ring = chart.ring
    xi = ring.var(chart.exceptional)
    out = []
    for i, name in enumerate(chart.parent_ring.names):
        if i == chart.pivot:
            out.append(xi)
        elif i in chart.moving:
            out.append(xi * ring.var("T_" + name))
        else:
            out.append(ring.var(name))
    return out


def transition_substitute(p, source, target):
    """Rewrite a chart polynomial into an overlapping chart of one blowup.

    The transition inverts the source ratio coordinate of the target
    pivot, so the result is cleared by the smallest power of that
    coordinate; comparisons must saturate it away.
    """
    if (
        source.parent_ring != target.parent_ring
        or source.center != target.center
    ):
        raise PreconditionError("charts belong to different blowups")
    if p.ring != source.ring:
        raise ValueError("polynomial does not live in the source chart ring")
    if source.pivot == target.pivot:
        return p
    names = source.parent_ring.names
    tr = target.ring
    t_link = tr.var("T_" + names[source.pivot])
    numerators = []
    denom_pow = []
    for i in range(source.parent_ring.n):
        if i == source.pivot:
            numerators.append(tr.var(target.exceptional) * t_link)
            denom_pow.append(0)
        elif i == target.pivot:
            numerators.append(tr.one())
            denom_pow.append(1)
        elif i in source.moving:
            numerators.append(tr.var("T_" + names[i]))
            denom_pow.append(1)
        else:
            numerators.append(tr.var(names[i]))
            denom_pow.append(0)
    depth = 0
    for m in p.terms:
        depth = max(depth, sum(e * denom_pow[i] for i, e in enumerate(m)))
    total = tr.zero()
    for m, c in p.terms.items():
        term = tr.const(c)
        used = 0
        for i, e in enumerate(m):
            if e:
                term = term * numerators[i] ** e
                used += e * denom_pow[i]
        total = total + term * t_link ** (depth - used)
    return total


def charts_glue(ideal_a, chart_a, ideal_b, chart_b, budget=None):
    """Two chart ideals agree on the chart overlap.

    The ideal of the second chart is carried over the transition and both
    sides are saturated by the transition coordinate before comparison.
    """
    names = chart_a.parent_ring.names
    t_link = chart_a.ring.var("T_" + names[chart_b.pivot])
    moved = Ideal(
        chart_a.ring,
        [transition_substitute(g, chart_b, chart_a) for g in ideal_b.generators],
    )
    return ideal_equal(
        saturate(moved, t_link, budget),
        saturate(ideal_a, t_link, budget),
        budget,
    )
