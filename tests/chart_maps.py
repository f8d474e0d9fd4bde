"""Reference chart maps by Poly arithmetic, written out here on their
own so they share nothing with how the package transports polynomials.

``subs`` is the reference substitution, each term expanded with Poly
arithmetic.  ``chart_images`` gives the chart map as one image per
parent variable, for ``subs``.  Both build their results with the
package's ``Poly`` operations, so they also fix the term order a fast
routine must reproduce; the oracles that share no code at all are in
``ref``.
"""


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
