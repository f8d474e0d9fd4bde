"""The bench models of ``perfbench/models`` as model-file text: the three
of ROADMAP's baseline section and the rank-2 model ``rank2.kb``; and the
matrix models ``c3m2.kb`` and ``c3m3.kb``, written from their formula."""

import itertools

BENCH_MODELS = {
    "heavy.kb": (
        "variables = [x1, x2, x3, y1, y2, y3]\n"
        "weights = [[1, 1, 2, -1, -1, -2]]\n"
        'potential = "x1*y1*x2*y2 + x3*y3*x1*y1 + x1^2*y3 + x3*y1^2 + x3*y3^2*x1*x2"\n'
    ),
    "quiver3.kb": (
        "variables = [a, b, c, d, e, f]\n"
        "weights = [[1, -1, 1, -1, 0, 0]]\n"
        'potential = "a*b*e + c*d*f + a*d*e*f + b*c*e^2"\n'
    ),
    "conifold.kb": (
        "variables = [x1, x2, y1, y2, z]\n"
        "weights = [[1, 1, -1, -1, 0]]\n"
        'potential = "x1*y1*z + x2*y2*z^2 + x1*x2*y1*y2"\n'
    ),
    "rank2.kb": (
        "variables = [x, y, z, w]\n"
        "weights = [[1, -1, 0, 0], [0, 0, 1, -1]]\n"
        'potential = "x*y*z*w + x^2*y^2 + z^2*w^2"\n'
    ),
}


def matrix_model(m: int) -> str:
    """The local model at the sheaf O_p^m on C^3: the entries of three
    m x m matrices X, Y, Z (Ext^1 = C^3 (x) gl(m)), the potential
    tr X[Y, Z], and the maximal torus of GL(m) modulo scalars, taken as
    the diagonal matrices with last entry 1.  Entry (i, j) has weight
    e_i - e_j, restricted to the first m - 1 coordinates."""
    entries = [(a, i, j) for a in "xyz" for i in range(1, m + 1) for j in range(1, m + 1)]
    names = ", ".join(f"{a}{i}{j}" for a, i, j in entries)
    rows = [[int(i == r) - int(j == r) for _, i, j in entries] for r in range(1, m)]
    terms = []
    for i, j, k in itertools.product(range(1, m + 1), repeat=3):
        terms += [f"x{i}{j}*y{j}{k}*z{k}{i}", f"-x{i}{j}*z{j}{k}*y{k}{i}"]
    potential = " + ".join(terms).replace("+ -", "- ")
    return f'variables = [{names}]\nweights = {rows}\npotential = "{potential}"\n'


MATRIX_MODELS = {"c3m2.kb": matrix_model(2), "c3m3.kb": matrix_model(3)}


def write_bench_models(directory):
    """Write every bench model into ``directory``; returns it."""
    for name, text in BENCH_MODELS.items():
        (directory / name).write_text(text)
    return directory
