"""The bench models of ``perfbench/models`` as model-file text: the three
of ROADMAP's baseline section and the rank-2 model ``rank2.kb``."""

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


def write_bench_models(directory):
    """Write every bench model into ``directory``; returns it."""
    for name, text in BENCH_MODELS.items():
        (directory / name).write_text(text)
    return directory
