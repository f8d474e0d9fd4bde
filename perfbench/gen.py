"""Seeded input generator for the benchmark workloads.

Everything here is written against the model-file format alone: a small
reader for `.kb` files, polynomials as dicts {exponent tuple: Fraction},
and truncated power series in one parameter.  Nothing is imported from
equiblow, so the generator cannot inherit a fault of the program it
feeds.  The same seed always gives the same inputs.

    python3 perfbench/gen.py --seed 3                          # point queries
    python3 perfbench/gen.py --seed 3 --workload chart-sweep   # chart sweep
"""

import argparse
import ast
import re
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Nonzero coordinate values drawn for points and directions.
VALUES = tuple(
    Fraction(n, d) for n in (1, -1, 2, -2, 3, -3) for d in (1, 2, 3)
)


# ---------------------------------------------------------------------------
# model files


def _scan(text):
    """Tokens of a model file: brackets, commas, '=', strings, bare words."""
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    return re.findall(r'"[^"]*"|[\[\],=]|[^\s\[\],="]+', text)


def _value(tokens, pos):
    tok = tokens[pos]
    if tok == "[":
        items, pos = [], pos + 1
        while tokens[pos] != "]":
            item, pos = _value(tokens, pos)
            items.append(item)
            if tokens[pos] == ",":
                pos += 1
        return items, pos + 1
    if tok.startswith('"'):
        return tok[1:-1], pos + 1
    try:
        return int(tok), pos + 1
    except ValueError:
        return tok, pos + 1


def read_model(path):
    """Key/value entries of a `.kb` file, plus the parsed polynomials.

    Returns a dict with `variables`, `weights`, `potential` (a poly or
    None) and `generators` (the ideal the program blows up: the partial
    derivatives of the potential, minus the base direction of a family,
    or the listed ideal).
    """
    tokens = _scan(Path(path).read_text(encoding="utf-8"))
    entries, pos = {}, 0
    while pos < len(tokens):
        key = tokens[pos]
        if tokens[pos + 1] != "=":
            raise ValueError(f"{path}: expected '=' after {key!r}")
        entries[key], pos = _value(tokens, pos + 2)
    names = [str(v) for v in entries["variables"]]
    model = {
        "variables": names,
        "weights": [[int(x) for x in row] for row in entries["weights"]],
        "potential": None,
    }
    if "potential" in entries:
        f = parse(entries["potential"], names)
        model["potential"] = f
        base = entries.get("base_parameter")
        model["generators"] = [
            derivative(f, i) for i, nm in enumerate(names) if nm != base
        ]
    else:
        model["generators"] = [parse(g, names) for g in entries["ideal"]]
    return model


# ---------------------------------------------------------------------------
# polynomials: {exponent tuple: Fraction}, zero coefficients never stored


def _add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _const(c, n):
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def parse(text, names):
    """Polynomial from the `^`-power syntax of model files."""
    n = len(names)
    index = {nm: i for i, nm in enumerate(names)}
    tree = ast.parse(text.replace("^", "**"), mode="eval").body

    def ev(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return _const(node.value, n)
        if isinstance(node, ast.Name):
            e = [0] * n
            e[index[node.id]] = 1
            return {tuple(e): Fraction(1)}
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return {m: -c for m, c in v.items()} if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp):
            a = ev(node.left)
            if isinstance(node.op, ast.Pow):
                k = node.right.value
                out = _const(1, n)
                for _ in range(k):
                    out = _mul(out, a)
                return out
            b = ev(node.right)
            if isinstance(node.op, ast.Add):
                return _add(a, b)
            if isinstance(node.op, ast.Sub):
                return _add(a, {m: -c for m, c in b.items()})
            if isinstance(node.op, ast.Mult):
                return _mul(a, b)
            if isinstance(node.op, ast.Div):
                (c,) = b.values()
                return {m: v / c for m, v in a.items()}
        raise ValueError(f"unsupported expression {ast.dump(node)}")

    return ev(tree)


def derivative(p, i):
    out = {}
    for m, c in p.items():
        if m[i]:
            e = list(m)
            e[i] -= 1
            out[tuple(e)] = c * m[i]
    return out


def evaluate(p, point):
    total = Fraction(0)
    for m, c in p.items():
        term = c
        for x, e in zip(point, m):
            if e:
                term *= x**e
        total += term
    return total


def along_line(p, point, direction, order):
    """Coefficients of t^0..t^order of p(point + t*direction)."""
    total = [Fraction(0)] * (order + 1)
    lines = list(zip(point, direction))
    for m, c in p.items():
        series = [c] + [Fraction(0)] * order
        for (x, d), e in zip(lines, m):
            for _ in range(e):
                nxt = [Fraction(0)] * (order + 1)
                for k, s in enumerate(series):
                    if s:
                        nxt[k] += s * x
                        if k < order:
                            nxt[k + 1] += s * d
                series = nxt
        total = [a + b for a, b in zip(total, series)]
    return total


# ---------------------------------------------------------------------------
# inputs


def fmt(point):
    return ",".join(str(x) for x in point)


def moving(model):
    """Coordinates with a nonzero weight (rank-1 models)."""
    (row,) = model["weights"]
    return [i for i, w in enumerate(row) if w]


def chart_point(rng, model):
    """A rational chart point with a random zero pattern.  Half of the
    coordinates are zero on average, so about half of the points lie on
    the exceptional divisor (pivot coordinate zero)."""
    return _random_point(rng, len(model["variables"]), 0.5)


def _random_point(rng, n, zero_share):
    return tuple(
        Fraction(0) if rng.random() < zero_share else rng.choice(VALUES)
        for _ in range(n)
    )


def critical_points(rng, model, count, attempts=4000):
    """Points where every generator vanishes (the critical locus of the
    potential), found by rejection over random zero patterns.  The
    origin, always critical for these potentials, fills any shortfall."""
    n = len(model["variables"])
    gens = model["generators"]
    out = []
    for a in range(attempts):
        if len(out) == count:
            break
        p = _random_point(rng, n, (0.4, 0.6, 0.8)[a % 3])
        if all(evaluate(g, p) == 0 for g in gens):
            out.append(p)
    out += [(Fraction(0),) * n] * (count - len(out))
    return out


def lands(model, point, direction, m):
    """Whether t -> point + t*direction lands in the locus to order m-1."""
    return all(
        not any(along_line(g, point, direction, m - 1)) for g in model["generators"]
    )


def obstruction_triples(rng, model, count, attempts=4000):
    """(point, direction, order) with order m in {2, 3}, kept only when
    the line lands in the locus to order m-1; a zero direction, which
    always lands, fills any shortfall."""
    n = len(model["variables"])
    points = critical_points(rng, model, 16)
    out = []
    for _ in range(attempts):
        if len(out) == count:
            break
        p = rng.choice(points)
        d = _random_point(rng, n, 0.6)
        m = rng.choice((2, 3))
        if lands(model, p, d, m):
            out.append((p, d, m))
    while len(out) < count:
        out.append((rng.choice(points), (Fraction(0),) * n, 2))
    return out


def fiber_values(rng, count):
    """Distinct rational base values for `fiber-check`."""
    seen, out = set(), []
    while len(out) < count:
        c = Fraction(rng.randint(-24, 24), rng.randint(1, 6))
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def main():
    ap = argparse.ArgumentParser(description="Print one pass of a workload.")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", default="point-queries",
                    choices=("kirwan-tree", "point-queries", "chart-sweep"))
    args = ap.parse_args()
    import workloads

    for op in workloads.build(args.workload, args.seed, HERE.parent):
        print(op.key)


if __name__ == "__main__":
    main()
