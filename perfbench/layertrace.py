"""Layer spans recorded from outside the program.

equiblow's modules bind each other's functions by name (`from .groebner
import buchberger`), so patching the defining module alone would miss
most calls.  `Tracer.install` wraps every public function of each layer
module and rebinds the wrapper in every `equiblow` module namespace that
holds the original.  A span is (function, start, end, parent span); spans
stay in memory and are written out when the run ends.

The monomial helpers `poly.mono_*` are left unwrapped: they are
single-tuple leaf operations inside Buchberger's inner loops, where a
span would cost more than the call.  Their time, and the time of `Poly`
arithmetic methods, counts as self time of the calling layer.
`poly.polys_built` counts `Poly` constructions instead.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "poly", "groebner", "torus", "linalg", "blowup", "stability", "dcrit",
    "desing", "family", "modelfile", "report", "cli",
)
UNWRAPPED = {
    "poly": {"mono_mul", "mono_div", "mono_divides", "mono_lcm", "mono_degree",
             "mono_coprime"},
}


def _buchberger_key(fn):
    """Identity of a Buchberger input: ring names, order, generators and
    the tracked flag (the budget only caps the work)."""
    signature = inspect.signature(fn)

    def key(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        gens = tuple(sorted(tuple(sorted(g.terms.items())) for g in a["ideal"].generators))
        return (a["ideal"].ring.names, repr(a["order"]), gens, bool(a["_tracked"]))

    return key


class Tracer:
    """Span recorder for the `equiblow` package already imported."""

    def __init__(self):
        self.names = []  # span name of each wrapped function id
        self.spans = []  # (function id, start, end, parent span index or -1)
        self.polys_built = 0
        self.buchberger_inputs = set()
        self._stack = []
        self._undo = []

    def _wrap(self, fn, fid, key=None):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        inputs = self.buchberger_inputs

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if key is not None:
                inputs.add(key(*args, **kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (fid, t0, perf(), parent)
                stack.pop()

        return span

    def install(self):
        package = {
            name: mod for name, mod in sys.modules.items()
            if name == "equiblow" or name.startswith("equiblow.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = package["equiblow." + layer]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in UNWRAPPED.get(layer, ())
                ):
                    key = _buchberger_key(obj) if f"{layer}.{name}" == "groebner.buchberger" else None
                    wrappers[id(obj)] = self._wrap(obj, len(self.names), key)
                    self.names.append(f"{layer}.{name}")
        for mod in package.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
                    self._undo.append((mod, name, obj))
        poly_cls = package["equiblow.poly"].Poly
        init = poly_cls.__init__

        def counted_init(p, *args, **kwargs):
            self.polys_built += 1
            init(p, *args, **kwargs)

        poly_cls.__init__ = counted_init
        self._undo.append((poly_cls, "__init__", init))

    def uninstall(self):
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    def summary(self):
        """Calls and self time per function, and self time per layer."""
        child = [0.0] * len(self.spans)
        for fid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s = {}, {}
        for (fid, t0, t1, parent), c in zip(self.spans, child):
            name = self.names[fid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - c)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, s in self_s.items():
            layer_self[name.split(".", 1)[0]] += s
        return {"calls": calls, "self_s": self_s, "layer_self_s": layer_self}

    def write(self, path):
        """Spans as JSON lines: name, start and end (s, from the first
        span), parent index."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for fid, t0, t1, parent in self.spans:
                fh.write(json.dumps(
                    [self.names[fid], round(t0 - base, 7), round(t1 - base, 7), parent]
                ) + "\n")
