"""Span tracing of the noncross layers, installed from outside the package.

Each traced function is replaced by a wrapper in every noncross module
that holds a reference to it (the package binds names with
``from .x import y``, so the caller's module must be rebound).  The
wrapper records one span per call: name, start, end, parent span and
op id.  Spans stay in memory and are written out when the process ends.

A few wrappers also record exact counts taken from the call's result
(elements enumerated, equation rows per family, solve rank and
coefficient bit size).  Counts of lru-cached functions are taken only
when the call actually computed, not when it was served from the cache.
"""

import functools
import importlib
import json
import time

# (module, function) pairs wrapped in a traced run: the stage entry
# points of each layer.  Small helpers called millions of times stay
# unwrapped, so the overhead stays well under a second on E8.
TRACED = (
    ("weyl", "int_kernel"),
    ("ncposet", "enumerate_nc"),
    ("ncposet", "characteristic_polynomial"),
    ("ncposet", "read_cache"),
    ("ncposet", "write_cache"),
    ("decomp", "full_table"),
    ("decomp", "count_bruteforce"),
    ("decomp", "count_typeA"),
    ("decomp", "count_product"),
    ("linsys", "generate_equations"),
    ("linsys", "replay"),
    ("exact", "solve"),
    ("triangles", "assemble_dual"),
    ("triangles", "fm_transform"),
    ("triangles", "f_reciprocity_checks"),
    ("triangles", "reciprocity_check"),
    ("triangles", "zeta_identity_check"),
    ("cli", "main"),
)

ROW_FAMILIES = ("forbidden", "special", "split", "zeta")

clock = time.perf_counter


class Tracer:
    """In-memory span and count store for one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []
        self.op = 0
        self.counts = {}
        self.maxima = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def high(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def record(self, name, start, end):
        """A span timed by the caller, child of the open span."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.op])

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = clock()
        return span

    def end(self, span):
        span[2] = clock()
        self.stack.pop()

    def wrap(self, name, fn, on_result=None):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None and (
                    cache_info is None or cache_info().misses > misses):
                on_result(self, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "maxima": self.maxima}, handle)


def _on_elements(tracer, poset):
    tracer.add("ncposet.elements", len(poset))


def _on_equations(tracer, system):
    for _, _, provenance in system.rows:
        family = provenance.split(":", 1)[0].split("-", 1)[0]
        if family in ROW_FAMILIES:
            tracer.add("linsys.rows." + family, 1)
    tracer.add("linsys.variables", system.num_vars)


def _on_replay(tracer, report):
    tracer.add("linsys.dimension", report.dimension)


def _on_solve(tracer, space):
    tracer.high("exact.solve.rank", len(space.pivot_columns))
    bits = 0
    for vec in [space.particular] + list(space.nullspace):
        for value in vec:
            bits = max(bits, abs(value.numerator).bit_length(),
                       value.denominator.bit_length())
    tracer.high("exact.solve.max_bits", bits)


ON_RESULT = {
    "ncposet.enumerate_nc": _on_elements,
    "linsys.generate_equations": _on_equations,
    "linsys.replay": _on_replay,
    "exact.solve": _on_solve,
}


def install(tracer):
    """Wrap every function in TRACED, rebinding it wherever it is bound."""
    layers = {name: importlib.import_module("noncross." + name)
              for name in ("weyl", "ncposet", "decomp", "linsys", "exact",
                           "triangles", "cli")}
    modules = list(layers.values()) + [importlib.import_module("noncross")]
    for module_name, fn_name in TRACED:
        original = getattr(layers[module_name], fn_name)
        name = "%s.%s" % (module_name, fn_name)
        wrapper = tracer.wrap(name, original, ON_RESULT.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def span_cost(repeats=3, calls=20000):
    """Seconds one traced call adds over a plain call, measured here."""
    def noop():
        return None

    best = None
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer.wrap("noop", noop)
        start = clock()
        for _ in range(calls):
            noop()
        plain = clock() - start
        start = clock()
        for _ in range(calls):
            traced()
        cost = (clock() - start - plain) / calls
        best = cost if best is None else min(best, cost)
    return max(best, 0.0)
