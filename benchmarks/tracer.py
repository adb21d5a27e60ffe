"""Run-time tracing of the galledtrees layers from outside the package.

`Tracer.install` replaces every public function of each galledtrees module,
and the public and operator methods of `TruncatedSeries` and
`BivariateSeries`, with a wrapper.  It patches every module binding of the
same object, because `from .series import int_mul` in `genfunc` and
`from .counts import count` in `cli` are names of their own.

A call that enters a layer from another layer (or from the benchmark) opens
a span; a call made from inside the same layer only counts.  A layer's self
time is the time its spans cover minus the time their child spans cover.
Spans and counters live in memory until `snapshot` and `write_spans`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Layer names in reporting order.  The series module is split in two: the
# Fraction classes and fixed-point solvers, and the plain-integer kernels.
LAYERS = (
    "cli",
    "golden",
    "counts",
    "comb",
    "genfunc",
    "series.fraction",
    "series.int",
    "asym",
    "oracle",
    "bijections",
)
BENCH = "bench"  # the benchmark's own code: the root span of every job

_SERIES_CLASSES = ("TruncatedSeries", "BivariateSeries")
_SERIES_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__getitem__", "__eq__"}


def layer_of(module_name: str, name: str) -> str:
    short = module_name.rpartition(".")[2]
    if short == "series":
        return "series.int" if name.startswith(("int_", "egf_")) else "series.fraction"
    return short


def _conv_pairs(len_a: int, len_b: int, order: int) -> int:
    """Coefficient pairs (i, j) with i < len_a, j < len_b and i + j <= order."""
    return sum(min(len_b, order + 1 - i) for i in range(min(len_a, order + 1)))


def _inverse_pairs(len_f: int, order: int) -> int:
    """Pairs f[i] * out[m - i] with 1 <= i <= m taken by a geometric inverse."""
    return sum(min(m, len_f - 1) for m in range(1, order + 1))


# Coefficient-pair count of each integer kernel, from operand lengths and order.
_PRODUCTS = {
    "int_mul": lambda a, b, order: _conv_pairs(len(a), len(b), order),
    "egf_mul": lambda a, b, order: _conv_pairs(len(a), len(b), order),
    "int_geom_inverse": lambda f, order: _inverse_pairs(len(f), order),
    "egf_geom_inverse": lambda f, order: _inverse_pairs(len(f), order),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (layer, start_ns, end_ns, parent index)
        self._stack: list = []  # [layer, start_ns, child_ns, index]
        self.self_ns = {layer: 0 for layer in LAYERS + (BENCH,)}
        self.fn_calls: dict = {}  # "module.name" -> [count]
        self.layer_of_key: dict = {}
        self.cache_probe = {"counts": [0, 0], "genfunc": [0, 0]}  # [calls, hits]
        self.items_yielded = 0
        self.coeff_products = 0
        self.fixed_point_solves = 0
        self.fixed_point_passes = 0
        self._restore: list = []  # (owner, name, original attribute)
        self._t0 = time.perf_counter_ns()

    # -- spans -----------------------------------------------------------------

    def span(self, layer, fn, args=(), kwargs=None):
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)
        rec = [layer, time.perf_counter_ns(), 0, index]
        stack.append(rec)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - rec[1]
            self.self_ns[layer] += duration - rec[2]
            parent = -1
            if stack:
                stack[-1][2] += duration
                parent = stack[-1][3]
            self.spans[index] = (layer, rec[1] - self._t0, end - self._t0, parent)

    def _current_layer(self):
        return self._stack[-1][0] if self._stack else None

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, layer, fn, key):
        calls = self.fn_calls.setdefault(key, [0])
        self.layer_of_key[key] = layer
        name = key.rpartition(".")[2]
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced_items(it):
                while True:
                    try:
                        if tracer._current_layer() == layer:
                            item = next(it)
                        else:
                            item = tracer.span(layer, next, (it,))
                    except StopIteration:
                        return
                    tracer.items_yielded += 1
                    yield item

            def generator_wrapper(*args, **kwargs):
                calls[0] += 1
                return traced_items(fn(*args, **kwargs))

            return functools.wraps(fn)(generator_wrapper)

        probe = _probe_for(layer, name)
        products = _PRODUCTS.get(name)
        solver = name in ("fixed_point_solve", "bivariate_fixed_point")

        def wrapper(*args, **kwargs):
            calls[0] += 1
            if products is not None:
                tracer.coeff_products += products(*args, **kwargs)
            if solver:
                tracer.fixed_point_solves += 1
                args = (tracer._traced_update(args[0]),) + args[1:]
            if probe is not None:
                before = probe()
            if tracer._current_layer() == layer:
                out = fn(*args, **kwargs)
            else:
                out = tracer.span(layer, fn, args, kwargs)
            if probe is not None:
                tally = tracer.cache_probe[layer]
                tally[0] += 1
                tally[1] += probe() == before
            return out

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):  # keep lru_cache's handles
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _traced_update(self, update):
        """The update closure of a fixed-point solve, counted per pass and
        timed as a span of the module that defined it."""
        layer = layer_of(update.__module__, update.__name__)

        def traced(f):
            self.fixed_point_passes += 1
            if self._current_layer() == layer:
                return update(f)
            return self.span(layer, update, (f,))

        return traced

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        """Wrap the galledtrees modules imported so far (import them first)."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "galledtrees" or n.startswith("galledtrees."))]
        wrapped = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    key = f"{mod.__name__}.{name}"
                    wrapped[id(obj)] = (obj, self._wrap(layer_of(mod.__name__, name), obj, key))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        series = sys.modules["galledtrees.series"]
        for cls_name in _SERIES_CLASSES:
            cls = getattr(series, cls_name)
            for name, attr in list(vars(cls).items()):
                if name not in _SERIES_OPERATORS and name.startswith("_"):
                    continue
                key = f"galledtrees.series.{cls_name}.{name}"
                if isinstance(attr, classmethod):
                    new = classmethod(self._wrap("series.fraction", attr.__func__, key))
                elif inspect.isfunction(attr):
                    new = self._wrap("series.fraction", attr, key)
                else:
                    continue  # properties and slots stay untouched
                self._restore.append((cls, name, attr))
                setattr(cls, name, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def calls_in(self, layer: str) -> int:
        return sum(c[0] for k, c in self.fn_calls.items() if self.layer_of_key[k] == layer)

    def calls_of(self, key: str) -> int:
        return self.fn_calls.get(key, [0])[0]

    def snapshot(self) -> dict:
        """Counters and per-layer self time, taken before anything else runs."""
        ratio = {}
        for layer, (calls, hits) in self.cache_probe.items():
            ratio[layer] = hits / calls if calls else 0.0
        return {
            "self_s": {layer: ns / 1e9 for layer, ns in self.self_ns.items()},
            "calls": {layer: self.calls_in(layer) for layer in LAYERS},
            "cache_hit_ratio": ratio,
            "items_yielded": self.items_yielded,
            "coeff_products": self.coeff_products,
            "fixed_point_solves": self.fixed_point_solves,
            "fixed_point_passes": self.fixed_point_passes,
            "canonical_key_calls": self.calls_of("galledtrees.oracle.canonical_key"),
            "validate_calls": self.calls_of("galledtrees.oracle.validate"),
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        """Write every span as (layer, start ns, end ns, parent index)."""
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _cache_size(module: str, attr: str):
    def size():
        cache = getattr(sys.modules[module], attr, None)
        return 0 if cache is None else len(cache)

    return size


def _ladder_state():
    """(base series cached, fixed-g rungs cached); each ladder list holds the
    base series at index 0, so its rungs are the entries after it."""
    genfunc = sys.modules["galledtrees.genfunc"]
    ladders = getattr(genfunc, "_ladder_cache", {})
    return (len(getattr(genfunc, "_base_cache", {})),
            sum(len(ladder) - 1 for ladder in ladders.values()))


def _probe_for(layer: str, name: str):
    """Cache-size reader whose change marks a call as a miss, or None."""
    if layer == "counts":
        return _cache_size("galledtrees.counts", "_row_cache")
    if layer == "genfunc" and name in ("base_tree_series", "fixed_g_series"):
        return _ladder_state
    return None


def cache_sizes() -> dict:
    """Sizes of the module caches whose growth the benchmark reports."""
    oracle = sys.modules["galledtrees.oracle"]
    return {
        "rows": _cache_size("galledtrees.counts", "_row_cache")(),
        "rungs": _ladder_state()[1],
        "asym_counts": _cache_size("galledtrees.asym", "_unlabeled_counts_cache")(),
        "structures": sum(len(v) for v in getattr(oracle, "_gen_cache", {}).values()),
    }
