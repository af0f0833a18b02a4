"""Out-of-program tracing: spans around every public function of each layer.

The tracer rebinds each public module-level function of the ten
``chiralwalk`` modules, in every module namespace that binds it (so
``winding.exact_kernel`` is wrapped as well as ``transfer.exact_kernel``),
plus a few methods named in METHODS.  A span records name, layer, start,
end, parent span and operation id; spans stay in memory until
``write`` dumps them.  Work submitted to ``analysis.ThreadPoolExecutor``
inherits the submitting thread's open span as its parent.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import math
import statistics
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYERS = (
    "cli", "scenarios", "analysis", "walks", "operators",
    "essential", "transfer", "winding", "indices", "verification",
)

# class methods traced in addition to the public module-level functions; the
# operator algebra is listed so that its time counts to operators, not to the
# layer that calls it.  Accessors called per site (CoefficientFunction.value_at,
# values_on) stay untraced: their span cost would exceed their own.
METHODS = {
    "operators": (
        ("SymbolLoop", "__call__"), ("SymbolLoop", "derivative"),
        ("SymbolLoop", "hermitian_conjugate"), ("SymbolLoop", "reversed"),
        ("SymbolLoop", "__mul__"), ("SymbolLoop", "__add__"),
        ("BandedAnisotropicOperator", "symbol_at"), ("BandedAnisotropicOperator", "truncate"),
        ("BandedAnisotropicOperator", "__add__"), ("BandedAnisotropicOperator", "__sub__"),
        ("BandedAnisotropicOperator", "scaled"), ("BandedAnisotropicOperator", "__matmul__"),
        ("BandedAnisotropicOperator", "adjoint"), ("BandedAnisotropicOperator", "bulk_window"),
        ("BandedAnisotropicOperator", "entry_sup"),
        ("BandedAnisotropicOperator", "to_json_dict"),
        ("BandedAnisotropicOperator", "from_json_dict"),
        ("TruncatedOperator", "__init__"),
        ("CoefficientFunction", "__add__"), ("CoefficientFunction", "product"),
        ("CoefficientFunction", "scaled"), ("CoefficientFunction", "shifted"),
        ("CoefficientFunction", "conj_transposed"),
    ),
    "winding": (("SampledLoop", "winding"),),
    "scenarios": (("Scenario", "load"), ("Scenario", "build"), ("SweepSpec", "load")),
}

LOOP_FUNCTIONS = ("chiral_flat_band_symbol", "chiral_imaginary_block_symbol")
THEOREM_FUNCTIONS = ("verify_index_theorem", "verify_index_theorem_chiral",
                     "verify_index_theorem_banded")
DET_FUNCTIONS = ("winding_det", "nc_winding", "SampledLoop.winding")
REFINING_FUNCTIONS = ("gap_at", "essential_norm")
BUILD_FUNCTIONS = ("build_walk", "build_gamma0", "build_gamma1", "build_generator_walk",
                   "build_weighted_shift_walk")
CHIRAL_CHECK_FUNCTIONS = ("verify_chiral_parts", "verify_chiral")
LOAD_FUNCTIONS = ("Scenario.load", "SweepSpec.load")


class Span:
    __slots__ = ("sid", "name", "layer", "parent", "op", "start", "end", "error", "attrs")

    def __init__(self, sid, name, layer, parent, op):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.error = None
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {
            "id": self.sid,
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent.sid if self.parent else None,
            "op": self.op,
            "start": self.start,
            "end": self.end,
            "error": self.error,
            "attrs": self.attrs,
        }


def operator_fingerprint(op):
    """Digest of a banded operator's coefficients, to count distinct operators."""
    h = hashlib.sha256()
    for offset in sorted(op.bands):
        f = op.bands[offset]
        h.update(str((offset, f.window_start)).encode())
        for arr in (f.left, f.right, f.values):
            h.update(arr.tobytes())
    return h.hexdigest()


def _arg(args, kwargs, position, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


# attribute hooks: (args, kwargs, result) -> the counts a span records
def _symbol_hook(args, kwargs, result):
    return {"points": int(result.shape[0]) if result.ndim == 3 else 1}


def _loop_hook(args, kwargs, result):
    return {"points": int(result.samples.shape[0])}


def _gap_hook(args, kwargs, result):
    grid_in = _arg(args, kwargs, 2, "grid_n", 4096)
    return {"grid_in": int(grid_in), "grid_out": int(result.grid_n), "statuses": [result.status]}


def _norm_hook(args, kwargs, result):
    grid_in = _arg(args, kwargs, 1, "grid_n", 4096)
    return {"grid_in": int(grid_in), "grid_out": int(result.grid_n)}


def _fredholm_hook(args, kwargs, result):
    return {"statuses": [result.minus.status, result.plus.status]}


HOOKS = {
    "SymbolLoop.__call__": _symbol_hook,
    "chiral_flat_band_symbol": _loop_hook,
    "chiral_imaginary_block_symbol": _loop_hook,
    "gap_at": _gap_hook,
    "essential_norm": _norm_hook,
    "is_fredholm_type": _fredholm_hook,
}


class Tracer:
    """Installs and removes the span wrappers; owns the recorded spans."""

    def __init__(self, package="chiralwalk"):
        self.package = importlib.import_module(package)
        self.modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        self.spans = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []   # (owner, attribute, original value)

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def _wrap(self, fn, name, layer):
        tracer = self
        hook = HOOKS.get(name)
        keyed = name == "exact_kernel"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(next(tracer._ids), name, layer, tracer.current(), tracer.op)
            if keyed:  # before the call, so that refused calls count too
                span.attrs = {"operator": operator_fingerprint(args[0])}
            tracer.spans.append(span)
            stack = tracer._stack()
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span.attrs = hook(args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - a changed result type must not break the call
                    span.attrs = {"hook_error": type(exc).__name__}
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attribute, value):
        self._saved.append((owner, attribute, inspect.getattr_static(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        if self._saved:
            return
        namespaces = [self.package, *self.modules.values()]
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(obj, attr, layer)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._set(ns, bound, wrapper)
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name, None)
                raw = inspect.getattr_static(cls, method, None) if cls else None
                if raw is None:
                    continue
                name = f"{cls_name}.{method}"
                if isinstance(raw, classmethod):
                    self._set(cls, method, classmethod(self._wrap(raw.__func__, name, layer)))
                else:
                    self._set(cls, method, self._wrap(raw, name, layer))
        analysis = self.modules["analysis"]
        if getattr(analysis, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._set(analysis, "ThreadPoolExecutor", self._linked_pool())

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _linked_pool(self):
        tracer = self

        class LinkedThreadPoolExecutor(ThreadPoolExecutor):
            """Runs each task with the submitting thread's open span as parent."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def linked(*a, **k):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.inherited = None

                return super().submit(linked, *args, **kwargs)

        return LinkedThreadPoolExecutor

    def write(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


# --- per-layer metrics ---------------------------------------------------------


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span duration minus the part of it that child spans cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent.sid, []).append(span)
    out = {}
    for span in spans:
        covered = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.sid, ())
        ]
        out[span.sid] = span.duration - _union_length([iv for iv in covered if iv[1] > iv[0]])
    return out


def _outermost(spans, member):
    """Spans for which ``member`` holds and for none of their ancestors."""
    out = []
    for span in spans:
        if not member(span):
            continue
        parent = span.parent
        while parent is not None and not member(parent):
            parent = parent.parent
        if parent is None:
            out.append(span)
    return out


def _named(*names):
    return lambda span: span.name in names


def _in_layer(layer):
    return lambda span: span.layer == layer


def layer_metrics(spans, n_ops):
    """Per-operation layer metrics from the spans of ``n_ops`` traced operations."""
    n = max(n_ops, 1)
    selfs = self_times(spans)

    def ms(group):
        return 1e3 * sum(s.duration for s in group) / n

    def named(*names):
        return [s for s in spans if s.name in names]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * sum(selfs[s.sid] for s in spans if s.layer == layer) / n

    loops = named(*LOOP_FUNCTIONS)
    m["winding.loop_ms"] = ms(loops)
    m["winding.loops"] = len(loops) / n
    m["winding.loop_points"] = sum((s.attrs or {}).get("points", 0) for s in loops) / n
    m["winding.theorem_self_ms"] = 1e3 * sum(selfs[s.sid] for s in named(*THEOREM_FUNCTIONS)) / n
    m["winding.det_ms"] = ms(_outermost(spans, _named(*DET_FUNCTIONS)))
    m["winding.failures"] = sum(
        1 for s in _outermost(spans, _in_layer("winding")) if s.error
    ) / n

    essential = [s for s in spans if s.layer == "essential"]
    m["essential.gap_at_ms"] = ms(named("gap_at"))
    m["essential.fredholm_ms"] = ms(named("is_fredholm_type"))
    m["essential.dichotomy_ms"] = ms(named("dichotomy_check"))
    m["essential.calls"] = len(essential) / n
    refining = [s for s in named(*REFINING_FUNCTIONS) if "grid_out" in (s.attrs or {})]
    m["essential.grid_doublings"] = sum(
        math.log2(s.attrs["grid_out"] / s.attrs["grid_in"]) for s in refining
    ) / n
    per_op_max = {}
    for s in refining:
        per_op_max[s.op] = max(per_op_max.get(s.op, 0), s.attrs["grid_out"])
    m["essential.final_grid_max"] = statistics.median(per_op_max.values()) if per_op_max else 0.0
    statuses = [st for s in named("gap_at", "is_fredholm_type")
                for st in (s.attrs or {}).get("statuses", ())]
    for status in ("certified", "refuted", "inconclusive"):
        m[f"essential.{status}"] = statuses.count(status) / n

    symbol = named("SymbolLoop.__call__")
    m["operators.symbol_calls"] = len(symbol) / n
    m["operators.symbol_points"] = sum((s.attrs or {}).get("points", 0) for s in symbol) / n
    m["operators.symbol_ms"] = ms(symbol)

    kernels = _outermost(spans, _named("exact_kernel"))
    distinct = {(s.op, s.attrs["operator"]) for s in kernels}
    m["transfer.exact_kernel_ms"] = ms(kernels)
    m["transfer.exact_kernel_calls"] = len(kernels) / n
    m["transfer.exact_kernel_repeat_ratio"] = len(kernels) / len(distinct) if distinct else 0.0
    m["transfer.refusals"] = sum(1 for s in kernels if s.error) / n

    m["indices.ms"] = ms(_outermost(spans, _in_layer("indices")))
    m["indices.calls"] = sum(1 for s in spans if s.layer == "indices") / n

    sweeps = named("run_sweep")
    cells = [s for s in named("run_index_report") if s.parent in sweeps]
    wall = sum(s.duration for s in sweeps)
    m["analysis.sweep_parallelism"] = sum(s.duration for s in cells) / wall if wall else 0.0

    m["walks.build_ms"] = ms(_outermost(spans, _named(*BUILD_FUNCTIONS)))
    m["walks.chiral_check_ms"] = ms(_outermost(spans, _named(*CHIRAL_CHECK_FUNCTIONS)))
    m["scenarios.load_ms"] = ms(_outermost(spans, _named(*LOAD_FUNCTIONS)))
    m["trace.spans_per_op"] = len(spans) / n
    return m

