"""In-memory span tracing of the cosymlab layers, installed from outside.

`Tracer.install()` replaces every public function of each layer module by a
wrapper that records a span (name, start, end, parent) and puts the original
back on `uninstall()`.  Functions are replaced wherever they are looked up:
as module attributes (including names bound by `from ... import`, such as
`first_return` in `cli` or `two_form_matrix` in `phase`) and as values of
module-level dicts (`cli.COMMANDS`, `catalog.SEEDS`).  A few methods are
wrapped on their classes: `HamiltonianSystem.field`, `FlowSystem.field`,
`HamiltonianSystem.validate`, `Expression.__call__` (and the gradient
closures `Expression.gradient` returns) and `cli.Runner.write_report`.

`layer_metrics()` derives the per-layer metrics from one traced pass.  A
span's self time is its duration minus the time of its child spans; spans
of one thread nest, so child intervals do not overlap.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import time
from pathlib import Path

LAYERS = ("cli", "catalog", "cosym", "phase", "forms", "section", "tischler",
          "obstruct", "expr")

# (module, class, method, span name)
METHODS = (
    ("phase", "HamiltonianSystem", "field", "phase.field"),
    ("phase", "FlowSystem", "field", "phase.field"),
    ("phase", "HamiltonianSystem", "validate", "phase.validate"),
    ("expr", "Expression", "__call__", "expr.eval"),
    ("cli", "Runner", "write_report", "cli.write_report"),
)


def _points(coords) -> int:
    shape = getattr(coords, "shape", None)
    if shape is None:                      # a plain coordinate sequence
        return 1
    n = 1
    for s in shape[:-1]:
        n *= s
    return n


def _quad_nodes(args, kwargs) -> int:
    n = args[2] if len(args) > 2 else kwargs.get("n")
    if n is None:
        from cosymlab.obstruct import DEFAULT_QUAD_NODES
        n = DEFAULT_QUAD_NODES
    return int(n) ** 2


# work recorded with a span: span name -> f(args, kwargs)
ATTRS = {
    "phase.field": lambda a, k: _points(a[1] if len(a) > 1 else k["coords"]),
    "phase.integrate_batch": lambda a, k: len(a[1] if len(a) > 1 else k["x0"]),
    "section.verify_global": lambda a, k: len(a[2] if len(a) > 2 else k["samples"]),
    "obstruct.surface_integral": _quad_nodes,
}


class Trace:
    """Spans of one traced pass, in start order: parents precede children."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.attrs: list = []

    def __len__(self) -> int:
        return len(self.names)

    def write(self, path: Path) -> None:
        """One JSON object per line: trace_id, id, parent, name, start, end
        and the work recorded with the span (or null)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.names)):
                fh.write(json.dumps({"trace_id": self.trace_id, "id": i,
                                     "parent": self.parents[i], "name": self.names[i],
                                     "start": self.starts[i], "end": self.ends[i],
                                     "work": self.attrs[i]}) + "\n")


class Tracer:
    """Installs span-recording wrappers on the layer modules."""

    def __init__(self):
        self.trace = None
        self._stack: list = []
        self._restore: list = []          # (target, key, original, is_dict)

    def wrap(self, name: str, fn):
        attr = ATTRS.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr = tracer.trace
            sid = len(tr.names)
            tr.names.append(name)
            tr.parents.append(stack[-1] if stack else -1)
            tr.attrs.append(attr(args, kwargs) if attr else None)
            tr.ends.append(0.0)
            stack.append(sid)
            tr.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.ends[sid] = clock()
                stack.pop()

        return wrapper

    def _set(self, target, key, value, is_dict: bool) -> None:
        original = target[key] if is_dict else getattr(target, key)
        self._restore.append((target, key, original, is_dict))
        if is_dict:
            target[key] = value
        else:
            setattr(target, key, value)

    def install(self, trace: Trace) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.trace = trace
        modules = {layer: importlib.import_module(f"cosymlab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, name, wrappers[id(obj)], False)
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if id(value) in wrappers:
                            self._set(obj, key, wrappers[id(value)], True)
        for layer, cls_name, method, span in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, method, self.wrap(span, getattr(cls, method)), False)
        expression = modules["expr"].Expression
        gradient = expression.gradient
        wrap = self.wrap

        @functools.wraps(gradient)
        def traced_gradient(self_):
            return wrap("expr.eval", gradient(self_))

        self._set(expression, "gradient", traced_gradient, False)

    def uninstall(self) -> None:
        for target, key, original, is_dict in reversed(self._restore):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()
        self._stack.clear()
        self.trace = None


# -- metrics -----------------------------------------------------------------------


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# per-layer metric -> (span name, total): calls, s (inclusive), self_s or work
SPAN_METRICS = {
    "cli.demo-product.s": ("cli.cmd_demo_product", "s"),
    "cli.verify-cosym.s": ("cli.cmd_verify_cosym", "s"),
    "cli.tischler.s": ("cli.cmd_tischler", "s"),
    "cli.obstruct.s": ("cli.cmd_obstruct", "s"),
    "cli.return-map.s": ("cli.cmd_return_map", "s"),
    "catalog.get_system.s": ("catalog.get_system", "s"),
    "cosym.build_product_system.s": ("cosym.build_product_system", "s"),
    "phase.validate.s": ("phase.validate", "s"),
    "cosym.verify_cosymplectic.s": ("cosym.verify_cosymplectic", "s"),
    "phase.field.calls": ("phase.field", "calls"),
    "phase.field.points": ("phase.field", "work"),
    "phase.field.s": ("phase.field", "s"),
    "phase.field.self_s": ("phase.field", "self_s"),
    "phase.integrate.calls": ("phase.integrate", "calls"),
    "phase.integrate.self_s": ("phase.integrate", "self_s"),
    "phase.integrate_batch.calls": ("phase.integrate_batch", "calls"),
    "phase.integrate_batch.orbits": ("phase.integrate_batch", "work"),
    "phase.integrate_batch.self_s": ("phase.integrate_batch", "self_s"),
    "phase.flow_raw.calls": ("phase.flow_raw", "calls"),
    "phase.flow_raw.s": ("phase.flow_raw", "s"),
    "forms.two_form_matrix.calls": ("forms.two_form_matrix", "calls"),
    "forms.two_form_matrix.self_s": ("forms.two_form_matrix", "self_s"),
    "forms.evaluate_frame.s": ("forms.evaluate_frame", "s"),
    "forms.covector_values.calls": ("forms.covector_values", "calls"),
    "forms.covector_values.s": ("forms.covector_values", "s"),
    "forms.max_coeff_magnitude.s": ("forms.max_coeff_magnitude", "s"),
    "expr.eval.calls": ("expr.eval", "calls"),
    "expr.eval.self_s": ("expr.eval", "self_s"),
    "section.first_return.calls": ("section.first_return", "calls"),
    "section.first_return.s": ("section.first_return", "s"),
    "section.first_return.self_s": ("section.first_return", "self_s"),
    "section.verify_global.s": ("section.verify_global", "s"),
    "section.verify_global.self_s": ("section.verify_global", "self_s"),
    "section.verify_global.samples": ("section.verify_global", "work"),
    "section.return_map_jacobian.calls": ("section.return_map_jacobian", "calls"),
    "section.return_map_jacobian.s": ("section.return_map_jacobian", "s"),
    "section.mapping_torus_chart.s": ("section.mapping_torus_chart", "s"),
    "tischler.periods.s": ("tischler.periods", "s"),
    "tischler.rationalize.s": ("tischler.rationalize", "s"),
    "obstruct.surface_integral.s": ("obstruct.surface_integral", "s"),
    "obstruct.surface_integral.nodes": ("obstruct.surface_integral", "work"),
}
# spans that write the report, CSV and SVG outputs
OUTPUT_SPANS = ("section.write_crossings_csv", "cli.svg_scatter", "cli.write_report")
EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}


def span_totals(tr: Trace):
    """Per span name: calls, inclusive seconds, self seconds, work."""
    n = len(tr)
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tr.parents[i]
        if p >= 0:
            child[p] += dur[i]
    totals: dict = {}
    for i in range(n):
        t = totals.get(tr.names[i])
        if t is None:
            t = totals[tr.names[i]] = dict(EMPTY)
        t["calls"] += 1
        t["s"] += dur[i]
        t["self_s"] += dur[i] - child[i]
        if tr.attrs[i] is not None:
            t["work"] += tr.attrs[i]
    return totals


def enclosed_work(tr: Trace, outer: str) -> dict:
    """Per span name: calls and work recorded inside spans named ``outer``."""
    inside = [False] * len(tr)
    out: dict = {}
    for i in range(len(tr)):
        p = tr.parents[i]
        inside[i] = tr.names[i] == outer or (p >= 0 and inside[p])
        if inside[i] and tr.names[i] != outer:
            t = out.setdefault(tr.names[i], {"calls": 0, "work": 0})
            t["calls"] += 1
            t["work"] += tr.attrs[i] or 0
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Trace) -> dict:
    """Per-layer metrics of one traced pass, by metric name (values only);
    latency percentiles come from `latency_metrics`."""
    tot = span_totals(tr)
    m = {metric: tot.get(span, EMPTY)[total]
         for metric, (span, total) in SPAN_METRICS.items()}
    m["cli.output.s"] = sum(tot.get(span, EMPTY)["s"] for span in OUTPUT_SPANS)
    in_fr = enclosed_work(tr, "section.first_return").get
    in_vg = enclosed_work(tr, "section.verify_global").get
    m["section.field_points_per_return"] = ratio(
        in_fr("phase.field", EMPTY)["work"], m["section.first_return.calls"])
    m["section.integrate_calls_per_return"] = ratio(
        in_fr("phase.integrate", EMPTY)["calls"], m["section.first_return.calls"])
    m["section.field_points_per_sample"] = ratio(
        in_vg("phase.field", EMPTY)["work"], m["section.verify_global.samples"])
    return m


# latency metrics: (span name, percentile, metric name, scale to its unit)
LATENCIES = (("phase.field", 50, "phase.field.p50_us", 1e6),
             ("phase.field", 99, "phase.field.p99_us", 1e6),
             ("section.first_return", 50, "section.first_return.p50_ms", 1e3),
             ("section.first_return", 90, "section.first_return.p90_ms", 1e3))


def latency_metrics(traces: list) -> dict:
    """Per-call latency percentiles over the spans of all given passes.

    Pooling the passes of a run keeps at least ten samples beyond p90 when a
    single pass makes fewer than a hundred returns.
    """
    durations: dict = {span: [] for span, _q, _m, _s in LATENCIES}
    for tr in traces:
        for name, start, end in zip(tr.names, tr.starts, tr.ends):
            if name in durations:
                durations[name].append(end - start)
    return {metric: scale * percentile(durations[span], q)
            for span, q, metric, scale in LATENCIES}


def layers_seen(tr: Trace) -> set:
    return {name.split(".", 1)[0] for name in set(tr.names)}


def self_time_summary(tr: Trace) -> dict:
    """Self seconds per layer, and the span names with the most self time."""
    tot = span_totals(tr)
    layers: dict = {}
    for name, t in tot.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + t["self_s"]
    ranked = sorted(tot, key=lambda name: tot[name]["self_s"], reverse=True)
    return {"layer_self_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
            "top_self_s": {name: tot[name]["self_s"] for name in ranked[:5]}}
