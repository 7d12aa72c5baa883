"""Per-layer tracing of relfix through its public names.

``Tracer.install`` replaces each traced public function, under every name a
relfix module holds it by, with a wrapper that records a span: its name, the
span that called it, the phase (set-up or pass index), the operation label,
and its start and end.  Spans stay in memory until ``dump``.

The per-pair callbacks run about a million times per pass, so they get plain
counters instead of spans: ``Relation.__call__``, ``WDistance.__call__``,
``SelfMap.apply`` and ``point_distance``.  Relation calls and map calls also
record the distinct pairs and points they saw within one operation, which
gives the re-evaluation ratios.

A traced name that relfix no longer has is reported on stderr and its
metrics read zero, so a refactor that deletes it does not break the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

# span name -> (module, public function)
SPANNED = {
    "cli.main": ("relfix.cli", "main"),
    "spaces.sample_space": ("relfix.spaces", "sample_space"),
    "relations.check_t_closed": ("relfix.relations", "check_t_closed"),
    "relations.check_weak_t_closed": ("relfix.relations", "check_weak_t_closed"),
    "relations.check_complete_on": ("relfix.relations", "check_complete_on"),
    "relations.find_start_points": ("relfix.relations", "find_start_points"),
    "verify.related_pairs": ("relfix.verify", "related_pairs"),
    "verify.estimate_lambda": ("relfix.verify", "estimate_lambda"),
    "verify.compare_classical": ("relfix.verify", "compare_classical"),
    "verify.verify_theorem": ("relfix.verify", "verify_theorem"),
    "engine.iterate": ("relfix.engine", "iterate"),
    "engine.certify_cauchy": ("relfix.engine", "certify_cauchy"),
    "engine.probe_uniqueness": ("relfix.engine", "probe_uniqueness"),
    "wdistance.check_triangle": ("relfix.wdistance", "check_triangle"),
    "wdistance.check_w3": ("relfix.wdistance", "check_w3"),
    "fractional.rl_integral_nodes": ("relfix.fractional", "rl_integral_nodes"),
    "fractional.solution_caputo_residual": ("relfix.fractional", "solution_caputo_residual"),
    "fractional.apply_operator": ("relfix.fractional", "apply_operator"),
    "fractional.solve_fbvp": ("relfix.fractional", "solve_fbvp"),
}

# Spans whose tracemalloc peak is taken in the memory pass.
MEMORY_SPANS = ("wdistance.check_triangle", "fractional.solve_fbvp")

# Spans counted over set-up and the pass together: their work happens in
# set-up on some workloads (sample_space on wdistance_axioms, the weight
# build on fbvp_sweep_warm).
SETUP_INCLUSIVE = ("spaces.sample_space", "fractional.rl_integral_nodes")

# (metric name, unit); BENCHMARK.json lists the same metrics in this order.
LAYER_METRICS = (
    ("cli.main.self_s", "s"),
    ("spaces.sample_space.s", "s"),
    ("spaces.point_distance.calls", "count"),
    ("relations.check_t_closed.s", "s"),
    ("relations.check_weak_t_closed.s", "s"),
    ("relations.check_complete_on.s", "s"),
    ("relations.find_start_points.s", "s"),
    ("relations.relation.calls", "count"),
    ("relations.relation.calls_per_pair", "ratio"),
    ("verify.related_pairs.s", "s"),
    ("verify.estimate_lambda.s", "s"),
    ("verify.compare_classical.s", "s"),
    ("verify.verify_theorem.self_s", "s"),
    ("engine.map.calls", "count"),
    ("engine.map.calls_per_point", "ratio"),
    ("engine.probe_uniqueness.s", "s"),
    ("engine.iterate.self_s", "s"),
    ("engine.picard_steps", "count"),
    ("engine.certify_cauchy.s", "s"),
    ("wdistance.check_triangle.s", "s"),
    ("wdistance.check_triangle.peak_traced_mb", "MB"),
    ("wdistance.check_w3.s", "s"),
    ("wdistance.pair_distance.calls", "count"),
    ("fractional.rl_integral_nodes.first_s", "s"),
    ("fractional.solution_caputo_residual.s", "s"),
    ("fractional.apply_operator.s", "s"),
    ("fractional.apply_operator.calls", "count"),
    ("fractional.solve_fbvp.self_s", "s"),
    ("fractional.solve_fbvp.peak_traced_mb", "MB"),
)

SPAN_FIELDS = ("name", "parent", "phase", "op", "start", "end", "extra")
_NAME, _PARENT, _PHASE, _OP, _START, _END, _EXTRA = range(len(SPAN_FIELDS))
_MB = 1024.0 * 1024.0


def _relfix_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "relfix" or n.startswith("relfix.")]


def _rebind(original, replacement) -> int:
    """Point every relfix module name bound to ``original`` at ``replacement``."""
    bound = 0
    for module in _relfix_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    return bound


class Tracer:
    """Spans and counters for one worker process."""

    def __init__(self, measure_memory: bool = False):
        self.measure_memory = measure_memory
        self.spans: list[list] = []
        self.counters: dict = defaultdict(Counter)  # phase -> counts
        self.missing: list[str] = []
        self.phase = "setup"
        self.op = None
        self._stack: list[int] = []
        self._pairs: set = set()
        self._points: set = set()
        self._first_orders: set = set()

    # -- phases and operations ------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.op = label
        self._pairs.clear()
        self._points.clear()

    def end_op(self) -> None:
        counts = self.counters[self.phase]
        counts["relations.relation.distinct_pairs"] += len(self._pairs)
        counts["engine.map.distinct_points"] += len(self._points)
        self._pairs.clear()
        self._points.clear()
        self.op = None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module_name, _attr in SPANNED.values():
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        from relfix.engine import SelfMap
        from relfix.relations import Relation
        from relfix.spaces import GridFn, ScalarPoint
        from relfix.wdistance import WDistance

        def key(pt):
            if type(pt) is ScalarPoint:
                return pt.value
            if type(pt) is GridFn:
                return (pt.grid.n, hash(pt.values.tobytes()))
            return id(pt)

        for span_name, (module_name, attr) in SPANNED.items():
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            _rebind(original, self._spanned(span_name, original))

        tracer = self

        spaces = sys.modules["relfix.spaces"]
        point_distance = getattr(spaces, "point_distance", None)
        if point_distance is None:
            self.missing.append("relfix.spaces.point_distance")
        else:
            @functools.wraps(point_distance)
            def counted_point_distance(x, y):
                tracer.counters[tracer.phase]["spaces.point_distance.calls"] += 1
                return point_distance(x, y)

            _rebind(point_distance, counted_point_distance)

        relation_call = Relation.__call__
        pairs = self._pairs

        def counted_relation_call(rel, x, y):
            tracer.counters[tracer.phase]["relations.relation.calls"] += 1
            pairs.add((key(x), key(y)))
            return relation_call(rel, x, y)

        Relation.__call__ = counted_relation_call

        wdistance_call = WDistance.__call__

        def counted_wdistance_call(p, x, y):
            tracer.counters[tracer.phase]["wdistance.pair_distance.calls"] += 1
            return wdistance_call(p, x, y)

        WDistance.__call__ = counted_wdistance_call

        selfmap_init = SelfMap.__init__
        points = self._points

        def counting(apply):
            def counted_apply(pt):
                tracer.counters[tracer.phase]["engine.map.calls"] += 1
                points.add(key(pt))
                return apply(pt)

            return counted_apply

        def init(sm, *args, **kwargs):
            if "apply" in kwargs:
                kwargs["apply"] = counting(kwargs["apply"])
            elif len(args) >= 2:
                args = (args[0], counting(args[1])) + args[2:]
            selfmap_init(sm, *args, **kwargs)

        SelfMap.__init__ = init

        for name in self.missing:
            print(f"tracer: relfix has no {name}; its metrics read 0", file=sys.stderr)

    def _spanned(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        memory = self.measure_memory and name in MEMORY_SPANS
        first_orders = self._first_orders if name == "fractional.rl_integral_nodes" else None
        steps = name == "engine.iterate"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = None
            if first_orders is not None:
                beta = kwargs.get("beta", args[1] if len(args) > 1 else None)
                grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
                order = (float(beta), getattr(grid, "n", None))
                if order not in first_orders:
                    first_orders.add(order)
                    extra = {"first": True}
            started_tracing = False
            if memory and not tracemalloc.is_tracing():
                tracemalloc.start()
                started_tracing = True
            rec = [name, stack[-1] if stack else -1, tracer.phase, tracer.op,
                   time.perf_counter(), 0.0, extra]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                stack.pop()
                if started_tracing:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    rec[_EXTRA] = dict(rec[_EXTRA] or {}, peak_mb=peak / _MB)
            if steps:
                tracer.counters[tracer.phase]["engine.picard_steps"] += result.steps
            return result

        return wrapper

    # -- metrics --------------------------------------------------------------

    def metrics(self, phase) -> dict:
        """Every layer metric of one pass.  The SETUP_INCLUSIVE spans also
        count the set-up phase that preceded the pass."""
        spans = self.spans
        child_time = defaultdict(float)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child_time[rec[_PARENT]] += rec[_END] - rec[_START]

        incl = Counter()
        self_time = Counter()
        first = Counter()
        calls = Counter()
        peak = Counter()
        for i, rec in enumerate(spans):
            name = rec[_NAME]
            in_phase = rec[_PHASE] == phase or (
                name in SETUP_INCLUSIVE and rec[_PHASE] == "setup"
            )
            if not in_phase:
                continue
            dur = rec[_END] - rec[_START]
            calls[name] += 1
            self_time[name] += dur - child_time[i]
            if not self._nested_in_same(i):
                incl[name] += dur
            extra = rec[_EXTRA] or {}
            if extra.get("first"):
                first[name] += dur
            if "peak_mb" in extra:
                peak[name] = max(peak[name], extra["peak_mb"])

        counts = self.counters[phase]
        pairs = counts["relations.relation.distinct_pairs"]
        points = counts["engine.map.distinct_points"]
        values = {
            "cli.main.self_s": self_time["cli.main"],
            "spaces.point_distance.calls": counts["spaces.point_distance.calls"],
            "relations.relation.calls": counts["relations.relation.calls"],
            "relations.relation.calls_per_pair":
                counts["relations.relation.calls"] / pairs if pairs else 0.0,
            "verify.verify_theorem.self_s": self_time["verify.verify_theorem"],
            "engine.map.calls": counts["engine.map.calls"],
            "engine.map.calls_per_point":
                counts["engine.map.calls"] / points if points else 0.0,
            "engine.iterate.self_s": self_time["engine.iterate"],
            "engine.picard_steps": counts["engine.picard_steps"],
            "wdistance.check_triangle.peak_traced_mb": peak["wdistance.check_triangle"],
            "wdistance.pair_distance.calls": counts["wdistance.pair_distance.calls"],
            "fractional.rl_integral_nodes.first_s": first["fractional.rl_integral_nodes"],
            "fractional.apply_operator.calls": calls["fractional.apply_operator"],
            "fractional.solve_fbvp.self_s": self_time["fractional.solve_fbvp"],
            "fractional.solve_fbvp.peak_traced_mb": peak["fractional.solve_fbvp"],
        }
        for name, _unit in LAYER_METRICS:
            if name not in values and name.endswith(".s"):
                values[name] = incl[name[: -len(".s")]]
        return {name: float(values[name]) for name, _unit in LAYER_METRICS}

    def _nested_in_same(self, i: int) -> bool:
        name = self.spans[i][_NAME]
        parent = self.spans[i][_PARENT]
        while parent >= 0:
            if self.spans[parent][_NAME] == name:
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "fields": list(SPAN_FIELDS),
            "clock": "perf_counter seconds, per process",
            "spans": self.spans,
            "counters": {str(k): dict(v) for k, v in self.counters.items()},
            "missing": self.missing,
        }
        path.write_text(json.dumps(record, separators=(",", ":")) + "\n")


def combine(per_pass: list[dict], memory: dict) -> dict:
    """Median of each layer metric over traced passes; the memory metrics
    come from the separate memory pass."""
    out = {}
    for name, _unit in LAYER_METRICS:
        if name.endswith("peak_traced_mb"):
            out[name] = float(memory.get(name, 0.0))
        else:
            out[name] = statistics.median(p[name] for p in per_pass)
        if not math.isfinite(out[name]):
            out[name] = 0.0
    return out
