"""Per-layer tracing of the bonnesen package from outside.

The tracer wraps the public function at each layer boundary and replaces
it in every ``bonnesen`` module that holds a reference to it. Modules bind
some names at import time (``verification`` and ``schur_certifier`` import
``sample_simplex_batch`` by name, ``inequality_catalog`` imports
``measure_arrays`` by name), so patching only the defining module would
miss those calls. Callers that look a name up through a module attribute
or through module globals see the replacement as well.

Spans are folded into flat counters as they close, so memory stays
constant however many calls a workload makes:

* ``<layer>.calls``, ``<layer>.busy_ns`` and ``<layer>.self_ns``, where
  self time is the span minus the time covered by its child spans;
* ``<layer>.rows`` for layers that take a batch of rows, plus per-width
  buckets ``<layer>.<w1|w2_64|w65_up>.{calls,busy_ns,rows}``;
* ``<ancestor>><layer>.{calls,rows}`` for every layer span opened inside
  an ancestor span, such as the rows ``falsify`` evaluated;
* layer-specific quantities read off arguments and results, such as
  ``extremal_search.minimize_slack.starts``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable


@dataclass(frozen=True)
class Layer:
    rows: Callable | None = None  # result -> rows processed
    buckets: bool = False  # split calls by batch width
    extra: Callable | None = None  # (bound arguments, result) -> {quantity: value}


LAYERS = {
    "polygon_core.sample_simplex_batch": Layer(rows=len),
    "polygon_core.measure_arrays": Layer(),
    "inequality_catalog.evaluate_batch": Layer(
        rows=lambda out: len(out["slack"]), buckets=True),
    "inequality_catalog.evaluate_exact": Layer(),
    "highprec.measure_exact": Layer(),
    "extremal_search.minimize_slack": Layer(
        extra=lambda args, res: {"starts": res.starts, "converged": int(res.converged)}),
    "extremal_search.falsify": Layer(
        extra=lambda args, res: {"budget": args["budget_evals"]}),
    "extremal_search.grid_scan": Layer(),
    "schur_certifier.certify": Layer(
        extra=lambda args, res: {"samples": res.samples_checked}),
    "verification.verify_sweep": Layer(
        extra=lambda args, res: {"confirmed": res[1] if args["high_precision"] else 0}),
    "verification.certification_grid": Layer(),
    "reporting.determinism_hash": Layer(),
    "reporting.render_json": Layer(),
    "cli.main": Layer(),
}


def _bucket(rows: int) -> str:
    if rows == 1:
        return "w1"
    return "w2_64" if rows <= 64 else "w65_up"


class Tracer:
    """Counters fed by wrapped layer functions; see the module docstring."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.bindings: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [layer name, child ns]

    def install(self) -> None:
        """Replace every ``bonnesen`` binding of each layer function."""
        modules = [m for name, m in sys.modules.items()
                   if name == "bonnesen" or name.startswith("bonnesen.")]
        for name, layer in LAYERS.items():
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module("bonnesen." + mod_name), fn_name)
            wrapped = self._wrap(name, original, layer)
            replaced = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        replaced += 1
            self.bindings[name] = replaced

    def _wrap(self, name: str, fn: Callable, layer: Layer) -> Callable:
        counts, stack = self.counts, self._stack
        k_calls, k_busy, k_self, k_rows = (
            f"{name}.calls", f"{name}.busy_ns", f"{name}.self_ns", f"{name}.rows")
        signature = inspect.signature(fn) if layer.extra else None
        # Keys built once, not per call: this wrapper runs ~10^5 times a pass.
        nested = {a: (f"{a}>{name}.calls", f"{a}>{name}.rows") for a in LAYERS}
        buckets = {b: (f"{name}.{b}.calls", f"{name}.{b}.busy_ns", f"{name}.{b}.rows")
                   for b in ("w1", "w2_64", "w65_up")}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                counts[k_calls] += 1
                counts[k_busy] += dt
                counts[k_self] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                for ancestor, _ in stack:
                    counts[nested[ancestor][0]] += 1
            if layer.rows is not None:
                rows = layer.rows(result)
                counts[k_rows] += rows
                for ancestor, _ in stack:
                    counts[nested[ancestor][1]] += rows
                if layer.buckets:
                    b_calls, b_busy, b_rows = buckets[_bucket(rows)]
                    counts[b_calls] += 1
                    counts[b_busy] += dt
                    counts[b_rows] += rows
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in layer.extra(bound.arguments, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced


def _ratio(num, den) -> float:
    """num / den, or 0.0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def layer_metrics(c) -> dict:
    """Per-layer metrics, named ``<module>.<function>.<quantity>``, from counters.

    A layer that a workload does not reach reads 0.
    """
    c = defaultdict(int, c)
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls(layer):
        put(f"{layer}.calls", c[f"{layer}.calls"], "count")

    def busy(layer):
        put(f"{layer}.busy_s", c[f"{layer}.busy_ns"] / 1e9, "s")

    def self_time(layer):
        put(f"{layer}.self_s", c[f"{layer}.self_ns"] / 1e9, "s")

    layer = "polygon_core.sample_simplex_batch"
    calls(layer)
    put(f"{layer}.rows", c[f"{layer}.rows"], "count")
    busy(layer)

    layer = "polygon_core.measure_arrays"
    calls(layer)
    busy(layer)

    layer = "inequality_catalog.evaluate_batch"
    calls(layer)
    put(f"{layer}.rows", c[f"{layer}.rows"], "count")
    busy(layer)
    self_time(layer)
    for b in ("w1", "w2_64"):
        put(f"{layer}.{b}.us_per_call",
            _ratio(c[f"{layer}.{b}.busy_ns"] / 1e3, c[f"{layer}.{b}.calls"]), "us")
    put(f"{layer}.w65_up.ns_per_row",
        _ratio(c[f"{layer}.w65_up.busy_ns"], c[f"{layer}.w65_up.rows"]), "ns")

    layer = "inequality_catalog.evaluate_exact"
    calls(layer)
    busy(layer)
    self_time(layer)

    layer = "highprec.measure_exact"
    calls(layer)
    busy(layer)

    layer = "extremal_search.minimize_slack"
    calls(layer)
    busy(layer)
    self_time(layer)
    put(f"{layer}.starts", c[f"{layer}.starts"], "count")
    put(f"{layer}.converged_ratio",
        _ratio(c[f"{layer}.converged"], c[f"{layer}.calls"]), "ratio")

    layer = "extremal_search.falsify"
    calls(layer)
    busy(layer)
    self_time(layer)
    put(f"{layer}.evals_per_budget",
        _ratio(c[f"{layer}>inequality_catalog.evaluate_batch.rows"], c[f"{layer}.budget"]),
        "ratio")

    layer = "extremal_search.grid_scan"
    calls(layer)
    busy(layer)
    self_time(layer)
    put(f"{layer}.points_per_s",
        _ratio(c[f"{layer}>inequality_catalog.evaluate_batch.rows"],
               c[f"{layer}.busy_ns"] / 1e9), "points/s")

    layer = "schur_certifier.certify"
    calls(layer)
    put(f"{layer}.samples", c[f"{layer}.samples"], "count")
    busy(layer)
    self_time(layer)

    for layer in ("verification.verify_sweep", "verification.certification_grid"):
        busy(layer)
        self_time(layer)
    layer = "verification.verify_sweep"
    put(f"{layer}.confirmed_ratio",
        _ratio(c[f"{layer}.confirmed"], c[f"{layer}>inequality_catalog.evaluate_exact.calls"]),
        "ratio")

    for layer in ("reporting.determinism_hash", "reporting.render_json", "cli.main"):
        busy(layer)
    return out
