"""Span tracing of motkit's layers from outside the package.

The tracer rebinds public functions in the namespaces of the modules that
call them (``motkit.cli.solve_sweep``, ``motkit.mot1d.convex_order_check``,
``motkit.lp.simplex_solve``, ...) with wrappers that record a span: name,
start, end, parent span and job id. Spans stay in memory until the run ends.
A layer's self time is its spans' duration minus the time covered by their
direct child spans; counts are attached to the span that did the work.
Nothing in ``src/`` is edited, and uninstalling restores every binding.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

import numpy as np


def _order_check_counts(args, kwargs, result):
    mu, nu = args[0], args[1]
    strikes = len(np.union1d(mu.positions, nu.positions))
    # call_function builds a strikes x atoms float64 matrix per marginal
    return {"call_matrix_bytes": 8 * strikes * (len(mu) + len(nu))}


def _sweep_counts(args, kwargs, result):
    return {"rows": len(args[0]), "entries": len(result[0])}


def _simplex_counts(args, kwargs, result):
    m, n = np.shape(args[0])
    status, _, iterations, _ = result
    return {"pivots": iterations, "infeasible": int(status == "infeasible"),
            "tableau_bytes": 8 * (m + 2) * (n + m + 1)}


def _forbidden_counts(args, kwargs, result):
    return {"found": len(result)}


# (module, attribute, span name, counter). A function is wrapped in every
# module that calls it by its bare name; lp.solve_lp is reached through the
# module object by both cli and radial.
PATCHES = [
    ("cli", "load_marginal_pair", "cli.load", None),
    ("cli", "load_radial_pair", "cli.load", None),
    ("cli", "read_coupling_json", "cli.load", None),
    ("cli", "_emit", "cli.write", None),
    ("cli", "write_coupling_json", "cli.write", None),
    ("cli", "write_maps_csv", "cli.write", None),
    ("measures", "quantize", "measures.quantize", None),
    ("radial", "quantize", "measures.quantize", None),
    ("cli", "common_mass_split", "measures.split", None),
    ("radial", "common_mass_split", "measures.split", None),
    ("cli", "convex_order_check", "measures.order_check", _order_check_counts),
    ("mot1d", "convex_order_check", "measures.order_check", _order_check_counts),
    ("radial", "convex_order_check", "measures.order_check", _order_check_counts),
    ("cli", "detect_separation", "mot1d.separation", None),
    ("radial", "detect_separation", "mot1d.separation", None),
    ("cli", "solve_sweep", "mot1d.sweep", _sweep_counts),
    ("radial", "solve_sweep", "mot1d.sweep", _sweep_counts),
    ("cli", "cost", "mot1d.cost", None),
    ("radial", "cost", "mot1d.cost", None),
    ("lp", "solve_lp", "lp.solve", None),
    ("lp", "uniqueness_probe", "lp.probe", None),
    ("lp", "MotLp", "lp.assemble", None),
    ("lp", "simplex_solve", "lp.simplex", _simplex_counts),
    ("cli", "solve_radial", "radial.solve", None),
    ("radial", "induce_1d", "radial.reduce", None),
    ("radial", "induced_atoms", "radial.reduce", None),
    ("radial", "symmetrize_coupling", "radial.symmetrize", None),
    ("cli", "sample_lifted", "radial.sample", None),
    ("cli", "validate_coupling", "verify.validate", None),
    ("cli", "detect_forbidden", "verify.forbidden", _forbidden_counts),
    ("cli", "check_decreasing", "verify.monotone", None),
]

# per-layer metric -> span name whose summed self time it reports
LAYER_TIMES = {
    "cli.load_s": "cli.load",
    "cli.write_s": "cli.write",
    "cli.self_s": "cli.main",
    "measures.quantize_s": "measures.quantize",
    "measures.split_s": "measures.split",
    "measures.order_check_s": "measures.order_check",
    "mot1d.separation_s": "mot1d.separation",
    "mot1d.sweep_self_s": "mot1d.sweep",
    "mot1d.cost_s": "mot1d.cost",
    "lp.assemble_s": "lp.assemble",
    "lp.simplex_s": "lp.simplex",
    "radial.reduce_s": "radial.reduce",
    "radial.solve_self_s": "radial.solve",
    "radial.symmetrize_s": "radial.symmetrize",
    "radial.sample_s": "radial.sample",
    "verify.validate_s": "verify.validate",
    "verify.forbidden_s": "verify.forbidden",
    "verify.monotone_s": "verify.monotone",
}

# per-layer metric -> (span name, count key); "calls" counts the spans
LAYER_COUNTS = {
    "measures.order_check_calls": ("measures.order_check", "calls"),
    "measures.call_matrix_bytes": ("measures.order_check", "call_matrix_bytes"),
    "mot1d.sweep_rows": ("mot1d.sweep", "rows"),
    "mot1d.entries": ("mot1d.sweep", "entries"),
    "lp.pivots": ("lp.simplex", "pivots"),
    "lp.solves": ("lp.simplex", "calls"),
    "lp.infeasible": ("lp.simplex", "infeasible"),
    "lp.tableau_bytes": ("lp.simplex", "tableau_bytes"),
    "verify.forbidden_found": ("verify.forbidden", "found"),
}


class Tracer:
    """Records spans for calls made while installed."""

    def __init__(self, modules: dict):
        """modules maps the short names used in PATCHES to imported modules."""
        self.spans = []                 # [name, start, end, parent, job, counts]
        self.job = None
        self._stack = []
        self._bindings = []             # (module, attribute, original, wrapper)
        wrappers = {}
        for mod_name, attr, span, counter in PATCHES:
            original = getattr(modules[mod_name], attr)
            key = (id(original), span)
            if key not in wrappers:
                wrappers[key] = self._wrap(span, original, counter)
            self._bindings.append((modules[mod_name], attr, original, wrappers[key]))

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, counter=counter, **kwargs)
        return traced

    def call(self, name, fn, *args, counter=None, **kwargs):
        """Run fn inside a span called `name`."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.job, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if counter is not None:
            span[5] = counter(args, kwargs, result)
        return result

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def dump(self, path):
        """Write every span as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "job", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def totals(self, jobs) -> tuple:
        """Summed self time per span name and summed counts per
        (span name, key), over the spans of the given job ids."""
        jobs = set(jobs)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time, counts = {}, {}
        for i, (name, start, end, _, job, extra) in enumerate(self.spans):
            if job not in jobs:
                continue
            self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
            counts[(name, "calls")] = counts.get((name, "calls"), 0) + 1
            for key, value in (extra or {}).items():
                counts[(name, key)] = counts.get((name, key), 0) + value
        return self_time, counts


def layer_metrics(self_time: dict, counts: dict, scale: float = 1.0) -> dict:
    """Every per-layer metric, as value per unit of `scale`; 0 where the
    layer did no work."""
    out = {}
    for metric, span in LAYER_TIMES.items():
        out[metric] = self_time.get(span, 0.0) / scale
    for metric, key in LAYER_COUNTS.items():
        out[metric] = counts.get(key, 0) / scale
    return out
