"""Spans around the calls into each rdsi layer, recorded from outside.

The traced pass replaces module attributes with wrappers for its duration,
so the package itself is not edited.  A hook whose module or attribute no
longer exists is skipped and counted in ``trace.hooks_missing``; its
metrics then read 0.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter
from contextlib import contextmanager

def _inner_status(tracer, args, result):
    tracer.counts["inner." + str(getattr(result, "status", "unknown"))] += 1


def _rate_point(tracer, args, result):
    tracer.counts["iterations"] += int(getattr(result, "iterations", 0) or 0)
    gap = float(getattr(result, "gap", 0.0) or 0.0)
    if math.isfinite(gap):
        tracer.gap_max = max(tracer.gap_max, gap)


def _codebook(tracer, args, result):
    vectors = getattr(result, "vectors", None)
    if vectors is not None:
        tracer.codebook_bytes = max(tracer.codebook_bytes, vectors.nbytes)


def _encode_bytes(tracer, args, result):
    # encode(x, codebook, cfg) reads the whole codebook once
    vectors = getattr(args[1], "vectors", None) if len(args) > 1 else None
    if vectors is not None:
        tracer.counts["encode_bytes"] += vectors.nbytes


# (module, attribute, span name, callback on the result)
HOOKS = (
    ("rdsi.cli", "main", "cli.main", None),
    ("rdsi.cli", "solve_rate", "solver.solve_rate", _rate_point),
    ("rdsi.solver", "solve_rate", "solver.solve_rate", _rate_point),
    ("rdsi.cli", "tradeoff_sweep", "solver.tradeoff_sweep", None),
    ("rdsi.cli", "r_wz", "solver.r_wz", None),
    ("rdsi.cli", "r_cr", "solver.r_cr", None),
    ("rdsi.solver", "scan_candidates", "solver.scan_candidates", None),
    ("rdsi.solver", "solve_constrained", "solver.solve_constrained", _inner_status),
    ("rdsi.solver", "linprog", "solver.lp", None),
    ("rdsi.solver", "minimize", "solver.slsqp", None),
    ("rdsi.solver", "minimize_scalar", "solver.line_search", None),
    ("rdsi.cli", "solve_rate_ext", "extended.solve_rate_ext", _rate_point),
    ("rdsi.extended", "scan_candidates", "extended.scan_candidates", None),
    ("rdsi.cli", "reduce_aux_u", "caratheodory.reduce_aux_u", None),
    ("rdsi.extended", "reduce_aux_u", "caratheodory.reduce_aux_u", None),
    ("rdsi.caratheodory", "linprog", "caratheodory.lp", None),
    ("rdsi.cli", "classify_case", "gaussian", None),
    ("rdsi.cli", "r_gaussian", "gaussian", None),
    ("rdsi.cli", "r_wz_gaussian", "gaussian", None),
    ("rdsi.cli", "r_cr_gaussian", "gaussian", None),
    ("rdsi.cli", "scheme_params", "gaussian", None),
    ("rdsi.cli", "run_simulation", "sphere.run_simulation", None),
    ("rdsi.sphere", "build_codebook", "sphere.build_codebook", _codebook),
    ("rdsi.sphere", "encode", "sphere.encode", _encode_bytes),
    ("rdsi.sphere", "decode", "sphere.decode", None),
)

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "cli.main.self_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.solve_rate.calls": ("count", "lower"),
    "solver.solve_rate.self_s": ("s", "lower"),
    "solver.scan_candidates.self_s": ("s", "lower"),
    "solver.solve_constrained.calls": ("count", "lower"),
    "solver.solve_constrained.s": ("s", "lower"),
    "solver.solve_constrained.self_s": ("s", "lower"),
    "solver.inner.optimal": ("count", "lower"),
    "solver.inner.pruned": ("count", "lower"),
    "solver.inner.infeasible": ("count", "lower"),
    "solver.inner.max_iterations": ("count", "lower"),
    "solver.inner.useful_frac": ("frac", "higher"),
    "solver.lp.calls": ("count", "lower"),
    "solver.lp.s": ("s", "lower"),
    "solver.slsqp.calls": ("count", "lower"),
    "solver.slsqp.s": ("s", "lower"),
    "solver.line_search.calls": ("count", "lower"),
    "solver.line_search.s": ("s", "lower"),
    "solver.tradeoff_sweep.s": ("s", "lower"),
    "solver.r_wz.s": ("s", "lower"),
    "solver.r_cr.s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.gap_max_bits": ("bits", "lower"),
    "extended.self_s": ("s", "lower"),
    "extended.solve_rate_ext.self_s": ("s", "lower"),
    "extended.scan_candidates.s": ("s", "lower"),
    "caratheodory.self_s": ("s", "lower"),
    "caratheodory.reduce_aux_u.s": ("s", "lower"),
    "caratheodory.lp.calls": ("count", "lower"),
    "caratheodory.lp.s": ("s", "lower"),
    "gaussian.calls": ("count", "lower"),
    "gaussian.s": ("s", "lower"),
    "sphere.self_s": ("s", "lower"),
    "sphere.build_codebook.s": ("s", "lower"),
    "sphere.codebook_mb": ("MB", "lower"),
    "sphere.encode.calls": ("count", "lower"),
    "sphere.encode.s": ("s", "lower"),
    "sphere.encode.gbps_computed": ("GB/s", "higher"),
    "sphere.decode.calls": ("count", "lower"),
    "sphere.decode.s": ("s", "lower"),
    "sphere.trial_loop.self_s": ("s", "lower"),
    "ops.count": ("count", "lower"),
    "ops.unsolved_frac": ("frac", "lower"),
    "ops.p50_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.hooks_missing": ("count", "lower"),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, op name]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self.counts = Counter()
        self.gap_max = 0.0
        self.codebook_bytes = 0
        self.missing = []

    def wrap(self, name, fn, on_result):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every hook that still exists; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, on_result in HOOKS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, on_result))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def span_table(self):
        """Per span: name, duration, and duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [
            (s[0], s[2] - s[1], s[2] - s[1] - child_time[i], s[3])
            for i, s in enumerate(self.spans)
        ]

    def layer_metrics(self, traced_wall_s: float, untraced_wall_s: float, out_bytes: int) -> dict:
        """Every PER_LAYER metric except the ops.* ones, which run.py adds."""
        table = self.span_table()
        calls, total, own = Counter(), Counter(), Counter()
        for i, (name, dur, self_s, parent) in enumerate(table):
            calls[name] += 1
            own[name] += self_s
            # inclusive time counts the outermost span of a name only
            p = parent
            while p is not None and table[p][0] != name:
                p = table[p][3]
            if p is None:
                total[name] += dur
        layer_self = Counter()
        for name, value in own.items():
            layer_self[name.split(".")[0]] += value
        encode_s = total["sphere.encode"]
        n_calls = calls["solver.solve_constrained"]
        m = {
            "cli.main.self_s": own["cli.main"],
            "cli.out_bytes": out_bytes,
            "solver.self_s": layer_self["solver"],
            "solver.solve_rate.calls": calls["solver.solve_rate"],
            "solver.solve_rate.self_s": own["solver.solve_rate"],
            "solver.scan_candidates.self_s": own["solver.scan_candidates"],
            "solver.solve_constrained.calls": n_calls,
            "solver.solve_constrained.s": total["solver.solve_constrained"],
            "solver.solve_constrained.self_s": own["solver.solve_constrained"],
            "solver.inner.useful_frac": self.counts["inner.optimal"] / n_calls if n_calls else 0.0,
            "solver.tradeoff_sweep.s": total["solver.tradeoff_sweep"],
            "solver.r_wz.s": total["solver.r_wz"],
            "solver.r_cr.s": total["solver.r_cr"],
            "solver.iterations": self.counts["iterations"],
            "solver.gap_max_bits": self.gap_max,
            "extended.self_s": layer_self["extended"],
            "extended.solve_rate_ext.self_s": own["extended.solve_rate_ext"],
            "extended.scan_candidates.s": total["extended.scan_candidates"],
            "caratheodory.self_s": layer_self["caratheodory"],
            "caratheodory.reduce_aux_u.s": total["caratheodory.reduce_aux_u"],
            "gaussian.calls": calls["gaussian"],
            "gaussian.s": total["gaussian"],
            "sphere.self_s": layer_self["sphere"],
            "sphere.build_codebook.s": total["sphere.build_codebook"],
            "sphere.codebook_mb": self.codebook_bytes / 1e6,
            "sphere.encode.gbps_computed": (
                self.counts["encode_bytes"] / encode_s / 1e9 if encode_s > 0 else 0.0
            ),
            "sphere.trial_loop.self_s": own["sphere.run_simulation"],
            "trace.wall_s": traced_wall_s,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
            "trace.unattributed_s": traced_wall_s - sum(layer_self.values()),
            "trace.hooks_missing": len(self.missing),
        }
        for status in ("optimal", "pruned", "infeasible", "max_iterations"):
            m[f"solver.inner.{status}"] = self.counts[f"inner.{status}"]
        for name in ("solver.lp", "solver.slsqp", "solver.line_search", "caratheodory.lp",
                     "sphere.encode", "sphere.decode"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = total[name]
        return m

    def dump(self) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "hooks_missing": self.missing,
        }
