"""Spans around calls into syzkit's public entry points, recorded from outside.

A Tracer patches each wrapped function in every syzkit module namespace that
binds it (and each wrapped method on its class), records one span per call
(name, start, end, parent span, op id, extra counters) in memory, and
restores the originals on exit.  Per-layer metrics and the top-span checks
are derived from the spans afterwards.
"""

import json
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute, extra) for module-level functions.
FUNCTIONS = (
    ("schemes.points_ideal", "syzkit.schemes", "points_ideal", None),
    ("schemes.restrict_to_curve", "syzkit.schemes", "restrict_to_curve", None),
    ("groebner.buchberger", "syzkit.groebner", "buchberger",
     lambda args, out: {"basis_out": len(out)}),
    ("groebner.syzygies", "syzkit.groebner", "syzygies", None),
    ("groebner.minimal_free_resolution", "syzkit.groebner",
     "minimal_free_resolution", None),
    ("polyring.span_dim", "syzkit.polyring", "span_dim", None),
    ("resolver.check_generation", "syzkit.resolver", "check_generation",
     lambda args, out: {"degrees": len(out.table)}),
    ("resolver.stage_kernel_generators", "syzkit.resolver",
     "stage_kernel_generators", None),
    ("resolver.build_chain", "syzkit.resolver", "build_chain", None),
    ("resolver.genericity_experiment", "syzkit.resolver",
     "genericity_experiment", None),
    ("modtools.certify_locally_free", "syzkit.modtools",
     "certify_locally_free", None),
    ("modtools.poly_det", "syzkit.modtools", "poly_det", None),
    ("chow.ch_ideal_sheaf", "syzkit.chow", "ch_ideal_sheaf", None),
    ("chow.c_from_ch", "syzkit.chow", "c_from_ch", None),
    ("chow.ch_from_c", "syzkit.chow", "ch_from_c", None),
    ("chow.chern_of_twist", "syzkit.chow", "chern_of_twist", None),
    ("curves.restriction_bookkeeping", "syzkit.curves",
     "restriction_bookkeeping", None),
    ("cli.main", "syzkit.cli", "main", None),
)

CHOW_SPANS = ("chow.ch_ideal_sheaf", "chow.c_from_ch", "chow.ch_from_c",
              "chow.chern_of_twist")


def _field_tag(matrix):
    return "fp" if type(matrix.field).__name__ == "PrimeField" else "qq"


def _shape(args, out):
    m = args[0]
    return {"rows": m.nrows, "cols": m.ncols, "cells": m.nrows * m.ncols}


def _kernel_shape(args, out):
    extra = _shape(args, out)
    extra["vectors"] = len(out[1])
    return extra


# (span name or prefix, module, class, method, per-field?, extra)
METHODS = (
    ("groebner.Ideal.intersect", "syzkit.groebner", "Ideal", "intersect",
     False, None),
    ("groebner.Ideal.saturate", "syzkit.groebner", "Ideal", "saturate",
     False, None),
    ("groebner.Ideal.quotient", "syzkit.groebner", "Ideal", "quotient",
     False, None),
    ("groebner.Ideal.contains", "syzkit.groebner", "Ideal", "contains",
     False, None),
    ("schemes.SubschemeData", "syzkit.schemes", "SubschemeData", "__init__",
     False, None),
    ("linalg.rank", "syzkit.linalg", "Matrix", "rank", True, _shape),
    ("linalg.kernel", "syzkit.linalg", "Matrix", "rank_and_kernel", True,
     _kernel_shape),
)


SPAN_NAMES = {f[0] for f in FUNCTIONS} | {m[0] for m in METHODS}


class Tracer:
    """In-memory span recorder; use as a context manager around traced ops."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, op, extra]
        self._stack = []
        self._restore = []
        self.op = None

    def _wrap(self, name, fn, per_field=False, extra=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = f"{name}.{_field_tag(args[0])}" if per_field else name
            rec = [label, perf_counter(), None,
                   stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, out)
            return out

        return wrapper

    def __enter__(self):
        mods = [m for k, m in list(sys.modules.items())
                if k == "syzkit" or k.startswith("syzkit.")]
        for name, modname, attr, extra in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig, extra=extra)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for name, modname, cls, meth, per_field, extra in METHODS:
            klass = getattr(sys.modules[modname], cls)
            orig = klass.__dict__[meth]
            self._restore.append((klass, meth, orig))
            setattr(klass, meth, self._wrap(name, orig, per_field, extra))
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        return False


def write_trace(path, spans_by_pass):
    """Spans as JSON lines (parent indices count within their pass), then
    one line with the matrix-shape histogram."""
    with open(path, "w") as fh:
        for p, spans in enumerate(spans_by_pass):
            for i, (name, start, end, parent, op, extra) in enumerate(spans):
                fh.write(json.dumps({"pass": p, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "extra": extra}) + "\n")
        hist = shape_histogram([s for spans in spans_by_pass for s in spans])
        fh.write(json.dumps({"matrix_histogram": hist}) + "\n")


def shape_histogram(spans):
    """Calls and seconds per (operation, rows, cols) of the Matrix spans."""
    hist = defaultdict(lambda: [0, 0.0])
    for name, start, end, _, _, extra in spans:
        if name.startswith("linalg."):
            key = f"{name} {extra['rows']}x{extra['cols']}"
            hist[key][0] += 1
            hist[key][1] += end - start
    return {k: {"calls": c, "s": s} for k, (c, s) in sorted(hist.items())}


# -- derived metrics -----------------------------------------------------------


def span_tables(spans):
    """Per-name inclusive time (outermost spans of that name only), self
    time (duration minus direct children) and call count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    incl = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_s[name] += dur - child_time[i]
        if not _has_ancestor(spans, parent, (name,)):
            incl[name] += dur
    return incl, self_s, calls


def _has_ancestor(spans, parent, names):
    while parent is not None:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, kept, attempts, names):
    """The named per-layer metrics of one pass.  A name is a span name with
    the suffix .s (inclusive time), .self_s, .calls or an extra counter."""
    incl, self_s, calls = span_tables(spans)
    tables = {"s": incl, "self_s": self_s, "calls": calls}
    sums = defaultdict(int)
    for name, _, _, _, _, extra in spans:
        for key, val in (extra or {}).items():
            sums[f"{name}.{key}"] += val
    special = {
        "chow.s": sum(end - start for name, start, end, parent, _, _ in spans
                      if name in CHOW_SPANS
                      and not _has_ancestor(spans, parent, CHOW_SPANS)),
        "resolver.stage_attempts": attempts,
        "resolver.stage_accept_ratio": kept / attempts if attempts else 0.0,
    }
    out = {}
    for name in names:
        prefix, _, suffix = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif prefix.removesuffix(".qq").removesuffix(".fp") in SPAN_NAMES:
            out[name] = tables[suffix][prefix] if suffix in tables \
                else sums[name]
        else:
            raise ValueError(f"no span gives the metric {name}")
    return out


def _child_ranking(spans, parent_name):
    """Names of the spans directly under parent_name spans, by total time."""
    totals = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent is not None and spans[parent][0] == parent_name:
            totals[name] += end - start
    return sorted(totals.items(), key=lambda kv: -kv[1])


def _fmt(ranking, k=5):
    return ", ".join(f"{n} {s:.3f}s" for n, s in ranking[:k])


def top_span_checks(workload, spans, pass_wall):
    """The cProfile predictions for this workload, as (claim, ok, detail)."""
    incl, self_s, _ = span_tables(spans)
    if workload == "module-p2":
        ranking = sorted(self_s.items(), key=lambda kv: -kv[1])
        under = sum(end - start for name, start, end, parent, _, _ in spans
                    if name == "linalg.kernel.qq" and _has_ancestor(
                        spans, parent, ("resolver.stage_kernel_generators",)))
        total = incl["linalg.kernel.qq"]
        ok = (bool(ranking) and ranking[0][0] == "linalg.kernel.qq"
              and under > total / 2)
        return [("linalg.kernel.qq has the largest self time, mostly under "
                 "resolver.stage_kernel_generators", ok,
                 f"self-time ranking: {_fmt(ranking)}; kernel.qq under "
                 f"stage_kernel_generators {under:.3f}s of {total:.3f}s")]
    if workload == "genericity-fp":
        share = incl["linalg.rank.fp"] / pass_wall
        return [("linalg.rank.fp covers more than 80% of the run",
                 share > 0.8, f"linalg.rank.fp {share:.1%} of the pass")]
    if workload == "points-p2":
        ranking = _child_ranking(spans, "cli.main")
        ok = bool(ranking) and ranking[0][0] == "schemes.points_ideal"
        return [("schemes.points_ideal is the largest span under cli.main",
                 ok, f"ranking: {_fmt(ranking)}")]
    if workload == "builtins-numeric":
        ranking = _child_ranking(spans, "resolver.build_chain")
        ok = bool(ranking) and ranking[0][0] == "resolver.check_generation"
        return [("resolver.check_generation is the largest child of "
                 "resolver.build_chain", ok, f"ranking: {_fmt(ranking)}")]
    return []
