"""Span and counter tracing installed from outside the coslaw package.

Layers are traced by rebinding the module-level names that coslaw looks up
at call time (a function imported with ``from .x import f`` is rebound in
every coslaw module that holds it) and by wrapping class methods with
plain call counters.  Spans (name, start, end, parent, raised) are kept in
memory; ``Tracer.dump`` writes them out when the benchmark ends.

A layer whose name no longer exists in coslaw is skipped: it records no
spans or counts, and the benchmark reports it as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (span name, defining module, attribute, rebind in every coslaw module that
# binds the same function object).  Order matters: the solver's own
# `residual` binding becomes the re-verification span before the generic
# residual wrapper is applied to the remaining bindings.
SPAN_LAYERS = (
    ("solver.find_solutions", "coslaw.solver", "find_solutions", False),
    ("solver.gauss_newton", "coslaw.solver", "_gauss_newton", False),
    ("solver.dedup", "coslaw.solver", "_dedup", False),
    ("solver.seeds", "coslaw.solver", "_family_seeds", False),
    ("solver.reverify", "coslaw.solver", "residual", False),
    ("analysis.classify", "coslaw.analysis", "classify", True),
    ("analysis.residual", "coslaw.analysis", "residual", True),
    ("families.construct", "coslaw.families", "construct", True),
    ("families.build_h", "coslaw.families", "build_h", True),
    ("functions.enumerate_multiplicative", "coslaw.functions", "enumerate_multiplicative", True),
    ("functions.null_sets", "coslaw.functions", "null_sets", True),
    ("fixtures.get_fixture", "coslaw.fixtures", "get_fixture", True),
    ("cli.main", "coslaw.cli", "main", False),
    ("serialize.save_pair", "coslaw.serialize", "save_pair", True),
)

# (counter, module, class, methods, counts rows of the first argument)
COUNTED_METHODS = (
    ("solver.res_rows", "coslaw.solver", "_System", ("res",), True),
    ("solver.jac_rows", "coslaw.solver", "_System", ("jac",), True),
    ("exactnum.ops", "coslaw.exactnum", "Cyc", (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__"), False),
    ("exactnum.ops", "coslaw.exactnum", "ExpPoly", (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__"), False),
    ("semigroups.compose_calls", "coslaw.semigroups", "FiniteSemigroup", ("compose",), False),
    ("semigroups.compose_calls", "coslaw.semigroups", "ProceduralSemigroup", ("compose",), False),
)


class Tracer:
    """Installs wrappers, records spans and counts, and undoes its patches."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, raised]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.sums: dict[str, float] = {}
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, False])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[4] = raised
        self.stack.pop()

    def _span_wrapper(self, name: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            if observe is not None:
                observe(tracer, args, out)
            return out

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, modname, attr, everywhere in SPAN_LAYERS:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr, None)
            if original is None:
                continue  # reported as absent: the layer records no spans
            wrapper = self._span_wrapper(name, original, _OBSERVERS.get(name))
            targets = [mod]
            if everywhere:
                targets = [
                    m for key, m in list(sys.modules.items())
                    if (key == "coslaw" or key.startswith("coslaw.")) and m is not None
                ]
            for m in targets:
                if getattr(m, attr, None) is original:
                    self._patch(m, attr, wrapper)
        for counter, modname, clsname, methods, rows in COUNTED_METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            if cls is None:
                continue
            self.counts.setdefault(counter, 0)
            for meth in methods:
                original = cls.__dict__.get(meth)
                if original is not None:
                    self._patch(cls, meth, _counting(self.counts, counter, original, rows))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.sums.clear()
        for key in self.counts:
            self.counts[key] = 0

    def self_times(self) -> dict[str, float]:
        """Per-name total of span duration minus the time of direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def total_times(self) -> dict[str, float]:
        """Per-name total of span duration, children included."""
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + end - start
        return out

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.spans:
            out[rec[0]] = out.get(rec[0], 0) + 1
        return out

    def dump(self, path, meta: dict) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        payload = {
            "meta": meta,
            "fields": ["name", "start_s", "end_s", "parent", "raised"],
            "spans": [
                [n, round(s - base, 7), round(e - base, 7), p, r]
                for n, s, e, p, r in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def _counting(counts: dict, key: str, fn, rows: bool):
    if rows:
        def counted(self, vals, *args, **kwargs):
            counts[key] += len(vals)
            return fn(self, vals, *args, **kwargs)
    else:
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
    return functools.wraps(fn)(counted)


def _add(tracer: Tracer, key: str, value: float) -> None:
    tracer.sums[key] = tracer.sums.get(key, 0) + value


def _observe_gauss_newton(tracer, args, out):
    _add(tracer, "solver.starts", len(args[1]))
    _add(tracer, "solver.converged", len(out))


def _observe_dedup(tracer, args, out):
    _add(tracer, "solver.kept", len(out))


def _observe_classify(tracer, args, out):
    _add(tracer, "analysis.classify_hits", bool(out.classified))


def _observe_residual(tracer, args, out):
    _add(tracer, "analysis.residual_pairs", out.pair_count)
    _add(tracer, "analysis.residual_exact", out.mode == "exact")


def _observe_save_pair(tracer, args, out):
    _add(tracer, "serialize.bytes", os.path.getsize(args[0]))


_OBSERVERS = {
    "serialize.save_pair": _observe_save_pair,
    "solver.gauss_newton": _observe_gauss_newton,
    "solver.dedup": _observe_dedup,
    "analysis.classify": _observe_classify,
    "analysis.residual": _observe_residual,
}
