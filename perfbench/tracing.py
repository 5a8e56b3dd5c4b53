"""Outside-in layer trace of the ``dsblo`` modules, and pass segmentation.

``Instrument.install`` replaces the public functions listed in ``TRACED`` by
timing wrappers wherever a ``dsblo`` module holds a reference to them (for
example both ``dsblo.algorithm.solve_ll_quadratic`` and
``dsblo.diagnostics.solve_ll_quadratic``), so calls between modules are
recorded as well as calls from the benchmark. Each call becomes a span
``[key, start, end, parent, info]`` kept in memory; ``uninstall`` restores
the original functions. ``layer_metrics`` turns the spans into the
per-layer figures, with self time = duration minus the durations of the
direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from typing import Dict, List

import numpy as np

import dsblo.algorithm
import dsblo.diagnostics
import dsblo.experiment
import dsblo.implicit_grad
import dsblo.lower_level
import dsblo.problem


def _arguments(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


_PEC_ARGS = _arguments(dsblo.diagnostics.perturbation_error_check)
_WINDOW_ARGS = _arguments(dsblo.diagnostics.stationarity_window)


def _solve_info(args, kwargs, out):
    return (out.stats.get("pivots", 0), len(out.active_set))


def _iterations(args, kwargs, out):
    return len(out.records)


def _pec_samples(args, kwargs, out):
    return _PEC_ARGS(args, kwargs)["n_samples"]


def _window_samples(args, kwargs, out):
    a = _WINDOW_ARGS(args, kwargs)
    return a["K"] * a["mc_samples"]


# (layer, module, function name, info extractor); the extractor sees the
# call's arguments and its return value.
TRACED = [
    ("problem", dsblo.problem, "generate_instance", None),
    ("problem", dsblo.problem, "fingerprint", None),
    ("lower_level", dsblo.lower_level, "solve_ll_quadratic", _solve_info),
    ("implicit_grad", dsblo.implicit_grad, "implicit_gradient", None),
    ("implicit_grad", dsblo.implicit_grad, "sampled_implicit_gradient", None),
    ("diagnostics", dsblo.diagnostics, "eval_F_exact", None),
    ("diagnostics", dsblo.diagnostics, "perturbation_error_check", _pec_samples),
    ("diagnostics", dsblo.diagnostics, "stationarity_window", _window_samples),
    ("diagnostics", dsblo.diagnostics, "stationarity_profile", None),
    ("diagnostics", dsblo.diagnostics, "build_report", None),
    ("algorithm", dsblo.algorithm, "run_dsblo", _iterations),
    ("algorithm", dsblo.algorithm, "run_igd_baseline", _iterations),
    ("experiment", dsblo.experiment, "run_experiment", None),
    ("experiment", dsblo.experiment, "write_csv", None),
    ("experiment", dsblo.experiment, "write_objective_svg", None),
]

LAYERS = ("problem", "lower_level", "implicit_grad", "diagnostics",
          "algorithm", "experiment")


class Instrument:
    """Wrappers around the ``dsblo`` functions in ``TRACED``.

    The outer-loop entry points (``run_dsblo``, ``run_igd_baseline``) are
    always wrapped: their ``progress`` callback is chained with one that
    appends a timestamp to ``checkpoints`` every iteration, which splits a
    pass into segments that are identical from pass to pass. With tracing
    on, every function in ``TRACED`` records a span.
    """

    ENTRY_POINTS = ("run_dsblo", "run_igd_baseline")

    def __init__(self):
        self.keys = [f"{mod.__name__.split('.')[-1]}.{name}" for _l, mod, name, _x in TRACED]
        self.layer_of = [layer for layer, _m, _n, _x in TRACED]
        self.spans: List[list] = []
        self.checkpoints: List[float] = []
        self.tracing = False
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._wrapped = {}
        for i, (_layer, mod, name, extract) in enumerate(TRACED):
            fn = getattr(mod, name)
            entry = name in self.ENTRY_POINTS
            self._wrapped[id(fn)] = (fn, self._wrap(i, fn, extract, entry), entry)

    def checkpoint(self):
        self.checkpoints.append(time.perf_counter())

    def _wrap(self, key: int, fn, extract, entry: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        checkpoints = self.checkpoints

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if entry:
                user = kwargs.get("progress")

                def progress(rec):
                    checkpoints.append(clock())
                    if user is not None:
                        user(rec)

                kwargs["progress"] = progress
                if not self.tracing:
                    return fn(*args, **kwargs)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[4] = extract(args, kwargs, out)
            return out

        return wrapper

    def install(self, trace: bool):
        """Patch the entry points, and with ``trace`` every traced function,
        wherever a ``dsblo`` module refers to them."""
        self.uninstall()
        self.tracing = trace
        for name, mod in list(sys.modules.items()):
            if not (name == "dsblo" or name.startswith("dsblo.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrapped.get(id(value))
                if hit is not None and hit[0] is value and (trace or hit[2]):
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()
        self.tracing = False

    def write(self, path):
        """Spans as gzip CSV: name,start_s,end_s,parent,info."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,info\n")
            for key, t0, t1, parent, info in self.spans:
                fh.write(f"{self.keys[key]},{t0!r},{t1!r},{parent},"
                         f"{'' if info is None else info}\n")

    # -- reduction -----------------------------------------------------------

    def _arrays(self):
        n = len(self.spans)
        key = np.fromiter((s[0] for s in self.spans), dtype=np.int64, count=n)
        t0 = np.fromiter((s[1] for s in self.spans), dtype=float, count=n)
        t1 = np.fromiter((s[2] for s in self.spans), dtype=float, count=n)
        parent = np.fromiter((s[3] for s in self.spans), dtype=np.int64, count=n)
        dur = t1 - t0
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return key, dur, dur - child, parent

    def layer_shares(self, passes) -> Dict[str, float]:
        """Median over ``passes`` of each layer's self time as a share of the
        pass; ``passes`` holds (first span, end span, pass seconds) and
        ``benchmark`` is the part of a pass outside every span."""
        key, _dur, self_t, _p = self._arrays()
        layer = np.array(self.layer_of)[key] if len(key) else np.array([], dtype=str)
        per_pass = []
        for first, last, seconds in passes:
            shares = {name: float(self_t[first:last][layer[first:last] == name].sum()) / seconds
                      for name in LAYERS}
            shares["benchmark"] = 1.0 - sum(shares.values())
            per_pass.append(shares)
        return {name: float(np.median([p[name] for p in per_pass])) for name in per_pass[0]}

    def solve_counts(self) -> Dict[str, float]:
        """Lower-level solves traced, with their mean pivots and active rows."""
        key = self.keys.index("lower_level.solve_ll_quadratic")
        info = np.array([s[4] for s in self.spans if s[0] == key], dtype=float).reshape(-1, 2)
        mean = info.mean(axis=0) if len(info) else np.zeros(2)
        return {"solves": len(info), "pivots_per_solve": float(mean[0]),
                "active_rows_per_solve": float(mean[1])}

    def layer_metrics(self) -> Dict[str, tuple]:
        """Per-layer figures over every span recorded, as (value, unit)."""
        key, dur, self_t, parent = self._arrays()
        k = {name: i for i, name in enumerate(self.keys)}
        info = [s[4] for s in self.spans]

        def sel(*names):
            return np.isin(key, [k[n] for n in names])

        def inside(mask):
            """Spans with an ancestor in ``mask`` (parents precede children)."""
            out = np.zeros(len(key), dtype=bool)
            for i, p in enumerate(parent):
                out[i] = p >= 0 and (out[p] or mask[p])
            return out

        def total(mask):
            return sum(info[i] for i in np.flatnonzero(mask))

        def mean(values, mask, scale):
            return float(values[mask].mean()) * scale if mask.any() else 0.0

        def per(amount, count, scale):
            return amount / count * scale if count else 0.0

        solve = sel("lower_level.solve_ll_quadratic")
        runs = sel("algorithm.run_dsblo", "algorithm.run_igd_baseline")
        iters = total(runs)
        mc = sel("diagnostics.perturbation_error_check", "diagnostics.stationarity_window")
        # one output set per run_experiment call, or per write_csv call made
        # outside run_experiment
        rexp = sel("experiment.run_experiment")
        outputs = int(rexp.sum()) + int((sel("experiment.write_csv") & ~inside(rexp)).sum())
        writes = sel("experiment.write_csv", "experiment.write_objective_svg") | rexp
        report = (sel("diagnostics.build_report", "diagnostics.stationarity_profile")
                  & ~inside(sel("diagnostics.build_report")))
        return {
            "problem.generate_ms": (mean(dur, sel("problem.generate_instance"), 1e3), "ms"),
            "problem.fingerprint_ms": (mean(dur, sel("problem.fingerprint"), 1e3), "ms"),
            "lower_level.solve_us": (mean(dur, solve, 1e6), "us"),
            "lower_level.pivots_per_solve": (self.solve_counts()["pivots_per_solve"], "count"),
            "lower_level.solves_per_iter": (per(float((solve & inside(runs)).sum()), iters, 1.0),
                                            "count"),
            "implicit_grad.grad_us": (mean(dur, sel("implicit_grad.implicit_gradient",
                                                    "implicit_grad.sampled_implicit_gradient"),
                                           1e6), "us"),
            "diagnostics.eval_F_us": (mean(dur, sel("diagnostics.eval_F_exact"), 1e6), "us"),
            "diagnostics.mc_self_us": (per(float(self_t[mc].sum()), total(mc), 1e6), "us"),
            "algorithm.self_us_per_iter": (per(float(self_t[runs].sum()), iters, 1e6), "us"),
            "experiment.write_ms": (per(float(self_t[writes].sum()), outputs, 1e3), "ms"),
            "diagnostics.report_ms": (per(float(dur[report].sum()), outputs, 1e3), "ms"),
        }
