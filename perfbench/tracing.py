"""Spans around circlekit's public calls, installed from outside the package.

Wrappers replace a public name at the attribute through which callers reach
it (a module global such as `frag_diff.solve_monotone`, or a method on the
class such as `PeriodicFunction.eval`) and restore it afterwards, so nothing
under src/ changes.  Spans are kept in memory, carry a parent link, and are
written out when the run ends.  Self time is a span's duration minus the
durations of its children.

Work the benchmark does inside a wrapper to measure something (the Newton
residual of `solve_monotone`) runs with tracing paused, and its duration is
subtracted from the clock that every span and every timed operation reads,
so it is charged to no span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from independent import partition_counts, trig_eval

RESIDUAL_POINTS = 64  # targets per solve_monotone call whose residual is recomputed
FILL_SPAN = "periodic.fill"
# the cold share of eval is the evaluation-cache fill, traced as its own span
COLD_EVAL = {"periodic.eval.cold_calls": f"{FILL_SPAN}.calls", "periodic.eval.cold_ms": f"{FILL_SPAN}.ms"}


class Tracer:
    def __init__(self, top_level: int):
        self.spans: list = []  # [parent, name, start, end, points, residual, when]
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._excluded = 0.0
        self._installed: list = []
        counts = partition_counts(top_level)
        self._level_of_size = {counts[k]: k for k in range(1, top_level + 1)}

    def clock(self) -> float:
        return time.perf_counter() - self._excluded

    # -- spans --------------------------------------------------------

    def call(self, name, fn, args, kwargs, points=0, after=None):
        if not self.active:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        when = time.perf_counter()
        start = self.clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[sid] = [parent, name, start, end, points, 0.0, when]
        if after is not None:
            self.active = False
            t0 = time.perf_counter()
            try:
                self.spans[sid][5] = after(args, out)
            finally:
                self._excluded += time.perf_counter() - t0
                self.active = True
        return out

    def span(self, name, fn, *args):
        """Time fn(*args) as a span even when no wrapper is installed."""
        was = self.active
        self.active = True
        try:
            return self.call(name, fn, args, {})
        finally:
            self.active = was

    # -- wrappers -----------------------------------------------------

    def install(self, targets) -> None:
        for owner, attr, make in targets:
            original = getattr(owner, attr, None)
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            if original is None:
                if label not in self.absent:
                    self.absent.append(label)
                continue
            setattr(owner, attr, functools.wraps(original)(make(self, original)))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ------------------------------------------------------

    def stats(self, scale) -> dict:
        """Per span name: calls, points, total and self seconds, and the
        largest recorded residual.  Durations are multiplied by
        scale(perf_counter() at the span's start)."""
        dur = [(end - start) * scale(when) for _, _, start, end, _, _, when in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[0] >= 0:
                child[span[0]] += dur[i]
        out = defaultdict(lambda: defaultdict(float))
        for i, (_, name, _, _, points, residual, _) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            s["points"] += points
            s["s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            s["residual_max"] = max(s["residual_max"], residual)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("parent", "name", "start", "end", "points", "residual", "when")
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")


# ---------------------------------------------------------------------------
# wrapper factories: each takes (tracer, original) and returns the wrapper
# ---------------------------------------------------------------------------


def plain(name):
    def make(tracer, fn):
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    return make


def periodic_eval(tracer, fn):
    """Counts the points evaluated."""

    def wrapper(self, t, *args, **kwargs):
        return tracer.call("periodic.eval", fn, (self, t) + args, kwargs, np.size(t))

    return wrapper


def periodic_fill(tracer, fn):
    """A span for each fill of an object's evaluation cache, wherever it
    happens: inside `eval`, or called directly as `solve_monotone` does."""

    def wrapper(self, *args, **kwargs):
        if getattr(self, "_fine", False) is not None:
            return fn(self, *args, **kwargs)
        return tracer.call(FILL_SPAN, fn, (self,) + args, kwargs)

    return wrapper


def _solve_residual(args, u):
    """max |gamma(u) - y| on evenly spaced targets, gamma summed directly."""
    g, targets = args[0], np.asarray(args[1], dtype=float)
    idx = np.linspace(0, len(u) - 1, min(RESIDUAL_POINTS, len(u))).astype(int)
    gu = u[idx] + trig_eval(g.periodic_part.samples, u[idx])
    return float(np.abs(gu - targets[idx]).max())


def solve_monotone(tracer, fn):
    def wrapper(g, targets, *args, **kwargs):
        return tracer.call(
            "diffeo.solve_monotone", fn, (g, targets) + args, kwargs,
            np.size(targets), after=_solve_residual,
        )

    return wrapper


def gram_matrix(tracer, fn):
    def wrapper(self, level, *args, **kwargs):
        return tracer.call(f"verma.gram.L{level}", fn, (self, level) + args, kwargs)

    return wrapper


def exact_determinant(tracer, fn):
    def wrapper(matrix, *args, **kwargs):
        level = tracer._level_of_size.get(len(matrix), 0)
        return tracer.call(f"verma.det.L{level}", fn, (matrix,) + args, kwargs)

    return wrapper


def targets(tracer: Tracer, circlekit_modules) -> list:
    """(owner, attribute, wrapper factory) for every traced public name."""
    periodic, diffeo, frag_diff, cocycles, loops, verma = circlekit_modules
    if not hasattr(periodic.PeriodicFunction, "_fine"):
        tracer.absent.append("PeriodicFunction._fine (cache fill detection)")
    out = [
        (periodic.PeriodicFunction, "eval", periodic_eval),
        (periodic.PeriodicFunction, "_fine_values", periodic_fill),
        (periodic.PeriodicFunction, "derivative", plain("periodic.derivative")),
        (frag_diff, "solve_monotone", solve_monotone),
        (diffeo, "solve_monotone", solve_monotone),
        (diffeo, "compose", plain("diffeo.compose")),
        (cocycles, "compose", plain("diffeo.compose")),
        (diffeo, "inverse", plain("diffeo.inverse")),
        (frag_diff, "make_normalized_bump", plain("diffeo.make_normalized_bump")),
        (frag_diff.DiffeoFragmenter, "fragment", plain("frag_diff.fragment")),
        (frag_diff, "fragment_pair", plain("frag_diff.fragment_pair")),
        (cocycles, "bott", plain("cocycles.bott")),
        (cocycles, "vir_multiply", plain("cocycles.vir_multiply")),
        (verma.VermaModule, "gram_matrix", gram_matrix),
        (verma, "exact_determinant", exact_determinant),
        (verma.VermaModule, "commutator_check", plain("verma.commutator_check")),
    ]
    for name in (
        "fragment_loop", "fragment_loop_sequential", "log_loop", "exp_loop",
        "multiply", "omega", "precompose",
    ):
        out.append((loops, name, plain(f"loops.{name}")))
    return out
