"""Per-layer timing by wrapping the package's functions from outside.

Each wrapper is installed on the name its caller looks up: `sample_many` is
called through `swarmclean.engine`, so that is where it is patched, and
`MetricsSeries.from_csv` stays a classmethod. Spans nest on a stack, and a
span's self time is its duration minus that of the wrapped calls inside it,
so the self times of all spans add up to the time spent inside the outermost
ones and nothing is counted twice. A name that no longer exists is recorded
in `missing` instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict


def _on_separate(tracer, args, result):
    if result:
        tracer.counts["engine.separate_active"] += 1


def _on_to_csv(tracer, args, result):
    tracer.counts["metrics.csv_rows_written"] += len(args[0])


def _on_from_csv(tracer, args, result):
    tracer.counts["metrics.csv_rows_read"] += len(result)


# (span, module, attribute the caller looks up, hook run on each result)
SPANS = (
    ("field.sample_many", "swarmclean.engine", "sample_many", None),
    ("field.apply_cleaning", "swarmclean.engine", "apply_cleaning", None),
    ("field.mean_intensity", "swarmclean.engine", "mean_intensity", None),
    ("field.write_pgm", "swarmclean.harness", "write_pgm", None),
    ("controller.step_fsm", "swarmclean.engine", "step_fsm", None),
    ("engine.detect_events", "swarmclean.engine", "_detect_events_trig", None),
    ("engine.separate_overlaps", "swarmclean.engine", "_separate_overlaps", _on_separate),
    ("engine.integrate", "swarmclean.engine", "integrate", None),
    ("engine.place_robots", "swarmclean.engine", "_place_robots", None),
    ("engine.run_simulation", "swarmclean.harness", "run_simulation", None),
    ("metrics.coherency", "swarmclean.engine", "coherency", None),
    ("metrics.ratio_within", "swarmclean.engine", "ratio_within", None),
    ("metrics.to_csv", "swarmclean.metrics", "MetricsSeries.to_csv", _on_to_csv),
    ("metrics.from_csv", "swarmclean.metrics", "MetricsSeries.from_csv", _on_from_csv),
    ("stats.median_series", "swarmclean.harness", "median_series", None),
    ("stats.anova_main_effects", "swarmclean.harness", "anova_main_effects", None),
    ("harness.cmd_run", "swarmclean.cli", "cmd_run", None),
    ("harness.cmd_sweep", "swarmclean.cli", "cmd_sweep", None),
    ("harness.cmd_analyze", "swarmclean.cli", "cmd_analyze", None),
    ("cli.main", "swarmclean.cli", "main", None),
)

# Calls that are only counted: they open no span, so their time stays in the caller's.
COUNTERS = (
    ("controller.waits_started", "swarmclean.controller", "waiting_time"),
    ("controller.random_turns", "swarmclean.controller", "random_turn"),
)


class Tracer:
    """Self time and call count per span, plus event counts, since the last `take`."""

    def __init__(self, spans=SPANS, counters=COUNTERS):
        self.spans = spans
        self.counters = counters
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[float] = []  # per open span: time spent in its wrapped children
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name, fn, hook):
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, name, module, attr, make):
        *path, leaf = attr.split(".")
        try:
            owner = importlib.import_module(module)
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(name)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, leaf, wrapped)
        self._patched.append((owner, leaf, raw))

    def install(self) -> None:
        self.missing.clear()
        for name, module, attr, hook in self.spans:
            self._patch(name, module, attr, lambda fn, name=name, hook=hook: self._span(name, fn, hook))
        for name, module, attr in self.counters:
            self._patch(name, module, attr, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._patched):
            setattr(owner, leaf, raw)
        self._patched.clear()

    def take(self) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
        """Self seconds and calls per span, and event counts; then reset."""
        out = dict(self.self_s), dict(self.calls), dict(self.counts)
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out
