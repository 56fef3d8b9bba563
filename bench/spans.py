"""Spans and counters recorded from outside the package.

Each instrumented function is replaced, for the length of a run, at the
name its caller looks it up by (``scp_mpc.solve_box_qp`` rather than
``qpsolver.solve_box_qp``, because ``scp_mpc`` imports it by name). The
replacement opens a span, calls the original, closes the span and then
runs an optional hook that records counts from the arguments and the
result. Spans are kept in memory as (name, start, end, parent) and
written out when the run ends.

A ``Recorder`` built with ``spans=False`` installs only the hooked
functions, without timers: the untraced run needs them for the failure
shares and the correctness gates, and they cost one Python call each.
"""

import functools
import logging
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Recorder:
    """Spans (when ``spans`` is true) and counters of one run."""

    def __init__(self, spans=True):
        self.tracing = spans
        self.names = []  # span name per span
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []  # indices of open spans
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)

    # -- spans ---------------------------------------------------------
    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        """A span around a ``with`` block; nothing when not tracing."""
        if not self.tracing:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def current(self):
        return self.names[self.stack[-1]] if self.stack else None

    def inside(self, name):
        return any(self.names[i] == name for i in self.stack)

    # -- counters ------------------------------------------------------
    def add(self, key, value=1.0):
        self.counts[key] += value

    def sample(self, key, value):
        self.samples[key].append(value)

    # -- analysis ------------------------------------------------------
    def durations(self):
        return np.asarray(self.ends, dtype=np.int64) - np.asarray(
            self.starts, dtype=np.int64
        )

    def self_times(self):
        """Span duration minus the part its direct children cover (ns)."""
        dur = self.durations()
        own = dur.copy()
        parents = np.asarray(self.parents, dtype=np.int64)
        child = parents >= 0
        np.subtract.at(own, parents[child], dur[child])
        return own

    def totals(self):
        """{name: (calls, inclusive s, self s)} over all spans."""
        dur = self.durations()
        own = self.self_times()
        out = {}
        for i, name in enumerate(self.names):
            calls, inc, slf = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, inc + dur[i] * 1e-9, slf + own[i] * 1e-9)
        return out

    def dump(self):
        """Compact span table: a name list plus one row per span."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        return {
            "names": table,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": [
                [code[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }


class SkipCounter(logging.Handler):
    """Counts the warnings a logger emits (eigensolver skips)."""

    def __init__(self, rec, key):
        super().__init__(level=logging.WARNING)
        self.rec = rec
        self.key = key

    def emit(self, record):
        self.rec.add(self.key)


def _wrap(rec, fn, name, hook):
    """``name``: a span name, ``None`` for a hook without a span, or a
    function of the positional arguments that returns a span name, or
    ``None`` to fold the call into the enclosing span (no hook then)."""
    if rec.tracing and name is not None:
        pick = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = pick(args)
            if label is None:
                return fn(*args, **kwargs)
            idx = rec.open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if hook is not None:
                hook(rec, label, args, kwargs, out)
            return out
    else:
        label = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(rec, label, args, kwargs, out)
            return out

    return wrapper


class Instrumentation:
    """Patches (owner, attribute) pairs for the length of a ``with`` block.

    ``points`` holds ``(owner, attribute, name, hook, when)`` where
    ``when`` is ``"traced"`` (installed only when spans are on) or
    ``"always"`` (also installed, timer-free, in the untraced run).
    ``name`` and ``hook`` are as in ``_wrap``; a point with neither a
    span nor a hook is not installed.
    """

    def __init__(self, rec, points, loggers=()):
        self.rec = rec
        self.points = points
        self.loggers = loggers
        self._saved = []
        self._handlers = []

    def __enter__(self):
        for owner, attr, name, hook, when in self.points:
            if when == "traced" and not self.rec.tracing:
                continue
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(self.rec, fn, name, hook))
        for logger_name, key in self.loggers:
            handler = SkipCounter(self.rec, key)
            logging.getLogger(logger_name).addHandler(handler)
            self._handlers.append((logger_name, handler))
        return self.rec

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        for logger_name, handler in self._handlers:
            logging.getLogger(logger_name).removeHandler(handler)
        self._saved.clear()
        self._handlers.clear()
        return False
