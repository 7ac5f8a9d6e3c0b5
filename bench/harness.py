"""Timing loop, in-memory span tracer and small statistics helpers.

The tracer never reaches into the package: a span is opened by the
benchmark around its own call into a public function, or around an
integrand callable the benchmark itself hands to an oracle.  Spans and
counters stay in memory until the run ends.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext

perf = time.perf_counter


class CheckFailed(Exception):
    """An op returned a result that its check rejects."""


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class NullTracer:
    """Tracing off: every hook is a direct call."""

    enabled = False

    def call(self, name, fn, *args, expect=()):
        return fn(*args)

    def wrap(self, name, fn):
        return fn

    def op(self, kind):
        return nullcontext()

    def count(self, name, n=1):
        pass

    def note(self, name, value):
        pass


class Tracer:
    """Spans (name, start, end, parent, phase) plus per-phase counters."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.notes = defaultdict(list)
        self.phase = "pass0"
        self._stack = []

    def call(self, name, fn, *args, expect=()):
        """Span around fn(*args); an exception outside `expect` counts as a layer error."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = perf()
        try:
            return fn(*args)
        except expect:
            raise
        except Exception:
            self.counts[(self.phase, layer_of(name) + ".errors")] += 1
            raise
        finally:
            t1 = perf()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.phase)

    def wrap(self, name, fn):
        def traced(*args):
            return self.call(name, fn, *args)
        return traced

    def op(self, kind):
        return _OpSpan(self, "op." + kind)

    def count(self, name, n=1):
        self.counts[(self.phase, name)] += n

    def note(self, name, value):
        self.notes[(self.phase, name)].append(value)

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]


class _OpSpan:
    __slots__ = ("tr", "name", "idx", "parent", "t0")

    def __init__(self, tr, name):
        self.tr = tr
        self.name = name

    def __enter__(self):
        tr = self.tr
        self.idx = len(tr.spans)
        tr.spans.append(None)
        self.parent = tr._stack[-1] if tr._stack else -1
        tr._stack.append(self.idx)
        self.t0 = perf()

    def __exit__(self, *exc):
        t1 = perf()
        tr = self.tr
        tr._stack.pop()
        tr.spans[self.idx] = (self.name, self.t0, t1, self.parent, tr.phase)
        return False


def run_pass(ops, table, tr, failures):
    """Run one pass of ops in a closed loop; returns (latencies, gaps, failed)."""
    lat = []
    gaps = []
    failed = 0
    for kind, args in ops:
        fn = table[kind]
        t0 = perf()
        try:
            with tr.op(kind):
                gap = fn(tr, *args)
        except Exception as e:  # every failure is counted and reported, never fatal
            gap = None
            failed += 1
            if len(failures) < 5:
                failures.append(f"{kind}{args!r:.200}: {type(e).__name__}: {e}")
        lat.append(perf() - t0)
        if gap is not None:
            gaps.append(gap)
    return lat, gaps, failed


def nearest_rank(values, p):
    """Nearest-rank percentile: the smallest value with at least p of the data at or below it."""
    s = sorted(values)
    k = max(1, math.ceil(p * len(s) - 1e-9))
    return s[k - 1]


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def spawn_wall(argv, env, cwd, timeout=120.0):
    """Wall time of a fresh child process from spawn to exit; raises on a non-zero exit."""
    t0 = perf()
    p = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                         env=env, cwd=cwd)
    try:
        _, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        raise
    wall = perf() - t0
    if p.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {p.returncode}: {err.decode(errors='replace')[-500:]}")
    return wall


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python():
    return sys.executable or "python3"
