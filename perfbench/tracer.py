"""Per-module span tracing for the benchmark's traced passes.

install() replaces every public function of the nine metasep modules
with a timing wrapper, at every binding that refers to it: the module's
own namespace (so calls inside a module are traced), each module that
imported it by name, and the package namespace. Callers that should be
traced reach metasep through module attributes. Nothing under src/
changes; uninstall() restores the original bindings.

A span is one call. Its self time is its duration minus the part of
that interval its child spans cover. Spans are aggregated in memory per
(module, function) and per thread: calls, total seconds, self seconds
and a log-spaced latency histogram, so millions of calls cost a few
dicts. Work that metasep.risk hands to its ThreadPoolExecutor runs in a
span named risk.<pool task> whose parent is the submitting thread's
current span; a parent's coverage by such concurrent children is the
union of their intervals.

The wrapper's own work around a child's span (pushing and popping its
frame, updating the aggregates) lies outside that span, so it lands in
the caller's self time; its work between the two clock reads (an extra
call frame) lands in the callee's. install() measures both costs per
call on a no-op function, and uninstall() measures them again;
report() subtracts their means, times the number of in-thread child
calls and of the function's own calls, from each function's self time.
The raw figure is kept beside the corrected one.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

MODULES = ("rng", "tasks", "linalg", "convex", "twolayer", "meta_learners",
           "risk", "oracles", "cli")

_BINS_PER_OCTAVE = 32
_POOL_TASK = "<pool task>"


def _union_length(spans, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for start, end in sorted(spans):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _percentile(hist: dict, calls: int, q: float) -> float:
    """q-quantile in seconds from a log2 histogram, interpolated in log
    space inside the bin that holds the target rank."""
    target = q * calls
    seen = 0
    for b in sorted(hist):
        count = hist[b]
        if seen + count >= target:
            frac = (target - seen) / count
            return 2.0 ** ((b + frac) / _BINS_PER_OCTAVE)
        seen += count
    return 2.0 ** ((max(hist) + 1) / _BINS_PER_OCTAVE)


class _ThreadState(threading.local):
    """Per-thread span stack, span aggregates and counters, so no span
    update races with another thread. Each thread's dicts are also kept
    in the shared registry, for report()."""

    def __init__(self, registry: list, lock: threading.Lock):
        self.stack = []   # frames [covered_s, cross_thread_spans or None, child_calls]
        self.stats = {}   # (module, function) -> [calls, total_s, self_s, hist, child_calls]
        self.counts = {}
        with lock:
            registry.append((self.stats, self.counts))


class Tracer:
    """Wraps metasep's public functions and aggregates their spans.

    counters maps "module.function" to hook(args, kwargs, result, add)
    which calls add(name, amount) to bump named counters. delays maps
    "module.function" to seconds slept inside that function's span, a
    fault injection for the attribution self-check.
    """

    def __init__(self, counters=None, delays=None, cpu_functions=()):
        self._registry = []
        self._lock = threading.Lock()
        self._local = _ThreadState(self._registry, self._lock)
        self._counters = dict(counters or {})
        self._delays = dict(delays or {})
        self._cpu_functions = set(cpu_functions)
        self._restore = []
        self.child_overhead_s = 0.0  # per child call, lands in the caller's span
        self.span_overhead_s = 0.0   # per call, lands in the callee's own span
        self._overheads = []

    # -- span bookkeeping -------------------------------------------------

    def _record(self, stats: dict, key, dur: float, self_s: float, children: int) -> None:
        stat = stats.get(key)
        if stat is None:
            stat = stats[key] = [0, 0.0, 0.0, {}, 0]
        stat[0] += 1
        stat[1] += dur
        stat[2] += self_s
        stat[4] += children
        b = math.floor(math.log2(dur) * _BINS_PER_OCTAVE) if dur > 0 else -2048
        hist = stat[3]
        hist[b] = hist.get(b, 0) + 1

    def _add(self, name: str, amount) -> None:
        counts = self._local.counts
        counts[name] = counts.get(name, 0) + amount

    def _wrap(self, module: str, name: str, fn):
        """The span wrapper, plus outer layers for the rare extras (delay,
        counter hook, process CPU) so the common path stays short."""
        key = (module, name)
        qual = f"{module}.{name}"
        local = self._local
        perf = time.perf_counter
        floor, log2 = math.floor, math.log2

        delay = self._delays.get(qual)
        if delay:
            inner = fn

            def fn(*args, **kwargs):
                time.sleep(delay)
                return inner(*args, **kwargs)

        def traced(*args, **kwargs):
            stack = local.stack
            frame = [0.0, None, 0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent[2] += 1
                covered = frame[0]
                if frame[1]:
                    covered += _union_length(frame[1], start, start + dur)
                # _record inlined: this path runs millions of times on growth
                stats = local.stats
                stat = stats.get(key)
                if stat is None:
                    stat = stats[key] = [0, 0.0, 0.0, {}, 0]
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - covered
                stat[4] += frame[2]
                hist = stat[3]
                b = floor(log2(dur) * _BINS_PER_OCTAVE) if dur > 0 else -2048
                hist[b] = hist.get(b, 0) + 1

        outer = traced
        hook = self._counters.get(qual)
        if hook is not None:
            def outer(*args, **kwargs):
                result = traced(*args, **kwargs)
                hook(args, kwargs, result, self._add)
                return result

        if qual in self._cpu_functions:
            counted = outer

            def outer(*args, **kwargs):
                cpu0, wall0 = time.process_time(), perf()
                try:
                    return counted(*args, **kwargs)
                finally:
                    self._add(qual + ".cpu_s", time.process_time() - cpu0)
                    self._add(qual + ".wall_s", perf() - wall0)

        return outer

    def _pool_class(self):
        tracer = self
        perf = time.perf_counter
        key = ("risk", _POOL_TASK)

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._local.stack
                parent = stack[-1] if stack else None
                if parent is not None and parent[1] is None:
                    parent[1] = []

                def task(*a, **kw):
                    state = tracer._local
                    frame = [0.0, None, 0]
                    state.stack.append(frame)
                    start = perf()
                    try:
                        return fn(*a, **kw)
                    finally:
                        end = perf()
                        state.stack.pop()
                        dur = end - start
                        tracer._record(state.stats, key, dur, dur - frame[0], frame[2])
                        if parent is not None:
                            parent[1].append((start, end))

                return super().submit(task, *args, **kwargs)

        return TracedPool

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        self._calibrate()
        package = importlib.import_module("metasep")
        modules = {m: importlib.import_module(f"metasep.{m}") for m in MODULES}
        wrapped, names = {}, set()
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._wrap(short, name, obj)
                    names.add(f"{short}.{name}")
        unknown = (set(self._counters) | set(self._delays) | self._cpu_functions) - names
        if unknown:
            raise ValueError(f"no public metasep function named {sorted(unknown)}")
        namespaces = [vars(package)] + [vars(m) for m in modules.values()]
        for ns in namespaces:
            for name, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    ns[name] = wrapped[obj]
                    self._restore.append((ns, name, obj))
        risk = vars(modules["risk"])
        if risk.get("ThreadPoolExecutor") is ThreadPoolExecutor:
            risk["ThreadPoolExecutor"] = self._pool_class()
            self._restore.append((risk, "ThreadPoolExecutor", ThreadPoolExecutor))

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._restore):
            ns[name] = obj
        self._restore.clear()
        self._calibrate()

    def _calibrate(self) -> None:
        """Take a wrapper-cost sample; the overheads are the mean of the
        samples. The cost follows the machine's speed, which drifts by up
        to twofold over seconds on a shared machine, so a traced pass is
        sampled at its start (install) and at its end (uninstall)."""
        self._overheads.append(wrapper_overhead())
        self.child_overhead_s, self.span_overhead_s = (
            statistics.fmean(column) for column in zip(*self._overheads))

    # -- report -------------------------------------------------------------

    def report(self) -> dict:
        """Merge the per-thread aggregates into one JSON-ready dict:
        {"functions": {"module.function": {...}}, "counts": {...},
        "child_overhead_s": ..., "span_overhead_s": ...}. A function's
        self_s is corrected for the wrapper cost of its own calls and of
        its child calls; self_s_raw is not."""
        functions, counts = {}, {}
        with self._lock:
            states = list(self._registry)
        for tid, (stats, thread_counts) in enumerate(states):
            for (module, name), (calls, total, self_s, hist, children) in stats.items():
                entry = functions.setdefault(f"{module}.{name}", {
                    "module": module, "calls": 0, "total_s": 0.0, "self_s_raw": 0.0,
                    "child_calls": 0, "threads": [], "hist": {}})
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s_raw"] += self_s
                entry["child_calls"] += children
                entry["threads"].append(tid)
                for b, c in hist.items():
                    entry["hist"][b] = entry["hist"].get(b, 0) + c
            for name, value in thread_counts.items():
                counts[name] = counts.get(name, 0) + value
        for entry in functions.values():
            entry["self_s"] = max(0.0, entry["self_s_raw"]
                                  - entry["child_calls"] * self.child_overhead_s
                                  - entry["calls"] * self.span_overhead_s)
            hist = entry.pop("hist")
            entry["p50_ms"] = 1e3 * _percentile(hist, entry["calls"], 0.50)
            entry["p99_ms"] = 1e3 * _percentile(hist, entry["calls"], 0.99)
        return {"functions": functions, "counts": counts,
                "child_overhead_s": self.child_overhead_s,
                "span_overhead_s": self.span_overhead_s}


def wrapper_overhead(calls: int = 20000, repeats: int = 7) -> tuple[float, float]:
    """Seconds that tracing one call adds (outside, inside) its span: the
    part that lands in the caller's self time, and the part that lands in
    the callee's own.

    Times, in a throwaway Tracer, a traced loop of traced no-op calls
    against an empty loop and a loop of plain no-op calls. Outside: loop
    self time minus plain loop time, per call. Inside: no-op span time
    minus the plain cost of a no-op call, per call. Each is the median
    over repeats, clamped at 0."""
    probe = Tracer()
    perf = time.perf_counter

    def noop():
        return None

    def loop(child, k):
        for _ in range(k):
            child()

    def empty(k):
        for _ in range(k):
            pass

    traced_loop = probe._wrap("calibration", "loop", loop)
    traced_noop = probe._wrap("calibration", "noop", noop)
    stats = probe._local.stats
    outside, inside = [], []
    for _ in range(repeats):
        start = perf()
        empty(calls)
        bare = perf() - start
        start = perf()
        loop(noop, calls)
        plain = perf() - start
        loop_self, noop_total = (stats[("calibration", k)][i] if stats else 0.0
                                 for k, i in (("loop", 2), ("noop", 1)))
        traced_loop(traced_noop, calls)
        outside.append((stats[("calibration", "loop")][2] - loop_self - plain) / calls)
        inside.append((stats[("calibration", "noop")][1] - noop_total - (plain - bare)) / calls)
    return max(0.0, statistics.median(outside)), max(0.0, statistics.median(inside))
