"""Spans, layer wrappers, the profiler pass and the timing WSGI wrapper.

Everything here is instrumentation the benchmark puts *around* the
program's public functions; nothing in ``src/`` knows it exists. A
:class:`Tracer` patches each layer's entry point with a wrapper that
records a span (name, start, end, parent, op id), keeps the spans in
memory, and restores the originals when closed. Self time is a span's
duration minus its children's, so the self times of one op's spans sum
to the op's duration.

The profiler pass is separate because ``cProfile`` roughly triples host
time: it reports only per-package self-time shares and exact call counts.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import math
import os
import pstats
import re
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

SIM_PACKAGES = ("sim", "firmware", "electronics", "physics", "core", "detection")
"""Packages whose share of profiled self time the traced run reports."""

_ROUTE_PATTERNS: Tuple[Tuple[str, str, "re.Pattern[str]"], ...] = tuple(
    (name, method, re.compile(pattern))
    for name, method, pattern in (
        ("status", "GET", r"^/queues/[^/]+$"),
        ("reset", "POST", r"^/queues/[^/]+/reset$"),
        ("stop", "POST", r"^/queues/[^/]+/stop$"),
        ("put_shard", "PUT", r"^/queues/[^/]+/shards/\d+$"),
        ("claim", "POST", r"^/queues/[^/]+/shards/\d+/claim$"),
        ("beat", "POST", r"^/queues/[^/]+/workers/([^/]+)/beat$"),
        ("worker", "GET", r"^/queues/[^/]+/workers/[^/]+$"),
        ("put_result", "PUT", r"^/queues/[^/]+/shards/\d+/result$"),
        ("get_result", "GET", r"^/queues/[^/]+/shards/\d+/result$"),
    )
)
"""The shard-queue routes a fault-free distributed sweep uses."""

ROUTES = tuple(name for name, _method, _pattern in _ROUTE_PATTERNS)


@dataclass
class Span:
    """One timed call; ``count`` is a per-call tally (events, cache bytes)."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]
    pid: int
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the monkeypatches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording --------------------------------------------------------
    def _stack(self) -> List[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the body; yields the span to attach counts."""
        stack = self._stack()
        record = Span(
            span_id=next(self._ids), name=name, start=time.perf_counter(),
            end=0.0, parent=stack[-1] if stack else None, op=self.op,
            pid=os.getpid(),
        )
        stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    # -- patching ---------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             count: Optional[Callable[[Any], int]] = None) -> None:
        """Replace ``owner.attr`` with a wrapper that records span ``name``."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                if count is not None:
                    record.count = count(result)
            return result

        self._patch(owner, attr, traced)

    def install(self) -> "Tracer":
        """Wrap every layer's public entry point the sweep engine calls."""
        from repro.detection.protocol import DETECTOR_CLASSES
        from repro.experiments import batch, runner, scenario

        self.wrap(scenario, "compile_scenario", "scenario.compile")
        self.wrap(batch.SessionSpec, "content_key", "batch.content_key")
        # execute_spec builds the bench, then calls PrintSession.run: its
        # self time is the build, the child span is the run.
        self.wrap(batch, "execute_spec", "runner.build")
        self.wrap(runner.PrintSession, "run", "runner.run",
                  count=lambda result: result.events_dispatched)
        self.wrap(batch, "summarize_result", "batch.summarize")
        for name, cls in DETECTOR_CLASSES.items():
            self.wrap(cls, "fit", f"detection.{name}.fit")
            self.wrap(cls, "score", f"detection.{name}.score")
        self._wrap_cache(batch.SessionCache)
        return self

    def _wrap_cache(self, cache_cls: Any) -> None:
        """Cache get/put spans whose count is the bytes read or written.

        A persistent cache keeps each entry in ``<directory>/<key>.summary.pkl``
        (the layout ``SessionCache`` documents); the file is sized after the
        span closes, so the stat is not billed to the cache.
        """
        tracer = self
        original_get, original_put = cache_cls.get, cache_cls.put

        def entry_bytes(cache, key):
            try:
                return os.path.getsize(
                    os.path.join(cache.directory, f"{key}.summary.pkl")
                )
            except OSError:
                return 0

        def get(cache, key):
            before = cache.disk_hits
            with tracer.span("cache.get") as record:
                entry = original_get(cache, key)
            if cache.disk_hits > before:
                record.count = entry_bytes(cache, key)
            return entry

        def put(cache, key, summary, persist=True):
            with tracer.span("cache.put") as record:
                original_put(cache, key, summary, persist)
            if persist and cache.directory is not None:
                record.count = entry_bytes(cache, key)

        self._patch(cache_cls, "get", get)
        self._patch(cache_cls, "put", put)

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, value, own in reversed(self._patches):
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- output -----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(vars(span)) + "\n")


def load_spans(path: str) -> List[Span]:
    """Read the spans a :meth:`Tracer.dump` wrote."""
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus its direct children's (same process)."""
    own = {(span.pid, span.span_id): span.duration for span in spans}
    for span in spans:
        if span.parent is not None and (span.pid, span.parent) in own:
            own[(span.pid, span.parent)] -= span.duration
    return {
        id(span): own[(span.pid, span.span_id)] for span in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[id(span)]
    return totals


# ----------------------------------------------------------------------
# Tail statistics
# ----------------------------------------------------------------------

TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
"""Candidate tail percentiles; a fixed ladder keeps runs comparable."""


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``, the value being the
    nearest-rank sample. Below forty samples no ladder percentile has ten
    beyond, and the maximum is returned with its count beyond, 0.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(n * percentile / 100.0)
        if n - rank >= 10:
            return ordered[rank - 1], percentile, n - rank
    return ordered[-1], 100.0, 0


# ----------------------------------------------------------------------
# The profiler pass
# ----------------------------------------------------------------------

def profile_call(fn: Callable[[], Any]) -> pstats.Stats:
    """Run ``fn`` under cProfile; returns the stats."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    return pstats.Stats(profiler)


def profile_metrics(stats: Optional[pstats.Stats]) -> Dict[str, float]:
    """Per-package self-time shares and exact kernel call counts."""
    out = {f"{pkg}.self_share": 0.0 for pkg in SIM_PACKAGES}
    out.update(
        {"sim.heap_compares": 0, "sim.schedule_calls": 0,
         "electronics.pulse_calls": 0}
    )
    if stats is None:
        return out
    total = 0.0
    for (filename, _line, func), (_cc, calls, own, _cum, _callers) in (
        stats.stats.items()
    ):
        total += own
        path = filename.replace(os.sep, "/")
        for pkg in SIM_PACKAGES:
            if f"/repro/{pkg}/" in path:
                out[f"{pkg}.self_share"] += own
        if path.endswith("/repro/sim/kernel.py"):
            if func == "__lt__":
                out["sim.heap_compares"] += calls
            elif func == "schedule_at":
                out["sim.schedule_calls"] += calls
        elif path.endswith("/repro/sim/signals.py") and func == "pulse":
            out["electronics.pulse_calls"] += calls
    if total > 0:
        for pkg in SIM_PACKAGES:
            out[f"{pkg}.self_share"] /= total
    return out


# ----------------------------------------------------------------------
# The timing WSGI wrapper
# ----------------------------------------------------------------------

class TimedApp:
    """Times every request a WSGI app answers, grouped by route."""

    def __init__(self, app: Callable) -> None:
        self.app = app
        self.requests: List[Tuple[str, float, float]] = []
        self.first_beat: Dict[str, float] = {}
        self.active = False
        self._lock = threading.Lock()

    def __call__(self, environ, start_response):
        if not self.active:
            return self.app(environ, start_response)
        started = time.perf_counter()
        body = self.app(environ, start_response)
        ended = time.perf_counter()
        path = environ.get("PATH_INFO", "/")
        method = environ.get("REQUEST_METHOD", "GET").upper()
        route, match = next(
            ((name, found) for name, verb, pattern in _ROUTE_PATTERNS
             if verb == method and (found := pattern.match(path))),
            ("other", None),
        )
        with self._lock:
            self.requests.append((route, started, ended))
            if route == "beat":
                self.first_beat.setdefault(match.group(1), started)
        return body

    def reset_workers(self) -> None:
        """Forget first-beat times (worker ids repeat across sweeps)."""
        with self._lock:
            self.first_beat.clear()

    def route_metrics(self) -> Dict[str, float]:
        with self._lock:
            requests = list(self.requests)
        out: Dict[str, float] = {"service.requests": len(requests)}
        for route in ROUTES + ("other",):
            ms = [1e3 * (end - start) for name, start, end in requests
                  if name == route]
            out[f"service.{route}.count"] = len(ms)
            if route == "other":
                continue
            out[f"service.{route}.p50_ms"] = statistics.median(ms) if ms else 0.0
            out[f"service.{route}.tail_ms"] = tail(ms)[0] if ms else 0.0
        return out
