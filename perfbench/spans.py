"""Span recording from outside the program.

Every span is taken by the benchmark around a call into one of the
program's public functions, or by a :class:`SpanObserver` appended to
``rtg.engine.observers`` (the engine's documented extension hook); the
program itself is never edited.  Spans stay in memory, one list per
thread (so recording takes no lock), and are summarised or written out
when the run ends.

A span is ``[name, start, end, parent]`` with ``parent`` the index of
the enclosing span on the same thread (-1 for a root span).  A layer's
self time is the duration of its spans minus the part their child
spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time

from repro.core.engine import StageObserver

__all__ = ["Tracer", "SpanObserver", "DBWrites", "layer_of"]

#: span name prefix -> layer; the longest matching prefix wins
LAYERS = {
    "ingest.decode": "ingest",
    "ingest.wait": "ingest_wait",
    "ingest.parse_record": "ingest",
    "scan": "scan",
    "parse": "parse",
    "partition_length": "partition",
    "analyze": "analyze",
    "persist": "persist",
    "db.": "persist",
    "rtg.analyze_by_service": "engine",
    "pool.analyze_by_service": "pool_parent",
    "pool.recv": "pool_barrier",
    "framing.feed": "framing",
    "router.": "router",
    "router.wait_for": "router_wait",
    "driver.offer": "stream_buffer",
    "driver.poll": "stream_buffer",
    "driver.close": "stream_buffer",
    "driver.flush": "stream_maintain",
    "engine.batch": "engine",
    "engine.flush": "engine",
}


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``"other"`` when unmapped)."""
    best = ""
    for prefix in LAYERS:
        if name.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return LAYERS[best] if best else "other"


class Tracer:
    """Per-thread span lists with begin/end, wrappers and a summary."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread name, span list) of every thread that recorded
        self.threads: list[tuple[str, list]] = []

    def _state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self.threads.append((threading.current_thread().name, spans))
        return spans, local.stack

    def begin(self, name: str) -> int:
        spans, stack = self._state()
        index = len(spans)
        spans.append([name, self.clock(), None, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        spans, stack = self._state()
        spans[index][2] = self.clock()
        if stack and stack[-1] == index:
            stack.pop()

    def wrap(self, fn, name: str):
        """*fn* with every call recorded as a span called *name*."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    def wrap_iter(self, iterable, name: str):
        """Yield from *iterable*, recording each ``next`` as a span.

        Closing this generator closes *iterable* (when it can be), so a
        wrapped ingester generator still runs its cleanup.
        """
        iterator = iter(iterable)
        try:
            while True:
                index = self.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # -- analysis ---------------------------------------------------------
    def all_spans(self) -> list[tuple[str, list]]:
        with self._lock:
            return list(self.threads)

    def summary(self, t0: float, t1: float, driving_thread: str) -> dict:
        """Per-layer self time, per-name calls and total duration, plus
        coverage of ``[t0, t1]``.

        Only spans that closed are counted.  Coverage is the share of the
        window the root spans of *driving_thread* cover — the thread
        whose calls make up the timed loop.
        """
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        durations: dict[str, float] = {}
        covered = 0.0
        n_spans = 0
        for thread, spans in self.all_spans():
            child_time = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if end is not None and parent >= 0:
                    child_time[parent] += end - start
            for index, (name, start, end, parent) in enumerate(spans):
                if end is None:
                    continue
                n_spans += 1
                layer = layer_of(name)
                busy[layer] = busy.get(layer, 0.0) + (end - start) - child_time[index]
                calls[name] = calls.get(name, 0) + 1
                durations[name] = durations.get(name, 0.0) + end - start
                if thread == driving_thread and parent < 0:
                    covered += max(0.0, min(end, t1) - max(start, t0))
        wall = t1 - t0
        return {
            "busy_s": busy,
            "calls": calls,
            "durations": durations,
            "spans": n_spans,
            "coverage": covered / wall if wall > 0 else 0.0,
        }

    def report(self, summary: dict, overhead_ratio: float, spans_file) -> dict:
        """Write the spans to *spans_file*; the run's tracing metrics
        (``trace.*``) plus the per-layer breakdown for the report."""
        self.write(spans_file)
        return {
            "trace.coverage": summary["coverage"],
            "trace.overhead_ratio": overhead_ratio,
            "trace.spans": summary["spans"],
            "trace.nesting_errors": len(self.check_nesting()),
            "spans_file": str(spans_file),
            "calls": summary["calls"],
            "busy_s": summary["busy_s"],
        }

    def check_nesting(self) -> list[str]:
        """Violations of span nesting: a closed child that is not inside
        its closed parent's interval, or a span that ends before it
        starts.  Empty when the spans are well formed."""
        problems = []
        for thread, spans in self.all_spans():
            for index, (name, start, end, parent) in enumerate(spans):
                if end is None:
                    continue
                if end < start:
                    problems.append(f"{thread}:{index} {name} ends before it starts")
                if parent >= 0:
                    pname, pstart, pend, _ = spans[parent]
                    if pend is not None and not (pstart <= start and end <= pend):
                        problems.append(
                            f"{thread}:{index} {name} escapes parent {pname}"
                        )
        return problems

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for thread, spans in self.all_spans():
                for index, (name, start, end, parent) in enumerate(spans):
                    out.write(
                        json.dumps(
                            {
                                "thread": thread,
                                "id": index,
                                "parent": parent,
                                "name": name,
                                "start": start,
                                "end": end,
                            }
                        )
                        + "\n"
                    )


class SpanObserver(StageObserver):
    """Engine hook: one span per batch and per (batch, service, stage).

    Batch spans are named ``engine.batch`` when the batch carries records
    (a batch, or a stream-mode micro-batch) and ``engine.flush_batch``
    for stream-mode flushes (which mine pending evidence and carry
    none).  *on_batch* (optional) is
    called with ``(result, seconds)`` at every batch end — the stream
    workload stamps per-record completion times there.
    """

    def __init__(self, tracer: Tracer | None, on_batch=None) -> None:
        self.tracer = tracer
        self.on_batch = on_batch
        self._batch = -1
        self._stage = -1
        self._began = 0.0

    def on_batch_start(self, result) -> None:
        self._began = time.monotonic()
        if self.tracer is not None:
            name = "engine.batch" if result.n_records else "engine.flush_batch"
            self._batch = self.tracer.begin(name)

    def on_stage_start(self, stage, ctx) -> None:
        if self.tracer is not None:
            self._stage = self.tracer.begin(stage)

    def on_stage_end(self, stage, ctx) -> None:
        if self.tracer is not None:
            self.tracer.end(self._stage)

    def on_batch_end(self, result) -> None:
        if self.tracer is not None:
            self.tracer.end(self._batch)
        if self.on_batch is not None:
            self.on_batch(result, time.monotonic() - self._began)


class DBWrites:
    """Count (and, with a tracer, time) the writes of one PatternDB."""

    def __init__(self, db, tracer: Tracer | None) -> None:
        self.upserts = 0
        self.match_rows = 0
        for name in ("upsert", "record_matches", "record_match", "add_example"):
            fn = getattr(db, name)
            if tracer is not None:
                fn = tracer.wrap(fn, f"db.{name}")
            setattr(db, name, self._counted(name, fn))

    def _counted(self, name, fn):
        def call(*args, **kwargs):
            if name == "upsert":
                self.upserts += 1
            elif name == "record_matches":
                self.match_rows += len(args[0])
            elif name == "record_match":
                self.match_rows += 1
            return fn(*args, **kwargs)

        return call
