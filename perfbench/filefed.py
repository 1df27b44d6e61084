"""The two file-fed workloads: ``serial-steady`` and ``pool-churn``.

Both run a closed loop: the next batch is handed to
``analyze_by_service`` only after the previous one returned, until the
run's seconds are up (or the generated input runs out, which only a
program far faster than today's could reach).  Every DB write carries a
fixed ``now``, so the final ``PatternDB.dump()`` can be compared with a
serial batch-mode run of the same records; every stored pattern is
also checked on its own (:func:`perfbench.checks.stored_pattern_errors`).
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import asdict
from datetime import datetime
from multiprocessing.connection import Connection

from repro.core.config import RTGConfig
from repro.core.engine import StageObserver
from repro.core.ingest import StreamIngester
from repro.core.parallel import PersistentParallelSequenceRTG, shard_records
from repro.core.pipeline import SequenceRTG

from perfbench import inputs
from perfbench.checks import dump_errors, stored_pattern_errors
from perfbench.measure import (
    HostSpeed,
    cpu_delta,
    cpu_seconds,
    median,
    miner_pids,
    peak_rss_mb,
    quantile,
    weighted_quantile,
    windowed_quantile,
)
from perfbench.spans import DBWrites, SpanObserver, Tracer

__all__ = [
    "NOW",
    "SETUP_REPS",
    "serial_steady",
    "pool_churn",
    "reference_errors",
    "batch_layers",
    "Totals",
]

#: timestamp of every DB write on the file-fed paths
NOW = datetime(2021, 9, 7, 12, 0, 0)
#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: timed-input headroom: records generated per second of run, well
#: above today's rate, so the clock and not the input ends a run
STEADY_RECORDS_PER_S = 50_000
CHURN_RECORDS_PER_S = 10_000
#: ``peak_rss_mb`` is read after this many records per second of run,
#: about half today's rate as timed on a slow shared host, so every run
#: reaches it (the miner's memory grows with the records it has mined:
#: read at the end of a run that fell short, it varied with the host)
STEADY_RSS_RECORDS_PER_S = 10_000
CHURN_RSS_RECORDS_PER_S = 2_000
#: ``pool-churn`` batches mined through the pool during set-up (spawns
#: and seeds every worker and warms its caches)
CHURN_WARM_BATCHES = 4


def _batches(records, size=inputs.BATCH_SIZE):
    """Consecutive lists of *size* records from any iterable."""
    iterator = iter(records)
    while batch := list(itertools.islice(iterator, size)):
        yield batch


def _mine(miner, records) -> None:
    for batch in _batches(records):
        miner.analyze_by_service(batch, now=NOW)


def _sorted_dump(db) -> list[dict]:
    return sorted(db.dump(), key=lambda entry: entry["id"])


def reference_errors(db, records) -> int:
    """Check *db* against a serial batch-mode run over *records*, and
    check every stored pattern on its own (which a bug shared by both
    runs cannot hide)."""
    reference = SequenceRTG()
    try:
        _mine(reference, records)
        errors = dump_errors(_sorted_dump(db), _sorted_dump(reference.db))
    finally:
        reference.db.close()
    return errors + stored_pattern_errors(db)


class _Ingester(StreamIngester):
    """The ingester, stamping the time each batch finished decoding (in
    the pipelined reader's thread when ``batches_pipelined`` drives it)
    and, given a tracer, recording each batch's decode as a span."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        super().__init__(batch_size=inputs.BATCH_SIZE)
        self.tracer = tracer
        #: monotonic decode-finish time of every batch, in batch order
        self.decoded: list[float] = []

    def batches(self, lines):
        batches = StreamIngester.batches(self, lines)
        if self.tracer is not None:
            batches = self.tracer.wrap_iter(batches, "ingest.decode")
        try:
            for batch in batches:
                self.decoded.append(time.monotonic())
                yield batch
        finally:
            batches.close()


class _GroupStamps(StageObserver):
    """Engine hook stamping the end of every service group's persist
    stage: from then on the group's records are queryable."""

    def __init__(self) -> None:
        self.stamps: list[tuple[float, int]] = []

    def on_stage_end(self, stage, ctx) -> None:
        if stage == "persist":
            self.stamps.append((time.monotonic(), len(ctx.records)))


def _closed_loop(
    analyze, batches, decoded, groups=None, seconds=None, max_batches=None, rss=None
) -> dict:
    """Feed batches to *analyze* one at a time; time each call.

    A record's latency runs from the end of its batch's decode
    (*decoded*) to the moment it is queryable: the end of its service
    group's persist stage when *groups* (a :class:`_GroupStamps`
    list) is given, else the end of the batch.  The moments batches
    and latencies end are kept for :meth:`HostSpeed.around`.

    *rss* is ``(records, pids)``: the peak RSS of *pids* is read once
    that many records are mined (or at the end, if fewer are), so the
    memory a run reports belongs to the same amount of work whatever
    the program's speed.
    """
    clock = time.monotonic
    totals = Totals()
    batch_s: list[float] = []
    batch_end: list[float] = []
    latencies: list[tuple[float, int]] = []
    latency_end: list[float] = []
    rss_mb = None
    t0 = clock()
    deadline = None if seconds is None else t0 + seconds
    iterator = iter(batches)
    try:
        while max_batches is None or totals.batches < max_batches:
            batch = next(iterator, None)
            if batch is None:
                break
            ready = decoded[totals.batches]
            first_group = len(groups) if groups is not None else 0
            handed = clock()
            result = analyze(batch, now=NOW)
            done = clock()
            totals.add(result)
            del result
            batch_s.append(done - handed)
            batch_end.append(done)
            if groups is None:
                latencies.append((done - ready, len(batch)))
                latency_end.append(done)
            else:
                for end, n in groups[first_group:]:
                    latencies.append((end - ready, n))
                    latency_end.append(end)
            if rss is not None and rss_mb is None and totals.records >= rss[0]:
                rss_mb = peak_rss_mb(rss[1])
            if deadline is not None and done >= deadline:
                break
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()
    t1 = clock()
    if rss is not None and rss_mb is None:
        rss_mb = peak_rss_mb(rss[1])
    return {
        "t0": t0,
        "t1": t1,
        "totals": totals,
        "batch_s": batch_s,
        "batch_end": batch_end,
        "latencies": latencies,
        "latency_end": latency_end,
        "rss_mb": rss_mb,
    }


def _end_to_end(loop: dict, cpu_s: float, setup: dict, speed: HostSpeed) -> tuple[dict, dict]:
    """(metrics at the reference host speed, metrics as timed).

    Per-batch times and latencies are divided by the host speed factor
    around the moment each ended, the phase's wall and CPU seconds by
    the factor over the whole phase (:class:`HostSpeed`)."""
    processed = loop["totals"].records
    wall = loop["t1"] - loop["t0"]
    factor = speed.factor(loop["t0"], loop["t1"])

    def metrics(batch_s, latencies, wall, cpu_s, setup_s) -> dict:
        return {
            "throughput_msgs_per_s": processed / wall,
            "batch_p50_ms": quantile(batch_s, 0.50) * 1e3,
            "batch_p90_ms": quantile(batch_s, 0.90) * 1e3,
            "latency_p50_ms": weighted_quantile(latencies, 0.50) * 1e3,
            "latency_p99_ms": windowed_quantile(latencies, 0.99, len(batch_s)) * 1e3,
            "cpu_ms_per_kmsg": cpu_s * 1e3 / (processed / 1e3),
            "peak_rss_mb": loop["rss_mb"],
            "setup_s": setup_s,
        }

    raw = metrics(loop["batch_s"], loop["latencies"], wall, cpu_s, setup["raw_s"])
    adjusted = metrics(
        [s / speed.around(end) for s, end in zip(loop["batch_s"], loop["batch_end"])],
        [
            (s / speed.around(end), n)
            for (s, n), end in zip(loop["latencies"], loop["latency_end"])
        ],
        wall / factor,
        cpu_s / factor,
        setup["s"],
    )
    return adjusted, raw


class Totals:
    """Running sums of the telemetry every engine reports per batch.

    Batch results are folded in and dropped, so the benchmark keeps no
    per-batch objects alive for the program's garbage collector to
    scan.
    """

    def __init__(self) -> None:
        self.batches = self.records = self.matched = self.unmatched = 0
        self.partitions = self.new_patterns = self.max_trie_nodes = 0
        self.sync_bytes = 0
        self.cache: dict[str, int] = {}
        self.timings: dict[str, float] = {}
        self.candidates_sum = self.candidates_count = 0.0

    def add(self, result) -> None:
        self.batches += 1
        self.records += result.n_records
        self.matched += result.n_matched
        self.unmatched += result.n_unmatched
        self.partitions += result.n_partitions
        self.new_patterns += result.n_new_patterns
        self.max_trie_nodes = max(self.max_trie_nodes, result.max_trie_nodes)
        self.sync_bytes += result.pool.get("sync_bytes", 0)
        for key, value in result.cache.items():
            self.cache[key] = self.cache.get(key, 0) + value
        for key, value in result.timings.items():
            self.timings[key] = self.timings.get(key, 0.0) + value
        for sample in result.metrics.get("rtg_parse_candidates", {}).get("samples", ()):
            self.candidates_sum += sample["sum"]
            self.candidates_count += sample["count"]


def batch_layers(totals: Totals) -> dict:
    """Per-layer counts every engine reports in its ``BatchResult``."""
    records = totals.records
    cache = totals.cache

    def ratio(hit: str, miss: str) -> float:
        total = cache.get(hit, 0) + cache.get(miss, 0)
        return cache.get(hit, 0) / total if total else 0.0

    return {
        "scan.msgs": records,
        "fastpath.scan_hit_ratio": ratio("scan_hits", "scan_misses"),
        "fastpath.dedup_ratio": ratio("dedup_duplicates", "dedup_unique"),
        "parse.msgs": cache.get("dedup_unique", records),
        "parse.matched_ratio": totals.matched / records if records else 0.0,
        "fastpath.match_hit_ratio": ratio("match_hits", "match_misses"),
        "parse.candidates_mean": (
            totals.candidates_sum / totals.candidates_count if totals.candidates_count else 0.0
        ),
        "partition.count": totals.partitions,
        "analyze.msgs": totals.unmatched,
        "analyze.trie_nodes_max": totals.max_trie_nodes,
        "analyze.new_patterns_per_kmsg": (
            totals.new_patterns * 1e3 / records if records else 0.0
        ),
    }


def _setups(build, reps: int, keep: int, speed: HostSpeed):
    """Run *build* (returns a miner) *reps* times, and at least *keep*
    times; returns ``{"s", "raw_s"}`` — the median seconds of a set-up
    at the reference host speed, and as timed — and the miners of the
    last *keep* set-ups.  Older miners are closed before the next
    set-up starts."""
    adjusted, raw, kept = [], [], []
    for _ in range(max(reps, keep)):
        while len(kept) >= keep:
            _close(kept.pop(0))
        began = time.monotonic()
        kept.append(build())
        ended = time.monotonic()
        raw.append(ended - began)
        adjusted.append(raw[-1] / speed.factor(began, ended))
    return {"s": median(adjusted), "raw_s": median(raw)}, kept


def _close(miner) -> None:
    close = getattr(miner, "close", None)
    if close is not None:
        close()
    miner.db.close()


# ----------------------------------------------------------------------
# serial-steady
# ----------------------------------------------------------------------

def serial_steady(seed: int, seconds: float, trace: bool, out, speed: HostSpeed) -> dict:
    prefix, timed = inputs.steady_records(seed, int(seconds * STEADY_RECORDS_PER_S))
    path = out.with_name(out.name + ".input.jsonl")
    generated = inputs.write_jsonl(path, timed)
    try:
        return _serial_steady(prefix, path, generated, seconds, trace, out, speed)
    finally:
        path.unlink()


def _serial_steady(prefix, path, generated, seconds, trace, out, speed) -> dict:
    def build() -> SequenceRTG:
        rtg = SequenceRTG()
        _mine(rtg, prefix)
        return rtg

    setup, kept = _setups(build, SETUP_REPS, keep=2 if trace else 1, speed=speed)
    rtg, spare = kept[-1], kept[0]
    pids = miner_pids()
    cpu0 = cpu_seconds(pids)
    ingester = _Ingester()
    groups = _GroupStamps()
    rtg.engine.observers.append(groups)
    with open(path, encoding="utf-8") as lines:
        loop = _closed_loop(
            rtg.analyze_by_service,
            ingester.batches(lines),
            ingester.decoded,
            groups.stamps,
            seconds=seconds,
            rss=(int(seconds * STEADY_RSS_RECORDS_PER_S), pids),
        )
    cpu_s = cpu_delta(cpu0, cpu_seconds(pids))
    e2e, raw = _end_to_end(loop, cpu_s, setup, speed)
    processed = loop["totals"].records
    attempted = processed + ingester.stats.n_malformed
    run = {
        "attempted": attempted,
        "processed": processed,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "meta": {
            "host_speed_factor": speed.factor(loop["t0"], loop["t1"]),
            "config": asdict(rtg.config),
            "batches": loop["totals"].batches,
            "records_generated": generated,
        },
    }
    if not trace:
        run["output_errors"] = reference_errors(
            rtg.db, itertools.chain(prefix, inputs.read_records(path, processed))
        )
        _close(rtg)
        return run

    _close(rtg)
    tracer = Tracer()
    services = {r.service for r in prefix}
    services.update(r.service for r in inputs.read_records(path, processed))
    versions = {s: spare.parser_for(s).version for s in services}
    groups = _GroupStamps()
    spare.engine.observers.extend([groups, SpanObserver(tracer)])
    writes = DBWrites(spare.db, tracer)
    traced_ingester = _Ingester(tracer)
    with open(path, encoding="utf-8") as lines:
        traced = _closed_loop(
            tracer.wrap(spare.analyze_by_service, "rtg.analyze_by_service"),
            traced_ingester.batches(lines),
            traced_ingester.decoded,
            groups.stamps,
            max_batches=loop["totals"].batches,
        )
    summary = tracer.summary(traced["t0"], traced["t1"], "MainThread")
    busy = summary["busy_s"]
    bumps = sum(spare.parser_for(s).version - v for s, v in versions.items())
    layers = batch_layers(traced["totals"])
    layers.update(
        {
            "ingest.busy_s": busy.get("ingest", 0.0),
            "ingest.lines": traced_ingester.stats.n_lines,
            "ingest.malformed": traced_ingester.stats.n_malformed,
            "scan.busy_s": busy.get("scan", 0.0),
            "parse.busy_s": busy.get("parse", 0.0),
            "parse.version_bumps": bumps,
            "partition.busy_s": busy.get("partition", 0.0),
            "analyze.busy_s": busy.get("analyze", 0.0),
            "persist.busy_s": busy.get("persist", 0.0),
            "persist.upserts": writes.upserts,
            "persist.match_rows": writes.match_rows,
            "engine.busy_s": busy.get("engine", 0.0),
        }
    )
    run["layers"] = layers
    run["trace"] = _trace_report(tracer, summary, loop, traced, out, speed)
    run["output_errors"] = reference_errors(
        spare.db, itertools.chain(prefix, inputs.read_records(path, traced["totals"].records))
    )
    _close(spare)
    return run


def _trace_report(tracer, summary, loop, traced, out, speed) -> dict:
    """Tracing metrics of a traced replay; the overhead is its wall time
    over the untraced phase's, on the same records, each at the
    reference host speed."""

    def wall(phase) -> float:
        return (phase["t1"] - phase["t0"]) / speed.factor(phase["t0"], phase["t1"])

    overhead = wall(traced) / wall(loop) - 1.0
    return tracer.report(summary, overhead, out.with_name(out.name + ".spans.jsonl"))


# ----------------------------------------------------------------------
# pool-churn
# ----------------------------------------------------------------------

def _workers() -> int:
    return len(os.sched_getaffinity(0))


def _merge_seconds(tracer: Tracer) -> float:
    """Parent time from the last worker reply of a batch to the end of
    ``analyze_by_service`` — the serial merge-and-persist tail."""
    total = 0.0
    for thread, spans in tracer.all_spans():
        if thread != "MainThread":
            continue
        last_recv: dict[int, float] = {}
        for name, start, end, parent in spans:
            if name == "pool.recv" and end is not None and parent >= 0:
                last_recv[parent] = max(last_recv.get(parent, start), end)
        for index, (name, start, end, parent) in enumerate(spans):
            if name == "pool.analyze_by_service" and end is not None:
                total += end - last_recv.get(index, start)
    return total


def pool_churn(seed: int, seconds: float, trace: bool, out, speed: HostSpeed) -> dict:
    n_timed = int(seconds * CHURN_RECORDS_PER_S) // inputs.BATCH_SIZE
    records = inputs.churn_records(seed, CHURN_WARM_BATCHES + n_timed)
    warm = list(itertools.islice(records, CHURN_WARM_BATCHES * inputs.BATCH_SIZE))
    path = out.with_name(out.name + ".input.jsonl")
    generated = inputs.write_jsonl(path, records)
    try:
        return _pool_churn(warm, path, generated, seconds, trace, out, speed)
    finally:
        path.unlink()


def _pool_churn(warm, path, generated, seconds, trace, out, speed) -> dict:
    n_workers = _workers()
    prefetch = RTGConfig().ingest_prefetch

    def build() -> PersistentParallelSequenceRTG:
        pool = PersistentParallelSequenceRTG(n_workers=n_workers)
        _mine(pool, warm)
        return pool

    setup, kept = _setups(build, SETUP_REPS, keep=2 if trace else 1, speed=speed)
    pool, spare = kept[-1], kept[0]
    pids = miner_pids()
    cpu0 = cpu_seconds(pids)
    ingester = _Ingester()
    with open(path, encoding="utf-8") as lines:
        loop = _closed_loop(
            pool.analyze_by_service,
            ingester.batches_pipelined(lines, prefetch=prefetch),
            ingester.decoded,
            seconds=seconds,
            rss=(int(seconds * CHURN_RSS_RECORDS_PER_S), pids),
        )
    cpu_s = cpu_delta(cpu0, cpu_seconds(pids))
    e2e, raw = _end_to_end(loop, cpu_s, setup, speed)
    processed = loop["totals"].records
    run = {
        "attempted": processed + ingester.stats.n_malformed,
        "processed": processed,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "meta": {
            "host_speed_factor": speed.factor(loop["t0"], loop["t1"]),
            "config": asdict(pool.config),
            "workers": n_workers,
            "miner_processes": len(pids),
            "batches": loop["totals"].batches,
            "records_generated": generated,
        },
    }
    if not trace:
        run["output_errors"] = reference_errors(
            pool.db, itertools.chain(warm, inputs.read_records(path, processed))
        )
        _close(pool)
        return run

    _close(pool)
    tracer = Tracer()
    writes = DBWrites(spare.db, tracer)
    traced_ingester = _Ingester(tracer)
    original_recv = Connection.recv
    # the workers were forked during set-up, so only the parent's
    # blocking reads of worker replies are recorded
    Connection.recv = tracer.wrap(original_recv, "pool.recv")
    try:
        with open(path, encoding="utf-8") as lines:
            traced = _closed_loop(
                tracer.wrap(spare.analyze_by_service, "pool.analyze_by_service"),
                tracer.wrap_iter(
                    traced_ingester.batches_pipelined(lines, prefetch=prefetch),
                    "ingest.wait",
                ),
                traced_ingester.decoded,
                max_batches=loop["totals"].batches,
            )
    finally:
        Connection.recv = original_recv
    summary = tracer.summary(traced["t0"], traced["t1"], "MainThread")
    busy = summary["busy_s"]
    totals = traced["totals"]
    timings = totals.timings
    skews = []
    for batch in _batches(inputs.read_records(path, totals.records)):
        sizes = [len(s) for s in shard_records(batch, n_workers)]
        skews.append(max(sizes) * len(sizes) / sum(sizes))
    layers = batch_layers(totals)
    layers.update(
        {
            "ingest.busy_s": busy.get("ingest", 0.0),
            "ingest.lines": traced_ingester.stats.n_lines,
            "ingest.malformed": traced_ingester.stats.n_malformed,
            # worker-side stage seconds (BatchResult.timings, summed
            # over workers)
            "scan.busy_s": timings.get("scan", 0.0),
            "parse.busy_s": timings.get("parse", 0.0),
            # the workers' parsers are out of reach from the parent,
            # and no telemetry carries their versions: not measured
            "parse.version_bumps": 0,
            "partition.busy_s": timings.get("partition_length", 0.0),
            "analyze.busy_s": timings.get("analyze", 0.0),
            # worker persist stage + the parent's merge writes
            "persist.busy_s": timings.get("persist", 0.0) + busy.get("persist", 0.0),
            "persist.upserts": writes.upserts,
            "persist.match_rows": writes.match_rows,
            "pool.barrier_wait_s": busy.get("pool_barrier", 0.0),
            "pool.merge_s": _merge_seconds(tracer),
            "pool.worker_busy_s": sum(timings.values()),
            "pool.sync_bytes": totals.sync_bytes,
            "pool.shard_skew": sum(skews) / len(skews) if skews else 0.0,
            "engine.busy_s": busy.get("pool_parent", 0.0),
        }
    )
    run["layers"] = layers
    run["trace"] = _trace_report(tracer, summary, loop, traced, out, speed)
    run["output_errors"] = reference_errors(
        spare.db, itertools.chain(warm, inputs.read_records(path, totals.records))
    )
    _close(spare)
    return run
