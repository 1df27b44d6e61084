"""The ``serve-stream`` workload: network → serve → stream mode.

A separate generator process (:mod:`perfbench.loadgen`) sends
newline-framed JSONL over one TCP connection, open loop, at ``RATE``
records per second.  This process runs :class:`repro.serve.ServeServer`
over a stream-mode :class:`repro.core.pipeline.SequenceRTG` with the
default :class:`repro.core.config.StreamingConfig` (drift merge and
split on).  A record's latency runs from its *scheduled* send time to
the end of the micro-batch that scanned, parsed and absorbed it, so a
flush stall is charged to every record that waited behind it.

At the production model's template churn (see :mod:`perfbench.inputs`)
the window's distinct unmatched messages stay below the default
``flush_pending`` (about 1,600 of 2,048 after the 40k-record prefix), so
no flush lands inside the window: the flush that mines the window's
evidence, with its drift maintenance, runs when the server drains.  Its
cost shows in ``cpu_ms_per_kmsg`` (the drain is part of the run's CPU),
in ``stream.flush_s`` and in the record's ``drain_s``, not in the
latency quantiles: whether a flush landed inside a 15-second window
would decide the tail figures.

Records are processed in arrival order (one connection, one shard, a
FIFO micro-batch buffer), so the k-th record of the micro-batch stream
is the k-th record sent.  Every record is accounted for: offered =
processed + shed + malformed + never admitted.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import repro.serve.server as serve_server
from repro.core.config import RTGConfig
from repro.core.pipeline import SequenceRTG
from repro.serve import FrameDecoder, ListenSpec, ServeConfig, ServeServer

from perfbench import inputs
from perfbench.checks import stored_pattern_errors
from perfbench.filefed import SETUP_REPS, Totals, batch_layers
from perfbench.measure import (
    HostSpeed,
    cpu_delta,
    cpu_seconds,
    median,
    miner_pids,
    peak_rss_mb,
    quantile,
    windowed_quantile,
)
from perfbench.spans import DBWrites, SpanObserver, Tracer

__all__ = ["RATE", "serve_stream"]

#: open-loop send rate (records per second)
RATE = 4000.0
#: seconds from the session's start command to the first scheduled send
LEAD_S = 0.25
#: seconds the driver waits, after the generator finished, for every
#: sent record to be admitted before it requests drain anyway
ADMIT_TIMEOUT_S = 60.0
#: seconds a drain may take before the run fails
DRAIN_TIMEOUT_S = 120.0


class _Generator:
    """The load generator process and its line protocol."""

    def __init__(self, seed: int, count: int) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).with_name("loadgen.py")),
                "--seed", str(seed),
                "--count", str(count),
                "--rate", repr(RATE),
                "--prefix", str(inputs.SERVE_PREFIX),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self.process.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("load generator failed to start")

    def session(self, host: str, port: int, t0: float) -> dict:
        self.process.stdin.write(f"go {host} {port} {t0!r}\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("load generator exited mid-session")
        return json.loads(line)

    def close(self) -> None:
        process = self.process
        try:
            if process.poll() is None:
                process.stdin.write("quit\n")
                process.stdin.flush()
        except (BrokenPipeError, OSError):
            pass
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        for stream in (process.stdin, process.stdout):
            try:
                stream.close()
            except (BrokenPipeError, OSError):
                pass


def _build(prefix):
    """Set-up: stream-mode miner, learning prefix, listener bind."""
    rtg = SequenceRTG(config=RTGConfig(mode="stream"))
    driver = rtg.stream_driver()
    # whole micro-batches only: a partial one left buffered would be
    # processed with the first timed records and shift their latencies
    driver.feed(prefix[: len(prefix) - len(prefix) % driver.config.micro_batch_size])
    driver.flush()
    server = ServeServer(
        driver, ServeConfig(listen=(ListenSpec(scheme="tcp", host="127.0.0.1", port=0),))
    )
    server.start_in_background()
    return server


def _session(generator: _Generator, server: ServeServer, n: int, tracer: Tracer | None) -> dict:
    """One open-loop session into *server*, then drain; raw measurements."""
    driver = server.miner
    stamps: list[tuple[float, int]] = []
    batch_s: list[float] = []
    totals = Totals()

    def on_batch(result, seconds) -> None:
        totals.add(result)
        if result.n_records:
            stamps.append((time.monotonic(), result.n_records))
            batch_s.append(seconds)

    driver.rtg.engine.observers.append(SpanObserver(tracer, on_batch=on_batch))
    host, port = dict(server.endpoints)["tcp"].rsplit(":", 1)
    flushes = driver.stats.n_flushes
    pids = miner_pids()
    cpu0 = cpu_seconds(pids)
    t0 = time.monotonic() + LEAD_S
    report = generator.session(host, int(port), t0)
    stats = server.stats
    deadline = time.monotonic() + ADMIT_TIMEOUT_S
    while (
        stats.accepted + stats.shed + stats.malformed < report["sent"]
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    admitted = (stats.accepted, stats.shed, stats.malformed)
    drain_began = time.monotonic()
    server.shutdown(timeout=DRAIN_TIMEOUT_S)
    drained = time.monotonic()
    drain_s = drained - drain_began
    cpu_s = cpu_delta(cpu0, cpu_seconds(pids))
    rss = peak_rss_mb(pids)
    latencies = []
    k = 0
    for end, count in stamps:
        latencies.extend(end - (t0 + (k + j) / RATE) for j in range(count))
        k += count
    return {
        "t0": t0,
        "t1": stamps[-1][0] if stamps else t0,
        "offered": n,
        "report": report,
        "admitted_before_drain": admitted,
        "processed": k,
        "latencies": latencies,
        "batch_s": batch_s,
        "batch_end": [end for end, _ in stamps],
        "totals": totals,
        "cpu_s": cpu_s,
        "rss_mb": rss,
        "flushes": driver.stats.n_flushes - flushes,
        "drain_s": drain_s,
        "drained": drained,
    }


def _instrument(server: ServeServer, tracer: Tracer) -> dict:
    """Wrap the public calls of every serving layer; returns the probe
    the wrappers fill (router depth, DB write counts)."""
    driver = server.miner
    router = server.router
    probe = {"depth_max": 0}
    for name in ("offer", "poll", "flush", "close"):
        setattr(driver, name, tracer.wrap(getattr(driver, name), f"driver.{name}"))
    engine = driver.rtg.engine
    engine.flush = tracer.wrap(engine.flush, "engine.flush")
    router.offer = tracer.wrap(router.offer, "router.offer")
    router.wait_for = tracer.wrap(router.wait_for, "router.wait_for")
    take_batch = tracer.wrap(router.take_batch, "router.take_batch")

    def sampled_take(max_records):
        probe["depth_max"] = max(probe["depth_max"], router.total_queued)
        return take_batch(max_records)

    router.take_batch = sampled_take
    probe["writes"] = DBWrites(driver.rtg.db, tracer)
    return probe


def serve_stream(seed: int, seconds: float, trace: bool, out, speed: HostSpeed) -> dict:
    n = int(seconds * RATE)
    prefix, _ = inputs.serve_records(seed, n)
    generator = _Generator(seed, n)
    servers: list[ServeServer] = []
    try:
        raw, adjusted = [], []
        for _ in range(SETUP_REPS):
            if servers:
                servers.pop().shutdown()
            began = time.monotonic()
            servers.append(_build(prefix))
            ended = time.monotonic()
            raw.append(ended - began)
            adjusted.append(raw[-1] / speed.factor(began, ended))
        setup = {"s": median(adjusted), "raw_s": median(raw)}
        server = servers[-1]
        untraced = _session(generator, server, n, tracer=None)
        run = _report(untraced, setup, server, speed)
        run["meta"]["config"] = asdict(server.miner.rtg.config)
        run["meta"]["serve_config"] = asdict(server.config)
        run["output_errors"] = stored_pattern_errors(server.miner.rtg.db)
        if not trace:
            return run

        # built right before its session, as the untraced server was:
        # the default flush interval counts from the set-up's last flush
        spare = _build(prefix)
        servers.append(spare)
        tracer = Tracer()
        rtg = spare.miner.rtg
        services = inputs.serve_services()
        versions = {s: rtg.parser_for(s).version for s in services}
        probe = _instrument(spare, tracer)
        feed, parse_record = FrameDecoder.feed, serve_server.parse_record
        FrameDecoder.feed = tracer.wrap(feed, "framing.feed")
        serve_server.parse_record = tracer.wrap(parse_record, "ingest.parse_record")
        try:
            traced = _session(generator, spare, n, tracer)
        finally:
            FrameDecoder.feed, serve_server.parse_record = feed, parse_record
        summary = tracer.summary(traced["t0"], traced["t1"], "serve-dispatch")
        run["layers"] = _layers(traced, summary, spare, probe, versions)
        # open loop: the schedule fixes wall time, so tracing cost shows
        # as miner CPU over the same records, each at the reference
        # host speed
        def cpu(session) -> float:
            return session["cpu_s"] / speed.factor(session["t0"], session["drained"])

        overhead = cpu(traced) / cpu(untraced) - 1.0
        run["trace"] = tracer.report(
            summary, overhead, out.with_name(out.name + ".spans.jsonl")
        )
        run["output_errors"] += stored_pattern_errors(rtg.db)
        return run
    finally:
        for server in servers:
            server.shutdown()
        generator.close()


def _report(session: dict, setup: dict, server: ServeServer, speed: HostSpeed) -> dict:
    """The session's metrics, at the reference host speed and as timed.

    Micro-batch times are divided by the host speed factor around the
    moment each ended, the miner's CPU (which includes the drain's
    flush) by the factor over the session (:class:`HostSpeed`).  The
    throughput and the latencies of the open loop are not adjusted: the
    send schedule fixes the one, and the dispatcher's waits for records
    are part of the other."""
    processed = session["processed"]
    accepted, shed, malformed = session["admitted_before_drain"]
    sent = session["report"]["sent"]
    wall = session["t1"] - session["t0"]
    latencies = session["latencies"]
    factor = speed.factor(session["t0"], session["drained"])

    def metrics(batch_s, cpu_s, setup_s) -> dict:
        return {
            "throughput_msgs_per_s": processed / wall if wall > 0 else 0.0,
            "batch_p50_ms": quantile(batch_s, 0.50) * 1e3,
            "batch_p90_ms": quantile(batch_s, 0.90) * 1e3,
            "latency_p50_ms": quantile(latencies, 0.50) * 1e3,
            "latency_p99_ms": windowed_quantile(
                ((x, 1) for x in latencies), 0.99, len(batch_s)
            ) * 1e3,
            "cpu_ms_per_kmsg": cpu_s * 1e3 / (processed / 1e3),
            "peak_rss_mb": session["rss_mb"],
            "setup_s": setup_s,
        }

    raw = metrics(session["batch_s"], session["cpu_s"], setup["raw_s"])
    e2e = metrics(
        [s / speed.around(end) for s, end in zip(session["batch_s"], session["batch_end"])],
        session["cpu_s"] / factor,
        setup["s"],
    )
    return {
        "attempted": session["offered"],
        "processed": processed,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "meta": {
            "host_speed_factor": factor,
            "rate_msgs_per_s": RATE,
            "micro_batches": len(session["batch_s"]),
            "flushes": session["flushes"],
            "drain_s": session["drain_s"],
            "churn_share": session["report"]["churn_share"],
            "loadgen": session["report"],
            "accounting": {
                "offered": session["offered"],
                "unsent": session["offered"] - sent,
                "sent": sent,
                "accepted": accepted,
                "shed": shed,
                "malformed": malformed,
                "never_admitted": sent - accepted - shed - malformed,
                "processed": processed,
                "server_accepted_final": server.stats.accepted,
            },
        },
    }


def _layers(session: dict, summary: dict, server: ServeServer, probe: dict, versions) -> dict:
    rtg = server.miner.rtg
    busy = summary["busy_s"]
    durations = summary["durations"]
    flush_s = durations.get("driver.flush", 0.0)
    layers = batch_layers(session["totals"])
    stats = server.stats
    layers.update(
        {
            "ingest.busy_s": busy.get("ingest", 0.0),
            "ingest.lines": stats.frames,
            "ingest.malformed": stats.malformed,
            "scan.busy_s": busy.get("scan", 0.0),
            "parse.busy_s": busy.get("parse", 0.0),
            "parse.version_bumps": sum(
                rtg.parser_for(s).version - v for s, v in versions.items()
            ),
            "partition.busy_s": busy.get("partition", 0.0),
            "analyze.busy_s": busy.get("analyze", 0.0),
            "persist.busy_s": busy.get("persist", 0.0),
            "persist.upserts": probe["writes"].upserts,
            "persist.match_rows": probe["writes"].match_rows,
            "framing.busy_s": busy.get("framing", 0.0),
            "serve.admit_p99_ms": stats.latency_quantile(0.99) * 1e3,
            "router.busy_s": busy.get("router", 0.0),
            "router.wait_s": busy.get("router_wait", 0.0),
            "router.depth_max": probe["depth_max"],
            "stream.microbatch_s": durations.get("engine.batch", 0.0),
            "stream.flush_s": flush_s,
            "stream.maintain_s": flush_s - durations.get("engine.flush", 0.0),
            "stream.flushes": session["flushes"],
            "loadgen.lag_max_ms": session["report"]["lag_max_ms"],
            "loadgen.sent": session["report"]["sent"],
            "engine.busy_s": busy.get("engine", 0.0),
        }
    )
    return layers
