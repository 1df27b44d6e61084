"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They check that the printed metric names are exactly the ones
``BENCHMARK.json`` lists, that a seed always yields byte-identical
input, that recorded spans nest and report their coverage, that one
slow window does not set ``latency_p99_ms``, that the host speed factor
scales the timed metrics and nothing else, and that the benchmark
refuses to run without the program next to it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import bootstrap  # noqa: E402

bootstrap.use_checkout_source()

from perfbench import filefed, inputs, measure, run, serve  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = run.workload_names(SPEC)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every fixed-size part of the workloads and send run
    output to a temporary directory."""
    monkeypatch.setattr(inputs, "STEADY_PREFIX", 2000)
    monkeypatch.setattr(inputs, "SERVE_PREFIX", 2048)
    monkeypatch.setattr(filefed, "SETUP_REPS", 1)
    monkeypatch.setattr(serve, "SETUP_REPS", 1)
    monkeypatch.setattr(filefed, "STEADY_RECORDS_PER_S", 10_000)
    monkeypatch.setattr(filefed, "CHURN_RECORDS_PER_S", 4_000)
    monkeypatch.setattr(filefed, "CHURN_WARM_BATCHES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_match_spec(tiny, workload, trace):
    record = run.measure(SPEC, workload, seed=3, seconds=0.5, trace=trace)
    listed = [e["name"] for e in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(record["metrics"]) == listed
    units = {e["name"]: e["unit"] for e in SPEC["per_layer" if trace else "end_to_end"]}
    for name, metric in record["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    assert record["output_errors"] == 0
    assert record["failed"] == 0 and record["attempted"] > 0
    if not trace:
        for name in ("throughput_msgs_per_s", "cpu_ms_per_kmsg", "peak_rss_mb", "setup_s"):
            assert record["metrics"][name]["value"] > 0
    else:
        summary = record["trace_summary"]
        assert summary["trace.nesting_errors"] == 0
        assert 0.9 <= summary["trace.coverage"] <= 1.0
        assert Path(summary["spans_file"]).stat().st_size > 0
    assert (tiny / f"{workload}-seed3-trace{int(trace)}.json").exists()


def test_same_seed_same_input():
    def steady(seed):
        prefix, timed = inputs.steady_records(seed, 500)
        return "\n".join(inputs.jsonl(prefix) + inputs.jsonl(timed)).encode()

    def churn(seed):
        return "\n".join(inputs.jsonl(inputs.churn_records(seed, 2, 300))).encode()

    def served(seed):
        prefix, timed = inputs.serve_records(seed, 1500, n_prefix=500)
        return "\n".join(inputs.jsonl(prefix) + inputs.jsonl(timed)).encode()

    for make in (steady, churn, served):
        assert make(5) == make(5)
        assert make(5) != make(6)


def test_spans_nest_and_cover():
    tracer = Tracer()

    def inner():
        time.sleep(0.002)

    scan = tracer.wrap(inner, "scan")

    def batch():
        for _ in range(3):
            scan()

    outer = tracer.wrap(batch, "rtg.analyze_by_service")
    t0 = tracer.clock()
    for _ in range(5):
        outer()
    t1 = tracer.clock()
    side = threading.Thread(target=tracer.wrap(inner, "ingest.decode"), name="side")
    side.start()
    side.join(timeout=5)
    assert not side.is_alive()

    assert tracer.check_nesting() == []
    summary = tracer.summary(t0, t1, "MainThread")
    assert summary["calls"] == {"rtg.analyze_by_service": 5, "scan": 15, "ingest.decode": 1}
    assert summary["coverage"] > 0.95
    assert summary["busy_s"]["scan"] >= 15 * 0.002
    # self time excludes the children: the engine wrapper adds little
    assert summary["busy_s"]["engine"] < summary["busy_s"]["scan"]

    broken = Tracer()
    parent = broken.begin("rtg.analyze_by_service")
    child = broken.begin("scan")
    broken.end(parent)
    time.sleep(0.001)
    broken.end(child)
    assert broken.check_nesting()


def test_windowed_quantile_resists_one_slow_window():
    steady = [(1.0, 1)] * 98 + [(2.0, 1)] * 2
    slow = [(50.0, 1)] * 100
    pairs = steady * 4 + slow
    # one window per 25 batches: 5 windows of 100 pairs, one of them slow
    assert measure.windowed_quantile(pairs, 0.99, batches=125) == 2.0
    assert measure.windowed_quantile(pairs, 0.99, batches=24) == 50.0
    assert measure.windowed_quantile(pairs, 0.99, batches=24) == measure.weighted_quantile(
        pairs, 0.99
    )


def test_host_speed_factor_adjusts_times():
    speed = measure.HostSpeed()
    # probes at twice the reference time from 0 s to 3 s, one at it at 10 s
    speed.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    speed.ms = [measure.PROBE_REF_MS * f for f in (2.0, 2.0, 2.0, 2.0, 1.0)]
    assert speed.factor(0.5, 2.5) == pytest.approx(2.0)
    assert speed.factor(10.5, 11.0) == pytest.approx(1.0)  # the nearest probe
    assert speed.around(1.5) == pytest.approx(2.0)
    totals = filefed.Totals()
    totals.records = 2000
    loop = {
        "t0": 1.0,
        "t1": 2.0,
        "totals": totals,
        "batch_s": [0.4, 0.5],
        "batch_end": [1.5, 2.0],
        "latencies": [(0.2, 1000), (0.3, 1000)],
        "latency_end": [1.5, 2.0],
        "rss_mb": 50.0,
    }
    setup = {"s": 0.5, "raw_s": 1.0}
    adjusted, raw = filefed._end_to_end(loop, cpu_s=1.0, setup=setup, speed=speed)
    assert adjusted["throughput_msgs_per_s"] == pytest.approx(2 * raw["throughput_msgs_per_s"])
    for name in ("batch_p50_ms", "batch_p90_ms", "latency_p50_ms", "latency_p99_ms",
                 "cpu_ms_per_kmsg"):
        assert adjusted[name] == pytest.approx(raw[name] / 2)
    assert adjusted["peak_rss_mb"] == raw["peak_rss_mb"] == 50.0
    assert (adjusted["setup_s"], raw["setup_s"]) == (0.5, 1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_spec_is_well_formed():
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(SPEC) == keys
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in SPEC[key]]
    assert len(names) == len(set(names))
    assert any(e["name"] == "setup_s" and e["unit"] == "s" for e in SPEC["end_to_end"])
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"} and 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    assert json.loads(json.dumps(SPEC)) == SPEC
