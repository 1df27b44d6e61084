"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload serial-steady --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for the reason behind each):

* ``serial-steady`` — file → serial ``SequenceRTG``, duplicate-heavy
  steady state after a mined learning prefix;
* ``pool-churn`` — file → warm ``PersistentParallelSequenceRTG``,
  all-fresh records over 241 services with new templates every batch;
* ``serve-stream`` — network → ``ServeServer`` → stream mode, open loop.

With ``--trace 0`` the end-to-end metrics are measured with no
instrumentation beyond the engine hook that stamps batch completion.
With ``--trace 1`` the same untraced phase runs first, then a second
miner built the same way replays the same records with spans recorded
around every layer's public calls; the run then reports the per-layer
metrics, the share of wall time the spans cover and the tracing
overhead (traced minus untraced).  Spans are written to
``perfbench/out/``.

Each run checks its outputs outside the timed phase (``output_errors``)
and accounts for every record offered (``failed``).  The human-readable
report comes first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import bootstrap  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"


def run_limit_s(seconds: float) -> int:
    """Hard limit on one run; the run fails rather than overstaying it.
    170 s at the default 15-second runs, growing with longer runs."""
    return max(170, int(50 + 8 * seconds))


def load_spec() -> dict:
    """The benchmark definition at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_names(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def select_metrics(spec: dict, values: dict, trace: bool) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics *spec* lists
    for this mode; every listed metric must have been measured."""
    entries = spec["per_layer" if trace else "end_to_end"]
    missing = [e["name"] for e in entries if e["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries}


def _run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path, speed) -> dict:
    """Run one workload; *out* is the path stem for its spans and input
    files, *speed* the running :class:`~perfbench.measure.HostSpeed`."""
    if name == "serve-stream":
        from perfbench.serve import serve_stream as runner
    else:
        from perfbench.filefed import pool_churn, serial_steady

        runner = {"serial-steady": serial_steady, "pool-churn": pool_churn}[name]
    return runner(seed, seconds, trace, out, speed)


def measure(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload under a host speed probe; returns the full
    result record, with the probe's readings over the whole run in
    ``machine.host_speed``."""
    from perfbench.measure import HostSpeed, fingerprint, quantile

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    machine = fingerprint(ROOT)
    with HostSpeed() as speed:
        run = _run_workload(name, seed, seconds, trace, OUT / stem, speed)
    factors = [speed.around(t) for t in speed.starts]
    machine["host_speed"] = {
        "probes": len(factors),
        "factor_p10": quantile(factors, 0.10),
        "factor_p50": quantile(factors, 0.50),
        "factor_p90": quantile(factors, 0.90),
    }
    attempted = run["attempted"]
    failed = attempted - run["processed"]
    values = dict(run["end_to_end"])
    if trace:
        values = {e["name"]: 0 for e in spec["per_layer"]}
        unknown = sorted(set(run["layers"]) - set(values))
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        values.update(run["layers"])
        values.update({k: v for k, v in run["trace"].items() if k in values})
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine,
        "attempted": attempted,
        "processed": run["processed"],
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "output_errors": run["output_errors"],
        "end_to_end": run["end_to_end"],
        "end_to_end_raw": run["end_to_end_raw"],
        "layers": run.get("layers", {}),
        "trace_summary": run.get("trace", {}),
        "meta": run["meta"],
        "metrics": select_metrics(spec, values, trace),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    return record


def print_report(record: dict) -> None:
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"seconds {record['seconds']}  trace {int(record['trace'])}"
    )
    machine = record["machine"]
    host = machine["host_speed"]
    print(
        f"machine  nproc {machine['nproc']}  cpu {machine['cpu_model']}  "
        f"python {machine['python']}  load {machine['loadavg']}  "
        f"commit {machine['git_commit']}  host speed factor p10/p50/p90 "
        f"{host['factor_p10']:.3f}/{host['factor_p50']:.3f}/{host['factor_p90']:.3f}"
    )
    print(
        f"records  attempted {record['attempted']}  processed {record['processed']}  "
        f"failed_frac {record['failed_frac']:.6f}  output_errors {record['output_errors']}"
    )
    raw = record["end_to_end_raw"] if not record["trace"] else {}
    if raw:
        print(
            f"host speed factor {record['meta']['host_speed_factor']:.4f}  "
            "(metrics at the reference host speed; as timed on the right)"
        )
    for name, metric in record["metrics"].items():
        timed = f"  {raw[name]:>14.4f}" if name in raw else ""
        print(f"  {name:34s} {metric['value']:>14.4f} {metric['unit']:8s}{timed}")
    summary = record["trace_summary"]
    if summary:
        print("  self time by layer (s):")
        for layer, seconds in sorted(summary["busy_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:20s} {seconds:10.4f}")
        print(f"  spans written to {summary['spans_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Sequence-RTG benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap.use_checkout_source()
        spec = load_spec()
    except (bootstrap.MissingProgram, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workload_names(spec):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    limit = run_limit_s(args.seconds)

    def overstay(signum, frame):
        raise TimeoutError(f"run exceeded {limit} s")

    signal.signal(signal.SIGALRM, overstay)
    signal.alarm(limit)
    try:
        record = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        signal.alarm(0)
    print_report(record)
    print(
        json.dumps(
            {
                "correct": record["output_errors"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
