"""Open-loop load generator for ``serve-stream`` (a separate process).

Usage (driven by ``perfbench/run.py`` over stdin/stdout)::

    python3 perfbench/loadgen.py --seed 7 --count 40000 --rate 4000 --prefix 20000

It generates the workload's timed records (drawn after a learning
prefix of ``--prefix`` records, as the server's set-up draws them),
prints ``ready``, then for every ``go HOST PORT T0`` line on stdin
opens one TCP connection and sends record *i* as newline-framed JSON at
``T0 + i / rate`` on the shared monotonic clock, never slowing down when
the server does.  After each session it prints one JSON line: records
sent, seconds spent, ``lag_max_ms`` — how late, at worst, a record
left after its scheduled time (a lagging generator invalidates the
run) — and ``churn_share``, the share of records drawn from a template
the churn added.  ``quit`` or end of input exits.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import bootstrap  # noqa: E402

bootstrap.use_checkout_source()

from perfbench import inputs  # noqa: E402


def send(host: str, port: int, t0: float, payload: list[bytes], rate: float) -> dict:
    """One open-loop session; returns what was sent and how late."""
    n = len(payload)
    sent = 0
    lag_max = 0.0
    clock = time.monotonic
    with socket.create_connection((host, port)) as sock:
        while clock() < t0:
            time.sleep(min(0.001, max(0.0, t0 - clock())))
        while sent < n:
            now = clock()
            due = min(n, int((now - t0) * rate) + 1)
            if due > sent:
                lag_max = max(lag_max, now - (t0 + sent / rate))
                sock.sendall(b"".join(payload[sent:due]))
                sent = due
            else:
                time.sleep(max(0.0, t0 + sent / rate - now))
        sock.shutdown(socket.SHUT_WR)
    return {"sent": sent, "seconds": clock() - t0, "lag_max_ms": lag_max * 1e3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--prefix", type=int, required=True)
    args = parser.parse_args(argv)
    churned: set[str] = set()
    _, timed = inputs.serve_records(args.seed, args.count, args.prefix, churned)
    records = list(timed)
    payload = [(line + "\n").encode("utf-8") for line in inputs.jsonl(records)]
    churn_share = sum(r.message in churned for r in records) / max(1, len(records))
    print("ready", flush=True)
    for command in sys.stdin:
        words = command.split()
        if not words or words[0] == "quit":
            break
        _, host, port, t0 = words
        report = send(host, int(port), float(t0), payload, args.rate)
        report["churn_share"] = churn_share
        print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
