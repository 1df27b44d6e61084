"""Process accounting and run metadata (Linux ``/proc``, stdlib only)."""

from __future__ import annotations

import bisect
import math
import multiprocessing
import os
import platform
import resource
import threading
import time
from pathlib import Path

__all__ = [
    "quantile",
    "weighted_quantile",
    "windowed_quantile",
    "median",
    "miner_pids",
    "cpu_seconds",
    "cpu_delta",
    "peak_rss_mb",
    "HostSpeed",
    "fingerprint",
]

_TICK = os.sysconf("SC_CLK_TCK")


def quantile(values, q: float) -> float:
    """Nearest-rank *q*-quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def weighted_quantile(pairs, q: float) -> float:
    """Nearest-rank *q*-quantile of ``(value, weight)`` pairs — the
    quantile of the sample in which each value occurs *weight* times."""
    ordered = sorted(pairs)
    total = sum(weight for _, weight in ordered)
    if not total:
        raise ValueError("quantile of an empty sample")
    rank = max(1, math.ceil(q * total))
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= rank:
            return value
    return ordered[-1][0]


#: batches per ``windowed_quantile`` window: enough that a window's p99
#: is a tail of its batches, not the one slowest batch
BATCHES_PER_WINDOW = 25


def windowed_quantile(pairs, q: float, batches: int) -> float:
    """Median, over consecutive parts of equal weight of the time-ordered
    ``(value, weight)`` pairs, of each part's *q*-quantile: a tail
    quantile that a few slow moments (a slow patch of a shared host, a
    full garbage collection) cannot set on their own.  The pairs come
    from *batches* batches, and each part spans ``BATCHES_PER_WINDOW``
    of them (one part when there are fewer)."""
    windows = max(1, batches // BATCHES_PER_WINDOW)
    pairs = list(pairs)
    total = sum(weight for _, weight in pairs)
    parts: list[list] = [[] for _ in range(windows)]
    seen = 0
    for value, weight in pairs:
        parts[min(windows - 1, seen * windows // total)].append((value, weight))
        seen += weight
    return median(weighted_quantile(part, q) for part in parts if part)


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def miner_pids() -> list[int]:
    """This process plus its live ``multiprocessing`` children — the
    miner's processes when the workload starts no other children
    through ``multiprocessing`` (the load generator is a plain
    ``subprocess`` and is not listed)."""
    return [os.getpid()] + [p.pid for p in multiprocessing.active_children()]


def _proc_cpu(pid: int) -> float:
    if pid == os.getpid():
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime/stime are fields 14/15
    return (int(fields[11]) + int(fields[12])) / _TICK


def cpu_seconds(pids) -> dict[int, float]:
    """User + system CPU seconds of each live process in *pids*."""
    out = {}
    for pid in pids:
        try:
            out[pid] = _proc_cpu(pid)
        except (FileNotFoundError, ProcessLookupError, IndexError, ValueError):
            continue
    return out


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two :func:`cpu_seconds` readings."""
    return sum(after[pid] - before.get(pid, 0.0) for pid in after)


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of *pids*, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (``"unknown"`` outside a git repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


#: the probe's median CPU milliseconds on a quiet host (a 2-vCPU Xeon
#: VM); :meth:`HostSpeed.factor` is the probe's time over this
PROBE_REF_MS = 0.62
#: seconds between the starts of two probes
PROBE_INTERVAL_S = 0.05
#: half-width, in seconds, of the interval :meth:`HostSpeed.around`
#: averages over (about forty probes)
LOCAL_S = 1.0


def _probe() -> float:
    """CPU milliseconds of this thread for a fixed piece of interpreted
    work of the kind the miner does (small strings, dict updates)."""
    began = time.thread_time()
    table: dict[str, int] = {}
    for i in range(3000):
        key = str(i & 1023)
        table[key] = table.get(key, 0) + len(key)
    return (time.thread_time() - began) * 1e3


class HostSpeed:
    """How slow the host runs while the benchmark measures.

    A shared host's speed moves by tens of percent from minute to
    minute, and in phases of a second or two within a minute; the
    program's times move with it.  A background thread times a fixed
    probe every ``PROBE_INTERVAL_S`` in the thread's own CPU time (so
    waiting for the GIL or for a CPU is not counted, only how fast the
    CPU ran the probe).  :meth:`factor` is the mean probe time over an
    interval divided by ``PROBE_REF_MS``.  The benchmark divides the
    times it measures by the factor of the interval they span — a
    whole phase for rates and totals, :meth:`around` the moment a batch
    ended for per-batch times — which expresses them at the reference
    host speed: the program's own cost, with the host's drift taken
    out.  The probe is the benchmark's code, never the program's, so a
    change to the program moves the adjusted times as much as the raw
    ones — except through the load the program itself puts on the CPUs
    the probe shares (the pool's workers), which slows the probe a
    little as it slows the program.
    """

    def __init__(self) -> None:
        #: start (monotonic) and milliseconds of every probe so far, in
        #: time order; ``ms`` is appended first, so it is never shorter
        #: than ``starts`` for a reader on another thread
        self.starts: list[float] = []
        self.ms: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-speed", daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            began = time.monotonic()
            probe_ms = _probe()
            self.ms.append(probe_ms)
            self.starts.append(began)
            self._stop.wait(max(0.0, began + PROBE_INTERVAL_S - time.monotonic()))

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """Mean probe time of the probes started in ``[t0, t1]``
        (monotonic clock) over the reference; the nearest probe's when
        none started inside."""
        n = len(self.starts)
        if not n:
            raise RuntimeError("no host speed probe has run yet")
        lo = bisect.bisect_left(self.starts, t0, 0, n)
        hi = bisect.bisect_right(self.starts, t1, 0, n)
        if hi > lo:
            inside = self.ms[lo:hi]
            return sum(inside) / len(inside) / PROBE_REF_MS
        nearest = min((i for i in (lo - 1, lo) if 0 <= i < n),
                      key=lambda i: abs(self.starts[i] - t0))
        return self.ms[nearest] / PROBE_REF_MS

    def around(self, t: float) -> float:
        """The factor over the ``LOCAL_S`` either side of *t*."""
        return self.factor(t - LOCAL_S, t + LOCAL_S)


def fingerprint(root: Path) -> dict:
    """Machine and code identity recorded with every result."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "git_commit": _git_commit(root),
    }
