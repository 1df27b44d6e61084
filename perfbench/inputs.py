"""Seeded workload inputs.

The benchmark takes the seed as an argument and hands the program only
what these functions generate; the same seed always yields the same
records, byte for byte (checked by the self-tests).

Each workload's *service vocabulary* — the services of a
:class:`~repro.workflow.stream.ProductionStream`, their templates and
popularity — and its *churn schedule* (which new templates appear in
which service, at which popularity rank) are part of the workload's
definition and come from the fixed ``STRUCTURE_SEED``.  The run's seed
drives the traffic drawn from them: which service and template each
record comes from, slot values and repeats.  With the vocabulary left
to the run's seed, a 40-service stream's cost is set by which templates
its few head services happen to get, and runs of one program differed
by a quarter from seed to seed.  The re-seeding reaches into the
stream's random state (``_rng``, ``_service_sampler``, ``_services``
and their ``sampler``), which has no public setter.

Template churn rates:

* ``pool-churn`` adds ``CHURN_TEMPLATES`` new templates before every
  batch.  This is a stress rate, not a model of production traffic:
  it keeps the analyzer, persist and pool merge busy on every batch.
* ``serve-stream`` follows the repository's production model,
  :class:`repro.workflow.simulation.SimulationConfig` — 6 new templates
  per 7,000-10,000-message day, i.e. one per ~1,400 records
  (``SERVE_CHURN_EVERY``).  :func:`serve_records` can report which
  timed records came from a churned template.
"""

from __future__ import annotations

import json
import random

from repro._util.sampling import ZipfSampler
from repro.core.records import LogRecord
from repro.workflow.stream import ProductionStream, StreamConfig

__all__ = [
    "BATCH_SIZE",
    "STEADY_PREFIX",
    "CHURN_TEMPLATES",
    "SERVE_PREFIX",
    "SERVE_CHURN_EVERY",
    "steady_records",
    "churn_records",
    "serve_records",
    "serve_services",
    "jsonl",
    "write_jsonl",
    "read_records",
]

#: seed of every workload's service vocabulary and churn schedule
STRUCTURE_SEED = 41
#: records per mining batch on the file-fed workloads
BATCH_SIZE = 1000
#: learning prefix of ``serial-steady``, mined during set-up
STEADY_PREFIX = 20_000
#: new templates introduced before every ``pool-churn`` batch
CHURN_TEMPLATES = 5
#: learning prefix of ``serve-stream``, fed to the driver during set-up;
#: after 40k records the window's distinct unmatched messages end near
#: 1,600, clear of the default 2,048 that triggers a flush (after 20k
#: they ended at 1,750-1,970, where a few more would put a flush inside
#: the window on some seeds and not others)
SERVE_PREFIX = 40_000
#: ``serve-stream`` template churn: one new template every this many
#: records — ``SimulationConfig``'s 6 per 7,000-10,000-message day
SERVE_CHURN_EVERY = 1400


def _stream(n_services: int, duplicate_fraction: float, seed: int) -> ProductionStream:
    """A production stream over the fixed vocabulary, drawing with *seed*."""
    config = StreamConfig(
        n_services=n_services, duplicate_fraction=duplicate_fraction, seed=STRUCTURE_SEED
    )
    stream = ProductionStream(config)
    rng = random.Random(seed)
    stream._rng = rng
    stream._service_sampler = ZipfSampler(
        len(stream._services), s=config.service_zipf, seed=rng.randrange(2**31)
    )
    for spec in stream._services:
        spec.sampler = ZipfSampler(
            len(spec.templates), s=config.template_zipf, seed=rng.randrange(2**31)
        )
    return stream


def _add_churn(stream: ProductionStream, schedule: random.Random, n: int) -> set[str]:
    """Add *n* templates drawn from the fixed churn *schedule*; the
    changed services' template samplers keep drawing with the run's
    seed.  Returns the templates added."""
    draw = stream._rng
    before = [list(spec.templates) for spec in stream._services]
    stream._rng = schedule
    try:
        stream.add_churn_templates(n)
    finally:
        stream._rng = draw
    added = set()
    for spec, old in zip(stream._services, before):
        if len(spec.templates) != len(old):
            added.update(set(spec.templates) - set(old))
            spec.sampler = ZipfSampler(
                len(spec.templates), s=stream.config.template_zipf, seed=draw.randrange(2**31)
            )
    return added


def _churn_schedule() -> random.Random:
    return random.Random(STRUCTURE_SEED + 1)


def _steady_stream(seed: int) -> ProductionStream:
    return _stream(40, 0.9, seed)


def steady_records(seed: int, n_timed: int):
    """``serial-steady``: (learning prefix, lazy iterator of the timed
    records drawn after it)."""
    stream = _steady_stream(seed)
    prefix = list(stream.records(STEADY_PREFIX))
    return prefix, stream.records(n_timed)


def churn_records(seed: int, n_batches: int, batch_size: int = BATCH_SIZE):
    """``pool-churn``: *n_batches* batches of fresh records (no repeats)
    over 241 services, with new templates before every batch (lazy)."""
    stream = _stream(241, 0.0, seed)
    schedule = _churn_schedule()
    for _ in range(n_batches):
        _add_churn(stream, schedule, CHURN_TEMPLATES)
        yield from stream.records(batch_size)


def serve_records(seed: int, n_timed: int, n_prefix: int | None = None, churned=None):
    """``serve-stream``: (learning prefix, lazy iterator of the timed
    records, with one new template every ``SERVE_CHURN_EVERY``
    records).  *n_prefix* defaults to ``SERVE_PREFIX``.  Given a set
    *churned*, the messages of timed records drawn from a churned
    template are added to it (repeats of them are the same message)."""
    stream = _steady_stream(seed)
    prefix = list(stream.records(SERVE_PREFIX if n_prefix is None else n_prefix))
    new_templates: set[str] = set()
    if churned is not None:
        fill = stream._fill

        def marking_fill(template: str) -> str:
            message = fill(template)
            if template in new_templates:
                churned.add(message)
            return message

        stream._fill = marking_fill

    def timed():
        schedule = _churn_schedule()
        drawn = 0
        while drawn < n_timed:
            if drawn:
                new_templates.update(_add_churn(stream, schedule, 1))
            take = min(SERVE_CHURN_EVERY, n_timed - drawn)
            yield from stream.records(take)
            drawn += take

    return prefix, timed()


def serve_services() -> list[str]:
    """Every service the ``serve-stream`` traffic can name."""
    return _steady_stream(0).service_names


def jsonl(records) -> list[str]:
    """The JSON-lines wire format the ingest paths read."""
    return [json.dumps(record.to_json_dict()) for record in records]


def write_jsonl(path, records) -> int:
    """Stream *records* to *path* as JSON lines; returns how many.

    The file-fed workloads read their timed input from disk, as the
    production ``serve`` path does, so it never sits in the miner's
    memory (and ``peak_rss_mb``)."""
    count = 0
    with open(path, "w", encoding="utf-8") as out:
        for record in records:
            out.write(json.dumps(record.to_json_dict()))
            out.write("\n")
            count += 1
    return count


def read_records(path, limit: int):
    """The first *limit* records of a :func:`write_jsonl` file, decoded
    with plain ``json`` (independently of the ingest path under test)."""
    with open(path, encoding="utf-8") as lines:
        for _, line in zip(range(limit), lines):
            entry = json.loads(line)
            yield LogRecord(service=entry["service"], message=entry["message"])
