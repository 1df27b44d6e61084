"""Output checks run after the timed phase (``output_errors``)."""

from __future__ import annotations

from repro._util.hashing import pattern_id
from repro.parser import build_parser
from repro.scanner import build_scanner

__all__ = ["dump_errors", "stored_pattern_errors"]


def dump_errors(got: list[dict], want: list[dict]) -> int:
    """Entries missing from, extra in, or different in *got*."""
    got_by_id = {entry["id"]: entry for entry in got}
    want_by_id = {entry["id"]: entry for entry in want}
    errors = len(got_by_id.keys() ^ want_by_id.keys())
    errors += sum(
        1 for pid, entry in got_by_id.items()
        if pid in want_by_id and entry != want_by_id[pid]
    )
    return errors


def stored_pattern_errors(db) -> int:
    """Stored patterns that break the export contract: an id other than
    SHA1(text + service), or a stored example that a freshly built
    single-pattern parser does not match."""
    scanner = build_scanner()
    errors = 0
    for row in db.rows():
        if pattern_id(row.pattern_text, row.service) != row.id:
            errors += 1
            continue
        probe = build_parser([row.to_pattern()])
        for example in row.examples:
            if probe.match(scanner.scan(example, service=row.service)) is None:
                errors += 1
    return errors
