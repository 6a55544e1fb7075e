"""Schema validation for exported traces (used by the CI smoke job).

Checks the structural invariants of both sink formats without any
third-party schema library:

- JSONL: a ``meta`` header line first, then only ``span``/``metric``
  records with well-typed fields and ``t0 <= t1``;
- Chrome trace JSON: a ``traceEvents`` list whose events carry a valid
  phase (``X``/``C``/``M``/``I``), numeric timestamps, and
  non-negative durations;
- run-ledger JSONL (:mod:`repro.obs.ledger`): sniffed by the schema
  key on the first line and validated record-by-record against the
  ``repro.ledger/v1`` schema.

Runnable: ``python -m repro.obs.validate FILE [FILE ...]`` exits
non-zero on the first invalid file.
"""

from __future__ import annotations

import json
import sys

from .metrics import KINDS
from .tracer import CATEGORIES

_NUM = (int, float)
#: Span categories a trace may carry: the emitted ones, plus ``round``
#: from traces recorded while every round was a traced dispatch call.
SPAN_CATEGORIES = CATEGORIES + ("round",)


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise ValueError(f"{where}: {msg}")


def validate_jsonl(path: str) -> int:
    """Validate a JSONL trace; returns the number of records."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in (l.strip() for l in fh) if ln]
    _require(bool(lines), path, "empty trace file")
    n = 0
    for i, line in enumerate(lines):
        where = f"{path}:{i + 1}"
        rec = json.loads(line)
        _require(isinstance(rec, dict), where, "record is not an object")
        kind = rec.get("type")
        if i == 0:
            _require(kind == "meta", where, "first record must be the "
                     f"'meta' header, got {kind!r}")
            _require(isinstance(rec.get("version"), int), where,
                     "meta.version must be an int")
        elif kind == "span":
            _require(isinstance(rec.get("name"), str), where,
                     "span.name must be a string")
            _require(rec.get("cat") in SPAN_CATEGORIES, where,
                     f"span.cat must be one of {SPAN_CATEGORIES}")
            _require(isinstance(rec.get("t0"), _NUM) and
                     isinstance(rec.get("t1"), _NUM), where,
                     "span.t0/t1 must be numbers")
            _require(rec["t0"] <= rec["t1"], where, "span has t0 > t1")
            _require(isinstance(rec.get("tid"), int), where,
                     "span.tid must be an int")
            _require(isinstance(rec.get("args"), dict), where,
                     "span.args must be an object")
        elif kind == "metric":
            _require(isinstance(rec.get("name"), str), where,
                     "metric.name must be a string")
            _require(rec.get("kind") in KINDS, where,
                     f"metric.kind must be one of {KINDS}")
            _require(isinstance(rec.get("value"), _NUM), where,
                     "metric.value must be a number")
            _require(isinstance(rec.get("round"), int), where,
                     "metric.round must be an int")
            _require(isinstance(rec.get("t"), _NUM), where,
                     "metric.t must be a number")
        else:
            raise ValueError(f"{where}: unknown record type {kind!r}")
        n += 1
    return n


def validate_chrome(path: str) -> int:
    """Validate a Chrome trace JSON file; returns the event count."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict), path, "top level must be an object")
    events = doc.get("traceEvents")
    _require(isinstance(events, list) and events, path,
             "traceEvents must be a non-empty list")
    for i, ev in enumerate(events):
        where = f"{path}:traceEvents[{i}]"
        _require(isinstance(ev, dict), where, "event is not an object")
        _require(isinstance(ev.get("name"), str), where,
                 "event.name must be a string")
        ph = ev.get("ph")
        _require(ph in ("X", "C", "M", "I"), where,
                 f"unsupported phase {ph!r}")
        _require(isinstance(ev.get("pid"), int), where,
                 "event.pid must be an int")
        if ph != "M":
            _require(isinstance(ev.get("ts"), _NUM), where,
                     "event.ts must be a number")
        if ph == "X":
            _require(isinstance(ev.get("dur"), _NUM) and ev["dur"] >= 0,
                     where, "complete event needs dur >= 0")
            _require(isinstance(ev.get("tid"), int), where,
                     "complete event needs an int tid")
    return len(events)


def _is_ledger_file(path: str) -> bool:
    """Does the first line carry a ``repro.ledger`` schema key?"""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                return isinstance(rec, dict) and \
                    str(rec.get("schema", "")).startswith("repro.ledger")
    except (OSError, ValueError):
        pass
    return False


def validate_trace_file(path: str) -> int:
    """Dispatch on extension and content (trace JSONL vs run-ledger
    JSONL vs Chrome JSON); returns the record/event count."""
    if path.endswith(".jsonl"):
        if _is_ledger_file(path):
            from .ledger import validate_ledger
            return validate_ledger(path)
        return validate_jsonl(path)
    return validate_chrome(path)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: python -m repro.obs.validate TRACE [TRACE ...]",
              file=sys.stderr)
        return 2
    for path in argv:
        n = validate_trace_file(path)
        print(f"{path}: OK ({n} records)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
