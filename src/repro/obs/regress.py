"""The noise-aware perf-regression gate over the run ledger.

``python -m repro obs check`` compares the *head* of the ledger (the
last k records per configuration cell) against a committed baseline
(``results/baselines.json``) and exits non-zero on regression.  The
comparison is deliberately two-tier:

- **noisy metrics** (walls, peak RSS) aggregate by
  median-of-k and pass while ``candidate <= base * (1 + rel) + abs`` —
  wide relative tolerances plus an absolute floor, so shared-runner
  jitter cannot flake the gate but a real slowdown (the seeded
  synthetic-regression fixture multiplies walls by 20x) cannot hide;
- **hard metrics** (color count, work, validity) must never regress:
  colors/work may only improve or stay, ``valid`` must stay True.
  These are deterministic by the runtime's bit-identical contract, so
  they carry no noise allowance and transfer across machines — CI
  checks them against the *committed* baseline while regenerating its
  own same-machine baseline for the wall/RSS tier.

``python -m repro obs matrix`` colors the fixed graph matrix (the same
cells the baseline pins: gnm + Kronecker across serial/threaded and
the JP and DEC engines) appending one ledger record per run; running
it twice and checking the second head against a baseline built from the
first is the replay gate CI enforces.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median

from .ledger import Ledger, git_sha, read_ledger

#: Defaults for ``--ledger`` / ``--baseline``.
DEFAULT_LEDGER_PATH = os.path.join("results", "ledger.jsonl")
DEFAULT_BASELINE_PATH = os.path.join("results", "baselines.json")

BASELINE_VERSION = 1

#: Records per cell the gate aggregates over (median-of-k).
DEFAULT_K = 3

#: Per-metric comparison policy.  ``noisy`` metrics regress only past
#: ``base * (1 + rel) + abs``; ``hard`` metrics regress past
#: ``base * (1 + rel)`` with rel defaulting to 0 (never worse);
#: ``bool`` metrics regress when a True baseline turns False.
THRESHOLDS: dict[str, dict] = {
    "wall_s":            {"kind": "noisy", "rel": 0.50, "abs": 0.02},
    "peak_rss_kb":       {"kind": "noisy", "rel": 0.35, "abs": 32768},
    "colors":            {"kind": "hard", "rel": 0.0},
    "work":              {"kind": "hard", "rel": 0.0},
    "valid":             {"kind": "bool"},
}

#: The fixed graph matrix the gate colors: small enough to run in CI,
#: wide enough to cover every backend and the JP and DEC engines.
MATRIX: tuple[dict, ...] = (
    {"gen": "gnm:2000,10000", "algorithm": "JP-ADG",
     "backend": "serial", "workers": 1},
    {"gen": "gnm:2000,10000", "algorithm": "JP-ADG",
     "backend": "threaded", "workers": 4},
    {"gen": "kronecker:11,8", "algorithm": "JP-ADG",
     "backend": "threaded", "workers": 4},
    {"gen": "kronecker:11,8", "algorithm": "DEC-ADG",
     "backend": "serial", "workers": 1},
    {"gen": "kronecker:11,8", "algorithm": "DEC-ADG-ITR",
     "backend": "threaded", "workers": 4},
)


def _gen(spec: str, seed: int):
    """Build one matrix graph from a ``name:params`` generator spec."""
    from ..graphs import generators

    name, params = spec.split(":")
    a = params.split(",")
    if name == "gnm":
        return generators.gnm_random(int(a[0]), int(a[1]), seed=seed)
    if name == "kronecker":
        return generators.kronecker(scale=int(a[0]), edge_factor=int(a[1]),
                                    seed=seed)
    raise ValueError(f"unknown matrix generator {name!r}")


def metrics_of(rec: dict) -> dict | None:
    """Extract the gate's comparable metrics from one ledger record.

    Only ``run``/``suite`` records compare; ``bench`` rows are
    free-form trajectory data.  ``peak_rss_kb`` appears only when the
    record carries resource telemetry.
    """
    if rec.get("kind") not in ("run", "suite"):
        return None
    out: dict = {
        "wall_s": float(rec.get("wall_s", 0.0))
        + float(rec.get("reorder_wall_s", 0.0)),
        "colors": rec.get("colors"),
        "work": rec.get("work"),
        "valid": rec.get("valid"),
    }
    res = rec.get("resources") or {}
    peaks = [int((res.get("coordinator") or {}).get("peak_rss_kb", 0))]
    peaks += [int(w.get("peak_rss_kb", 0)) for w in res.get("workers", [])]
    if max(peaks) > 0:
        out["peak_rss_kb"] = max(peaks)
    return out


def _aggregate(metric_rows: list[dict]) -> dict:
    """Median-of-k per numeric metric; conjunction for ``valid``."""
    out: dict = {}
    keys = {k for row in metric_rows for k in row}
    for key in keys:
        vals = [row[key] for row in metric_rows
                if row.get(key) is not None]
        if not vals:
            continue
        if key == "valid":
            out[key] = all(vals)
        else:
            out[key] = median(vals)
    return out


def head_by_cell(records: list[dict], k: int) -> dict[str, dict]:
    """The ledger head: last-k aggregated metrics per cell."""
    grouped: dict[str, list[dict]] = {}
    for rec in records:
        m = metrics_of(rec)
        if m is not None and rec.get("cell"):
            grouped.setdefault(rec["cell"], []).append(m)
    return {cell: _aggregate(rows[-k:]) for cell, rows in grouped.items()}


def _thresholds(baseline: dict | None) -> dict[str, dict]:
    """Policy table with per-baseline overrides merged per metric."""
    merged = {name: dict(policy) for name, policy in THRESHOLDS.items()}
    for name, override in ((baseline or {}).get("thresholds") or {}).items():
        merged.setdefault(name, {}).update(override)
    return merged


def check(records: list[dict], baseline: dict, k: int | None = None,
          only: list[str] | None = None) -> tuple[list[dict], int]:
    """Compare the ledger head against a baseline.

    Returns ``(rows, regressions)``: one human-diff row per (cell,
    metric) with base, candidate, allowed limit, and status (``ok`` /
    ``improved`` / ``REGRESSED`` / ``MISSING``).  A missing cell or
    metric counts as a regression — the gate must see the whole matrix.
    """
    k = k if k is not None else int(baseline.get("k", DEFAULT_K))
    policies = _thresholds(baseline)
    head = head_by_cell(records, k)
    rows: list[dict] = []
    failures = 0
    for cell in sorted(baseline.get("cells", {})):
        base_metrics = baseline["cells"][cell]
        cand = head.get(cell)
        for metric in sorted(base_metrics):
            if only is not None and metric not in only:
                continue
            base = base_metrics[metric]
            policy = policies.get(metric, {"kind": "noisy",
                                           "rel": 0.5, "abs": 0.0})
            candv = None if cand is None else cand.get(metric)
            row = {"cell": cell, "metric": metric, "base": _fmt(base),
                   "candidate": _fmt(candv), "limit": "", "status": "ok"}
            if candv is None:
                row["status"] = "MISSING"
                failures += 1
                rows.append(row)
                continue
            if policy["kind"] == "bool":
                if base and not candv:
                    row["status"] = "REGRESSED"
                    failures += 1
            else:
                rel = float(policy.get("rel", 0.0))
                absl = float(policy.get("abs", 0.0))
                limit = base * (1.0 + rel) + absl
                row["limit"] = _fmt(limit)
                if candv > limit:
                    row["status"] = "REGRESSED"
                    failures += 1
                elif candv < base:
                    row["status"] = "improved"
            rows.append(row)
    return rows, failures


def _fmt(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return round(value, 6)
    return value


def make_baseline(records: list[dict], k: int = DEFAULT_K,
                  thresholds: dict | None = None) -> dict:
    """A baseline document pinning the current ledger head."""
    return {
        "version": BASELINE_VERSION,
        "created": round(time.time(), 3),
        "git_sha": git_sha(),
        "k": k,
        "thresholds": thresholds or {},
        "cells": head_by_cell(records, k),
    }


def load_baseline(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != BASELINE_VERSION:
        raise ValueError(f"{path}: baseline version "
                         f"{doc.get('version')!r} != {BASELINE_VERSION}")
    return doc


def write_baseline(doc: dict, path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_matrix(ledger_path: str = DEFAULT_LEDGER_PATH, repeats: int = 3,
               seed: int = 0, cells: list[dict] | None = None) -> int:
    """Color the fixed matrix, appending one ledger record per run.

    Every run gets resource telemetry and a validity check, so the
    appended records carry everything the gate compares.  Returns the
    number of records appended.
    """
    from ..coloring.registry import color
    from ..coloring.verify import assert_valid_coloring
    from ..runtime import ExecutionContext

    ledger = Ledger(ledger_path)
    appended = 0
    for cell in (cells if cells is not None else MATRIX):
        g = _gen(cell["gen"], seed)
        for _ in range(repeats):
            with ExecutionContext(backend=cell["backend"],
                                  workers=cell["workers"],
                                  ledger=ledger, resources=True) as ctx:
                res = color(cell["algorithm"], g, seed=seed, ctx=ctx)
                assert_valid_coloring(g, res.colors)
                ctx.ledger_record(res, graph=g, valid=True)
            appended += 1
    return appended


def check_command(ledger_path: str, baseline_path: str,
                  k: int | None = None, only: list[str] | None = None,
                  update: bool = False) -> int:
    """The ``repro obs check`` body; returns the process exit code."""
    import sys

    from ..analysis.tables import format_table

    if not os.path.exists(ledger_path):
        print(f"no ledger at {ledger_path} — run `repro obs matrix` or "
              f"any engine with --ledger first", file=sys.stderr)
        return 2
    records = read_ledger(ledger_path)
    if update:
        doc = make_baseline(records, k=k if k is not None else DEFAULT_K)
        write_baseline(doc, baseline_path)
        print(f"baseline written to {baseline_path} "
              f"({len(doc['cells'])} cells, k={doc['k']})")
        return 0
    if not os.path.exists(baseline_path):
        print(f"no baseline at {baseline_path} — create one with "
              f"`repro obs check --update`", file=sys.stderr)
        return 2
    baseline = load_baseline(baseline_path)
    rows, failures = check(records, baseline, k=k, only=only)
    if rows:
        print(format_table(rows))
    if failures:
        print(f"REGRESSION: {failures} metric(s) over threshold "
              f"(baseline {baseline_path}, ledger {ledger_path})")
        return 1
    print(f"ok: {len(rows)} metric(s) within thresholds "
          f"(baseline {baseline_path})")
    return 0
