"""The run ledger: a persistent, append-only flight recorder.

Every engine run (and every bench-harness record) can append one
structured, schema-versioned JSON line to a ledger file — graph digest,
algorithm, eps, backend/workers, color count, cost/memory books,
per-phase walls, resource telemetry, and
the repo's git SHA.  Unlike traces (one file per run, overwritten) the
ledger *accumulates*: the perf trajectory across PRs lives in
``results/ledger.jsonl`` and the regression gate
(:mod:`repro.obs.regress`) compares its head against a committed
baseline.

Mirrors the tracer's zero-overhead contract exactly:

- :class:`NullLedger` — the shared default (:data:`NULL_LEDGER`);
  ``enabled`` is False and ``append`` is a no-op, so a ledger-off run
  allocates nothing and performs no I/O.
- :class:`Ledger` — bound to a path; each :meth:`~Ledger.append` writes
  one JSON line (append mode, so concurrent runs interleave whole
  records and nothing is ever clobbered).

Resolution (:func:`resolve_ledger`) follows :func:`~repro.obs.tracer.
resolve_tracer`: an instance is used as-is, ``None`` defers to
``$REPRO_LEDGER``, ``False`` forces off, ``True``/``"1"``/``"on"``
bind the default ``results/ledger.jsonl``, any other string is a path.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

#: Bump on any incompatible record-shape change; records carry it so
#: the regression gate can refuse to compare across schema versions.
LEDGER_SCHEMA = "repro.ledger/v1"

#: Record kinds: "run" = one engine execution appended by the runtime,
#: "suite" = one bench-harness RunRecord, "bench" = one benchmark-script
#: row (free-form payload under "row"), "service" = one coloring-service
#: request (op name + free-form payload under "row").
KINDS = ("run", "suite", "bench", "service")

#: Where ``$REPRO_LEDGER=1`` / ``ledger=True`` points.
DEFAULT_LEDGER_PATH = os.path.join("results", "ledger.jsonl")

_NUM = (int, float)


class NullLedger:
    """The no-op ledger: nothing is recorded, nothing is allocated."""

    enabled = False
    path = None
    records = 0

    def append(self, record: dict) -> None:
        pass


#: The shared default instance (stateless, safe to reuse everywhere).
NULL_LEDGER = NullLedger()


def _json_default(obj):
    """Serialize the NumPy scalars that ride on digests."""
    import numpy as np

    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


class Ledger:
    """An append-only JSONL ledger bound to a path.

    ``append`` validates the record against the schema, then writes one
    line in append mode — the file is opened and closed per record, so
    interleaved writers (a suite of runs, parallel CI jobs on a shared
    artifact) each land whole lines and the ledger only ever grows.
    """

    enabled = True

    def __init__(self, path: str):
        if not path:
            raise ValueError("a Ledger needs a non-empty path")
        self.path = os.fspath(path)
        self.records = 0

    def append(self, record: dict) -> dict:
        validate_ledger_record(record, where=self.path)
        line = json.dumps(record, sort_keys=True, default=_json_default)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self.records += 1
        return record


def resolve_ledger(ledger) -> "Ledger | NullLedger":
    """Resolve the ``ledger=`` argument of an :class:`ExecutionContext`.

    - a ledger instance is used as-is;
    - ``None`` defers to ``$REPRO_LEDGER``: unset/empty/``0``/``off``
      -> the null ledger, ``1``/``on`` -> the default
      ``results/ledger.jsonl``, anything else -> that path;
    - ``False`` forces the ledger off, ``True`` the default path;
    - a string is the ledger path.
    """
    if isinstance(ledger, (Ledger, NullLedger)):
        return ledger
    if ledger is None:
        env = os.environ.get("REPRO_LEDGER", "").strip()
        if not env or env.lower() in ("0", "off"):
            return NULL_LEDGER
        if env.lower() in ("1", "on"):
            return Ledger(DEFAULT_LEDGER_PATH)
        return Ledger(env)
    if ledger is False:
        return NULL_LEDGER
    if ledger is True:
        return Ledger(DEFAULT_LEDGER_PATH)
    if isinstance(ledger, str):
        return Ledger(ledger)
    raise TypeError(f"ledger must be a ledger, bool, str path, or None; "
                    f"got {type(ledger).__name__}")


# -- record builders ----------------------------------------------------------

def graph_digest(g) -> str:
    """Stable content hash of a CSR graph (16 hex chars).

    Hashes n, m, and the raw ``indptr``/``indices`` bytes — two graphs
    share a digest iff they share the exact adjacency structure, so a
    ledger cell compares like with like even when generator names
    collide.  O(m), but :class:`~repro.graphs.csr.CSRGraph` caches it
    per instance (``content_digest``, invalidated on mutation), so
    repeated service requests against a warm graph pay it once.
    """
    cached = getattr(g, "content_digest", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(f"{g.n}:{g.m}:".encode())
    h.update(g.indptr.tobytes())
    h.update(g.indices.tobytes())
    return h.hexdigest()[:16]


_GIT_SHA_CACHE: list = []


def git_sha() -> str | None:
    """The repo HEAD commit (no subprocess: read ``.git`` directly).

    Walks up from the CWD to the nearest ``.git``; resolves a symbolic
    HEAD through loose refs and ``packed-refs``.  ``None`` outside a
    repository — cached per process either way.
    """
    if _GIT_SHA_CACHE:
        return _GIT_SHA_CACHE[0]
    sha = None
    try:
        d = os.getcwd()
        while True:
            git = os.path.join(d, ".git")
            if os.path.isdir(git):
                with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
                    head = fh.read().strip()
                if head.startswith("ref: "):
                    ref = head[5:]
                    ref_path = os.path.join(git, *ref.split("/"))
                    if os.path.exists(ref_path):
                        with open(ref_path, encoding="utf-8") as fh:
                            sha = fh.read().strip()
                    else:
                        packed = os.path.join(git, "packed-refs")
                        if os.path.exists(packed):
                            with open(packed, encoding="utf-8") as fh:
                                for line in fh:
                                    if line.strip().endswith(ref):
                                        sha = line.split()[0]
                                        break
                else:
                    sha = head
                break
            parent = os.path.dirname(d)
            if parent == d:
                break
            d = parent
    except OSError:
        sha = None
    _GIT_SHA_CACHE.append(sha)
    return sha


def cell_key(graph_name: str, algorithm: str, backend: str,
             workers: int) -> str:
    """The ledger's comparison key: one configuration cell.

    The ``0`` field is the shard count of the removed sharding layer
    and the trailing ``numpy`` names the kernel implementation; both
    are constants kept so committed baselines keep matching.
    """
    return f"{graph_name}|{algorithm}|{backend}|{workers}|0|numpy"


def run_record(result, graph=None, *, kind: str = "run",
               eps: float | None = None, valid: bool | None = None,
               extra: dict | None = None) -> dict:
    """Build one schema-versioned ledger record from a ColoringResult.

    ``graph`` (the CSRGraph the run colored) adds the name/n/m/digest
    block; ``valid`` records whether the caller verified the coloring
    (``None`` = not checked here).  ``extra`` keys are merged last.
    """
    gname = graph.name if graph is not None else "?"
    rec = {
        "schema": LEDGER_SCHEMA,
        "kind": kind,
        "ts": round(time.time(), 3),
        "git_sha": git_sha(),
        "cell": cell_key(gname, result.algorithm, result.backend,
                         result.workers),
        "graph": ({"name": graph.name, "n": int(graph.n),
                   "m": int(graph.m), "digest": graph_digest(graph)}
                  if graph is not None else None),
        "algorithm": result.algorithm,
        "eps": eps,
        "backend": result.backend,
        "workers": int(result.workers),
        "shards": 0,
        "kernel_tier": "numpy",
        "colors": int(result.num_colors),
        "valid": valid,
        "work": int(result.total_work),
        "depth": int(result.total_depth),
        "rounds": int(result.rounds),
        "conflicts": int(result.conflicts_resolved),
        "wall_s": round(float(result.wall_seconds), 6),
        "reorder_wall_s": round(float(result.reorder_wall_seconds), 6),
        "phase_walls": {k: round(float(v), 6)
                        for k, v in result.phase_walls.items()},
        "mem": {"sequential": int(result.combined_mem().sequential),
                "random": int(result.combined_mem().random)},
        "dispatch": result.dispatch,
        "resources": getattr(result, "resources", None),
        "trace_events": (result.trace_summary.get("events")
                         if result.trace_summary else None),
    }
    if extra:
        rec.update(extra)
    return rec


def bench_record(source: str, row: dict) -> dict:
    """One benchmark-script row as a ledger record (free-form payload)."""
    return {
        "schema": LEDGER_SCHEMA,
        "kind": "bench",
        "ts": round(time.time(), 3),
        "git_sha": git_sha(),
        "source": source,
        "row": row,
    }


def service_record(op: str, row: dict) -> dict:
    """One coloring-service request as a ledger record.

    ``op`` is the request verb (color / verify / profile / apply_delta
    / load); ``row`` the request's digest — graph digest, cache
    hit/miss, repaired-vertex counts, wall — free-form like a bench
    row, so the service can evolve its payload without schema bumps.
    """
    return {
        "schema": LEDGER_SCHEMA,
        "kind": "service",
        "ts": round(time.time(), 3),
        "git_sha": git_sha(),
        "op": op,
        "row": row,
    }


# -- reading / validation -----------------------------------------------------

def read_ledger(path: str) -> list[dict]:
    """All records of a ledger file, oldest first."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(ln) for ln in (l.strip() for l in fh) if ln]


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise ValueError(f"{where}: {msg}")


def validate_ledger_record(rec: dict, where: str = "ledger") -> None:
    """Structural schema check for one ledger record (raises ValueError)."""
    _require(isinstance(rec, dict), where, "record is not an object")
    schema = rec.get("schema")
    _require(isinstance(schema, str)
             and schema.startswith("repro.ledger/"), where,
             f"schema must be 'repro.ledger/...', got {schema!r}")
    kind = rec.get("kind")
    _require(kind in KINDS, where, f"kind must be one of {KINDS}, "
             f"got {kind!r}")
    _require(isinstance(rec.get("ts"), _NUM), where, "ts must be a number")
    _require(rec.get("git_sha") is None or isinstance(rec["git_sha"], str),
             where, "git_sha must be a string or null")
    if kind == "bench":
        _require(isinstance(rec.get("source"), str), where,
                 "bench.source must be a string")
        _require(isinstance(rec.get("row"), dict), where,
                 "bench.row must be an object")
        return
    if kind == "service":
        _require(isinstance(rec.get("op"), str), where,
                 "service.op must be a string")
        _require(isinstance(rec.get("row"), dict), where,
                 "service.row must be an object")
        return
    # 5 pipes is the current form (…|numpy); 4 pipes is accepted for
    # ledgers recorded before that trailing field existed.
    _require(isinstance(rec.get("cell"), str)
             and rec["cell"].count("|") in (4, 5), where,
             "cell must be 'graph|algorithm|backend|workers|shards"
             "[|kernel_tier]'")
    _require(isinstance(rec.get("algorithm"), str), where,
             "algorithm must be a string")
    _require(rec.get("kernel_tier") is None
             or isinstance(rec["kernel_tier"], str), where,
             "kernel_tier must be a string or absent")
    # 'process' is valid on rows recorded before that backend was
    # removed; the ledger is history, so old rows must keep validating.
    _require(rec.get("backend") in ("serial", "threaded", "process"), where,
             f"unknown backend {rec.get('backend')!r}")
    # Rows recorded before the sharding layer was removed may carry
    # shards > 0 and a shards_digest object; both keep validating.
    for key in ("workers", "shards", "colors", "work", "depth", "rounds",
                "conflicts"):
        _require(isinstance(rec.get(key), int) and rec[key] >= 0, where,
                 f"{key} must be a non-negative int")
    for key in ("wall_s", "reorder_wall_s"):
        _require(isinstance(rec.get(key), _NUM) and rec[key] >= 0, where,
                 f"{key} must be a non-negative number")
    _require(rec.get("valid") in (True, False, None), where,
             "valid must be a bool or null")
    _require(isinstance(rec.get("phase_walls"), dict), where,
             "phase_walls must be an object")
    mem = rec.get("mem")
    _require(isinstance(mem, dict) and isinstance(mem.get("sequential"), int)
             and isinstance(mem.get("random"), int), where,
             "mem must carry int sequential/random")
    graph = rec.get("graph")
    if graph is not None:
        _require(isinstance(graph, dict)
                 and isinstance(graph.get("name"), str)
                 and isinstance(graph.get("n"), int)
                 and isinstance(graph.get("m"), int)
                 and isinstance(graph.get("digest"), str), where,
                 "graph must carry name/n/m/digest")
    # Rows recorded before fault injection was removed may carry a
    # ``faults`` object; it keeps validating.
    for key in ("dispatch", "faults", "shards_digest", "resources"):
        _require(rec.get(key) is None or isinstance(rec[key], dict), where,
                 f"{key} must be an object or null")


def validate_ledger(path: str) -> int:
    """Validate every record of a ledger file; returns the count."""
    records = read_ledger(path)
    _require(bool(records), path, "empty ledger file")
    for i, rec in enumerate(records):
        validate_ledger_record(rec, where=f"{path}:{i + 1}")
    return len(records)
