"""repro.obs — the observability subsystem.

Structured tracing (phase and round spans, instants), a
counter/gauge registry for per-round
metric series, and exporters: an in-memory structured log (queryable in
tests), a JSONL event log, and a Chrome trace-event JSON that loads in
Perfetto.  The zero-overhead default is :data:`NULL_TRACER`; enable via
``ExecutionContext(trace=...)``, ``--trace FILE`` on any CLI
subcommand, or ``$REPRO_TRACE``.

The flight recorder rides on the same pattern: a persistent run ledger
(:mod:`repro.obs.ledger`, append-only schema-versioned JSONL; default
:data:`NULL_LEDGER`, enable via ``ExecutionContext(ledger=...)``,
``--ledger FILE``, or ``$REPRO_LEDGER``), per-worker resource
telemetry (:mod:`repro.obs.resources`), and a noise-aware
perf-regression gate over the ledger head
(:mod:`repro.obs.regress`, ``python -m repro obs check``).
"""

from .chrome import chrome_trace, write_chrome_trace
from .ledger import (
    LEDGER_SCHEMA,
    NULL_LEDGER,
    Ledger,
    NullLedger,
    bench_record,
    cell_key,
    git_sha,
    graph_digest,
    read_ledger,
    resolve_ledger,
    run_record,
    validate_ledger,
    validate_ledger_record,
)
from .metrics import MetricPoint, MetricsRegistry, Series
from .profile import (
    phase_breakdown,
    resource_breakdown,
    round_breakdown,
)
from .resources import (
    ResourceSampler,
    cpu_seconds,
    current_rss_kb,
    peak_rss_kb,
    resolve_resources,
)
from .sinks import jsonl_records, read_jsonl, write_jsonl
from .tracer import (
    CATEGORIES,
    NULL_TRACER,
    NullTracer,
    SpanEvent,
    Tracer,
    resolve_tracer,
)
from .validate import validate_chrome, validate_jsonl, validate_trace_file

__all__ = [
    "CATEGORIES", "LEDGER_SCHEMA", "NULL_LEDGER", "NULL_TRACER",
    "Ledger", "MetricPoint", "MetricsRegistry", "NullLedger",
    "NullTracer", "ResourceSampler", "Series", "SpanEvent", "Tracer",
    "bench_record", "cell_key", "chrome_trace", "cpu_seconds",
    "current_rss_kb", "git_sha", "graph_digest",
    "jsonl_records", "peak_rss_kb",
    "phase_breakdown", "read_jsonl", "read_ledger", "resolve_ledger",
    "resolve_resources", "resolve_tracer", "resource_breakdown",
    "round_breakdown", "run_record",
    "validate_chrome", "validate_jsonl", "validate_ledger",
    "validate_ledger_record", "validate_trace_file",
    "write_chrome_trace", "write_jsonl",
]
