"""Chrome trace-event exporter: open a run in Perfetto.

Emits the JSON object format of the Trace Event specification —
``{"traceEvents": [...]}`` — which both ``chrome://tracing`` and
https://ui.perfetto.dev load directly:

- every recorded span becomes a complete (``"ph": "X"``) event with
  microsecond ``ts``/``dur``, laid out per recording thread;
- every metric series becomes a counter (``"ph": "C"``) track, giving
  per-round frontier/batch/conflict curves under the spans;
- metadata (``"ph": "M"``) events name the process and worker tracks.
"""

from __future__ import annotations

import json

PID = 1


def chrome_trace(tracer) -> dict:
    """Build the Chrome trace JSON object for a recorded tracer."""
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": PID, "tid": 0,
        "args": {"name": "repro run"},
    }]
    tids = sorted(set(e.tid for e in tracer.events)) or [0]
    for tid in tids:
        events.append({"name": "thread_name", "ph": "M", "pid": PID,
                       "tid": tid,
                       "args": {"name": "coordinator" if tid == 0
                                else f"worker-{tid}"}})
    for e in tracer.events:
        rec = {"name": e.name, "cat": e.cat, "ph": "X",
               "ts": e.t0 * 1e6, "dur": max(0.0, (e.t1 - e.t0) * 1e6),
               "pid": PID, "tid": e.tid}
        if e.args:
            rec["args"] = e.args
        events.append(rec)
    for name in tracer.metrics.names():
        for p in tracer.metrics.get(name).points:
            events.append({"name": name, "cat": "metric", "ph": "C",
                           "ts": p.t * 1e6, "pid": PID,
                           "args": {name: p.value}})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": dict(tracer.meta)}


def write_chrome_trace(tracer, path: str) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer), fh)
    return path
