"""Run tracers: structured span/metric recording for one run.

Two implementations behind one duck-typed interface:

- :class:`NullTracer` — the zero-overhead default.  ``enabled`` is
  False, every method is a no-op, and the hot paths in
  :class:`~repro.runtime.ExecutionContext` branch on ``enabled`` so an
  untraced run executes exactly the pre-tracing code.
- :class:`Tracer` — records :class:`SpanEvent` entries (phases, rounds,
  instants, with small thread ids) into an in-memory structured log
  plus per-round metric series in a :class:`MetricsRegistry`.  Sinks:
  :func:`repro.obs.sinks.write_jsonl` and
  :func:`repro.obs.chrome.write_chrome_trace` (``flush`` dispatches on
  the path extension).

All timestamps are seconds relative to the tracer's creation
(``perf_counter`` based), so exported traces start at t=0.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .metrics import MetricsRegistry

#: Event categories emitted by the runtime and the engines.
CATEGORIES = ("phase", "round", "instant")


@dataclass
class SpanEvent:
    """One timed event: ``[t0, t1]`` seconds since tracer creation."""

    name: str
    cat: str
    t0: float
    t1: float
    tid: int = 0
    args: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class NullTracer:
    """The no-op tracer: nothing is recorded, nothing is allocated."""

    enabled = False
    path = None

    @property
    def events(self) -> tuple:
        return ()

    @property
    def metrics(self) -> MetricsRegistry:
        return MetricsRegistry()

    def now(self) -> float:
        return 0.0

    @contextmanager
    def span(self, name: str, cat: str = "phase", **args):
        yield self

    def record(self, name: str, cat: str, t0: float, t1: float,
               tid: int | None = None, **args) -> None:
        pass

    def instant(self, name: str, cat: str = "instant", **args) -> None:
        pass

    def count(self, name: str, value: float, round: int = 0) -> None:
        pass

    def gauge(self, name: str, value: float, round: int = 0) -> None:
        pass

    def summary(self) -> None:
        return None

    def flush(self, path: str | None = None) -> None:
        pass


#: The shared default instance (stateless, safe to reuse everywhere).
NULL_TRACER = NullTracer()


class Tracer:
    """In-memory structured run trace, queryable and exportable.

    ``meta`` carries run-level context (backend, workers) injected by
    the :class:`~repro.runtime.ExecutionContext` the tracer attaches
    to; it is written into every sink's header.  ``path`` is the
    optional destination :meth:`flush` writes to (``.jsonl`` -> JSONL
    event log, anything else -> Chrome trace JSON for Perfetto /
    ``chrome://tracing``).

    Threads (service workers, the resource sampler) may append
    concurrently: list appends are atomic under the GIL, and thread
    idents are mapped to small stable ids.
    """

    enabled = True

    def __init__(self, path: str | None = None):
        self.path = path
        self.events: list[SpanEvent] = []
        self.metrics = MetricsRegistry()
        self.meta: dict = {}
        self._t0 = time.perf_counter()
        self._tids: dict[int, int] = {}

    # -- clock / ids ---------------------------------------------------------

    def now(self) -> float:
        """Seconds since tracer creation."""
        return time.perf_counter() - self._t0

    def worker_id(self, ident: int | None = None) -> int:
        """Small stable id for a thread ident (0 = first thread seen)."""
        if ident is None:
            ident = threading.get_ident()
        return self._tids.setdefault(ident, len(self._tids))

    # -- recording -----------------------------------------------------------

    def record(self, name: str, cat: str, t0: float, t1: float,
               tid: int | None = None, **args) -> SpanEvent:
        """Append one finished span (timestamps from :meth:`now`)."""
        ev = SpanEvent(name=name, cat=cat, t0=t0, t1=t1,
                       tid=self.worker_id(tid), args=args)
        self.events.append(ev)
        return ev

    @contextmanager
    def span(self, name: str, cat: str = "phase", **args):
        """Record the enclosed block as one span."""
        t0 = self.now()
        try:
            yield self
        finally:
            self.record(name, cat, t0, self.now(), **args)

    def instant(self, name: str, cat: str = "instant", **args) -> None:
        t = self.now()
        self.record(name, cat, t, t, **args)

    def count(self, name: str, value: float, round: int = 0) -> None:
        """Emit one counter point (accumulating per-round series)."""
        self.metrics.count(name, value, round=round, t=self.now())

    def gauge(self, name: str, value: float, round: int = 0) -> None:
        """Emit one gauge point (level-sampling per-round series)."""
        self.metrics.gauge(name, value, round=round, t=self.now())

    # -- querying ------------------------------------------------------------

    def spans(self, name: str | None = None,
              cat: str | None = None) -> list[SpanEvent]:
        """Events filtered by exact name and/or category."""
        return [e for e in self.events
                if (name is None or e.name == name)
                and (cat is None or e.cat == cat)]

    def phase_self_walls(self) -> dict[str, float]:
        """Exclusive wall seconds per phase, summed over all contexts.

        Unlike ``ExecutionContext.wall_by_phase`` (one dict per
        context; an ordering's child context keeps its own), the tracer
        is shared across a whole run, so this is the run-wide view.
        """
        out: dict[str, float] = {}
        for e in self.spans(cat="phase"):
            out[e.name] = out.get(e.name, 0.0) + \
                float(e.args.get("self_s", e.dur))
        return out

    def summary(self) -> dict:
        """JSON-friendly digest carried on ``ColoringResult`` and bench
        rows: event counts, per-phase self walls, and the full
        per-round metric series."""
        by_cat: dict[str, int] = {}
        for e in self.events:
            by_cat[e.cat] = by_cat.get(e.cat, 0) + 1
        return {
            "events": len(self.events),
            "events_by_cat": by_cat,
            "phase_self_s": {k: round(v, 6)
                             for k, v in self.phase_self_walls().items()},
            "metrics": self.metrics.summary(),
            "series": {name: self.metrics.get(name).as_pairs()
                       for name in self.metrics.names()},
        }

    # -- sinks ---------------------------------------------------------------

    def flush(self, path: str | None = None) -> str | None:
        """Write the trace to ``path`` (or the bound ``self.path``).

        ``.jsonl`` -> JSONL event log; anything else -> Chrome trace
        JSON.  A tracer with no path is in-memory only: no-op.
        Returns the path written, if any.
        """
        path = path if path is not None else self.path
        if not path:
            return None
        if path.endswith(".jsonl"):
            from .sinks import write_jsonl
            write_jsonl(self, path)
        else:
            from .chrome import write_chrome_trace
            write_chrome_trace(self, path)
        return path


def resolve_tracer(trace) -> "Tracer | NullTracer":
    """Resolve the ``trace=`` argument of an :class:`ExecutionContext`.

    - a tracer instance is used as-is;
    - ``None`` defers to ``$REPRO_TRACE``: unset/empty/``0``/``off`` ->
      the null tracer, ``1``/``mem`` -> in-memory tracer, anything
      else -> a tracer bound to that path (flushed when the owning
      context closes);
    - ``False`` forces tracing off, ``True`` an in-memory tracer;
    - a string is a sink path (``.jsonl`` -> JSONL, else Chrome JSON).
    """
    if isinstance(trace, (Tracer, NullTracer)):
        return trace
    if trace is None:
        env = os.environ.get("REPRO_TRACE", "").strip()
        if not env or env.lower() in ("0", "off"):
            return NULL_TRACER
        if env.lower() in ("1", "mem", "memory"):
            return Tracer()
        return Tracer(path=env)
    if trace is False:
        return NULL_TRACER
    if trace is True:
        return Tracer()
    if isinstance(trace, str):
        return Tracer(path=trace)
    raise TypeError(f"trace must be a tracer, bool, str path, or None; "
                    f"got {type(trace).__name__}")
