"""ExecutionContext: the unified per-run execution runtime.

Every algorithm in this library is a sequence of *parallel rounds* over
NumPy arrays.  An :class:`ExecutionContext` bundles everything one run
needs to execute those rounds and account for them:

- the ``backend`` (``'serial'`` or ``'threaded'``) and ``workers``
  configuration.  Both are *recorded* configuration: they are
  validated, carried on results, ledger rows and regress cell keys,
  and have no effect on execution — engines call their round kernels
  directly on the calling thread, and an exception a kernel raises
  propagates at once, unwrapped.  The analytic work/depth books model
  the paper's parallelism; a measured parallel speedup is the job of
  compiled passes that use ``workers`` as their thread count, which
  none does yet;
- the :class:`~repro.machine.costmodel.CostModel` and
  :class:`~repro.machine.memmodel.MemoryModel` accounting books;
- per-phase wall-clock timers (:meth:`phase`), recording *exclusive*
  (self) time so nested phases never double-count;
- a run tracer (:mod:`repro.obs`): span events per phase and the
  per-round metric series engines emit.  The default is the
  no-op null tracer — every traced code path branches on
  ``tracer.enabled``, so an untraced run executes exactly the
  pre-tracing instructions.

Round kernels are *pure* (all mutation happens on the caller after the
round returns), so colors, rounds and the cost/memory books are
bit-identical for every ``backend``/``workers`` value.  Tracing is
observation only: enabling it never changes results or accounting.
"""

from __future__ import annotations

import numbers
import os
import time
from contextlib import contextmanager

from ..machine.costmodel import CostModel
from ..machine.memmodel import MemoryModel
from ..obs import resolve_tracer
from ..obs.ledger import resolve_ledger, run_record
from ..obs.resources import ResourceSampler, resolve_resources

BACKENDS = ("serial", "threaded")


def check_backend(backend: str, source: str = "backend") -> str:
    """``backend`` if it names one of :data:`BACKENDS`, else a
    ``ValueError`` naming ``source``."""
    if backend == "process":
        # Deleted because it won on no measured workload; old scripts
        # and $REPRO_BACKEND settings must fail, not run elsewhere.
        raise ValueError(f"{source}={backend!r}: the process backend was "
                         f"removed; use 'threaded' for shared-memory "
                         f"parallelism, or 'serial'")
    if backend not in BACKENDS:
        raise ValueError(f"{source} must be one of {BACKENDS}, "
                         f"got {backend!r}")
    return backend


def check_workers(workers, source: str = "workers") -> int:
    """``workers`` as an int if it is an integer >= 1 (a bool is not),
    else a ``ValueError`` naming ``source``."""
    if isinstance(workers, bool) or \
            not isinstance(workers, numbers.Integral):
        raise ValueError(f"{source} must be an int, got {workers!r}")
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    return int(workers)


def default_backend() -> str:
    """Backend: $REPRO_BACKEND if set (and valid), else 'serial'."""
    env = os.environ.get("REPRO_BACKEND", "").strip().lower()
    if not env:
        return "serial"
    return check_backend(env, "$REPRO_BACKEND")


def default_workers() -> int:
    """Worker count: $REPRO_WORKERS (an int >= 1), else the CPU count."""
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if not env:
        return max(1, os.cpu_count() or 1)
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(f"$REPRO_WORKERS must be a int, "
                         f"got {env!r}") from None
    return check_workers(workers, "$REPRO_WORKERS")


class ExecutionContext:
    """One object carrying the configuration, accounting, timers and
    tracer of a run.

    Parameters
    ----------
    backend:
        ``'serial'`` or ``'threaded'``; ``None`` resolves via
        :func:`default_backend` (``$REPRO_BACKEND``, else serial);
        ``'process'`` raises a ``ValueError`` naming its removal.
        Recorded configuration only: rounds run the same way on both.
    workers:
        Worker count recorded for the threaded backend; ``None``
        resolves via :func:`default_workers` (``$REPRO_WORKERS``, else
        the CPU count).  Validated on every backend (an int >= 1, not
        a bool), then forced to 1 on the serial backend.
    cost, mem:
        Accounting books to record into; fresh models when ``None``.
    crew:
        Passed to a freshly created :class:`CostModel` (CREW charging
        for scatter primitives).
    trace:
        A :class:`~repro.obs.Tracer`, a sink path, ``True`` (in-memory),
        ``False`` (off), or ``None`` to defer to ``$REPRO_TRACE`` — see
        :func:`repro.obs.resolve_tracer`.  Defaults to the zero-overhead
        null tracer.
    ledger:
        The flight recorder (:mod:`repro.obs.ledger`): a
        :class:`~repro.obs.ledger.Ledger`, a JSONL path, ``True``
        (default ``results/ledger.jsonl``), ``False`` (off), or
        ``None`` to defer to ``$REPRO_LEDGER``.  Defaults to the
        zero-overhead null ledger; when enabled, the coloring driver
        (:func:`repro.coloring.driver.drive`) appends one
        schema-versioned run record per run whose context it owns
        (:meth:`ledger_record`).  Run-wide,
        carried on the host context.
    resources:
        Resource telemetry (:mod:`repro.obs.resources`): ``True``
        starts a coordinator sampler thread (peak RSS, CPU); ``False``
        forces it off; ``None`` defers to ``$REPRO_RESOURCES`` and, when
        that is silent too, follows the ledger (telemetry on iff the
        run is being recorded).  Digest via :meth:`resource_record`.

    The context is a context manager; :meth:`close` / ``__exit__``
    stops the resource sampler and flushes a path-bound tracer.
    :meth:`child` derives a context with fresh accounting books that
    *shares* the tracer, ledger, sampler and phase walls (used to
    account an ordering separately from the coloring of one run, with
    both steps' walls in one ``wall_by_phase``).
    """

    def __init__(self, backend: str | None = None, workers: int | None = None,
                 cost: CostModel | None = None, mem: MemoryModel | None = None,
                 crew: bool = False, trace=None,
                 ledger=None, resources=None,
                 _host: "ExecutionContext | None" = None):
        # The host carries the run-wide state (ledger, sampler).
        self._host = _host if _host is not None else self
        self.backend = check_backend(backend) if backend is not None \
            else default_backend()
        if workers is not None:
            workers = check_workers(workers)
        if self.backend == "serial":
            self.workers = 1
        else:
            self.workers = workers if workers is not None else default_workers()
        self.cost = cost if cost is not None else CostModel(crew=crew)
        self.mem = mem if mem is not None else MemoryModel()
        self.tracer = resolve_tracer(trace)
        if self.tracer.enabled:
            self.tracer.meta.setdefault("backend", self.backend)
            self.tracer.meta.setdefault("workers", self.workers)
        # Phase walls and the open-phase stack (one [child_wall_seconds]
        # cell per open phase, for exclusive timing) are the host's, so
        # an ordering's walls land beside the coloring's.
        self.wall_by_phase: dict[str, float] = \
            {} if self._host is self else self._host.wall_by_phase
        self._phase_stack: list[list[float]] = \
            [] if self._host is self else self._host._phase_stack
        if self._host is self:
            self._ledger = resolve_ledger(ledger)
            res_on = resolve_resources(resources)
            self._resources_on = self._ledger.enabled \
                if res_on is None else res_on
            self._sampler: ResourceSampler | None = None
            if self._resources_on:
                self._sampler = ResourceSampler(tracer=self.tracer).start()

    @property
    def ledger(self):
        """The run's flight-recorder ledger (run-wide; the null ledger
        when recording is off)."""
        return self._host._ledger

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def ledger_record(self, result, graph=None, *, kind: str = "run",
                      valid: bool | None = None,
                      extra: dict | None = None):
        """Append one run record to the ledger; no-op (returning
        ``None``) when recording is off.

        Called by the coloring driver when it *owns* the context — the
        owner-append rule keeps exactly one record per run however many
        steps and child contexts the run composes.
        """
        host = self._host
        if not host._ledger.enabled:
            return None
        return host._ledger.append(run_record(result, graph=graph,
                                              kind=kind, valid=valid,
                                              extra=extra))

    def resource_record(self) -> dict | None:
        """The run's resource digest: the coordinator sampler's maxima.
        ``None`` when telemetry is off."""
        host = self._host
        if not host._resources_on or host._sampler is None:
            return None
        return {"coordinator": host._sampler.digest()}

    def close(self) -> None:
        """Stop the resource sampler and flush a path-bound tracer (only
        if this context is the host)."""
        if self._host is self:
            if self._sampler is not None:
                self._sampler.stop()
            self.tracer.flush()

    def child(self, cost: CostModel | None = None,
              mem: MemoryModel | None = None,
              crew: bool = False) -> "ExecutionContext":
        """Same backend/workers/tracer/ledger/phase walls, fresh books."""
        return ExecutionContext(backend=self.backend, workers=self.workers,
                                cost=cost, mem=mem, crew=crew,
                                trace=self.tracer, _host=self._host)

    # -- accounting ----------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Attribute cost *and wall-clock time* inside the block to ``name``.

        ``wall_by_phase`` records *exclusive* (self) time: a nested
        phase's wall is charged to the inner name only, so the dict's
        values sum to at most the real elapsed wall.
        """
        tracer = self.tracer
        tr0 = tracer.now() if tracer.enabled else 0.0
        t0 = time.perf_counter()
        frame = [0.0]
        self._phase_stack.append(frame)
        with self.cost.phase(name), self.mem.phase(name):
            try:
                yield self
            finally:
                elapsed = time.perf_counter() - t0
                self._phase_stack.pop()
                self_time = max(0.0, elapsed - frame[0])
                self.wall_by_phase[name] = \
                    self.wall_by_phase.get(name, 0.0) + self_time
                if self._phase_stack:
                    self._phase_stack[-1][0] += elapsed
                if tracer.enabled:
                    tracer.record(name, "phase", tr0, tracer.now(),
                                  self_s=self_time)

    def trace_summary(self) -> dict | None:
        """The tracer's digest, or ``None`` when tracing is off."""
        return self.tracer.summary() if self.tracer.enabled else None

    def describe(self) -> dict:
        """Flat record of the execution configuration (for result rows),
        including the exclusive per-phase wall split recorded so far."""
        return {"backend": self.backend, "workers": self.workers,
                "wall_by_phase": dict(self.wall_by_phase)}


def resolve_context(ctx: ExecutionContext | None,
                    backend: str | None = None,
                    workers: int | None = None,
                    cost: CostModel | None = None,
                    mem: MemoryModel | None = None,
                    crew: bool = False,
                    trace=None,
                    ) -> tuple[ExecutionContext, bool]:
    """Return ``(context, owns)`` for an engine entry point.

    When the caller supplied a context it is used as-is (``owns`` False:
    the caller closes it); otherwise a fresh one is built from
    ``backend``/``workers``/``trace``/accounting arguments
    and ``owns`` is True — the engine must ``close()`` it (or use it as
    a context manager).
    """
    if ctx is not None:
        return ctx, False
    return ExecutionContext(backend=backend, workers=workers,
                            cost=cost, mem=mem, crew=crew,
                            trace=trace), True
