"""ExecutionContext: the unified per-run execution runtime.

Every algorithm in this library is a sequence of *parallel rounds* over
NumPy arrays.  An :class:`ExecutionContext` bundles everything one run
needs to execute those rounds and account for them:

- the ``backend`` (``'serial'`` or ``'threaded'``) and ``workers``
  configuration.  Both are *recorded* configuration: they are
  validated, carried on results, ledger rows and regress cell keys,
  and have no effect on execution — every round runs as one direct
  call on the calling thread (:meth:`map_chunks`).  The analytic
  work/depth books model the paper's parallelism; a measured parallel
  speedup is the job of compiled passes that use ``workers`` as their
  thread count, which none does yet;
- fault tolerance at the round seam: the run's one
  :class:`~repro.runtime.faults.Recovery` policy draws injected faults
  per round and retries an injected failure in place with capped
  backoff; any other exception propagates at once, unwrapped;
- the :class:`~repro.machine.costmodel.CostModel` and
  :class:`~repro.machine.memmodel.MemoryModel` accounting books;
- per-phase wall-clock timers (:meth:`phase`), recording *exclusive*
  (self) time so nested phases never double-count;
- a run tracer (:mod:`repro.obs`): span events per phase and per round
  and the per-round metric series engines emit.  The default is the
  no-op null tracer — every traced code path branches on
  ``tracer.enabled``, so an untraced run executes exactly the
  pre-tracing instructions.

Round kernels are *pure* (all mutation happens on the caller after the
round returns), so re-running a failed round recomputes exactly the
same result: colors, rounds and the cost/memory books are bit-identical
for every ``backend``/``workers`` value and under any in-budget fault
plan.  Tracing is observation only: enabling it never changes results
or accounting.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Callable, TypeVar

from ..machine.costmodel import CostModel
from ..machine.memmodel import MemoryModel
from ..obs import resolve_tracer
from ..obs.ledger import resolve_ledger, run_record
from ..obs.resources import ResourceSampler, resolve_resources
from ..primitives.kernels import ScratchArena
from .faults import Recovery, RecoveryError, _env_number, resolve_fault_plan

T = TypeVar("T")

BACKENDS = ("serial", "threaded")


class ChunkError(RecoveryError):
    """A :meth:`ExecutionContext.map_chunks` round failed for good: its
    injected faults outlasted the retry budget.

    The message names the fault coordinate (``round R chunk 0``) and the
    ``[0, n)`` range; the last
    :class:`~repro.runtime.faults.FaultInjected` is chained.
    """


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


def default_backend() -> str:
    """Backend: $REPRO_BACKEND if set (and valid), else 'serial'."""
    env = os.environ.get("REPRO_BACKEND", "").strip().lower()
    if not env:
        return "serial"
    return check_backend(env, "$REPRO_BACKEND")


def default_workers() -> int:
    """Worker count: $REPRO_WORKERS (an int >= 1), else the CPU count."""
    return _env_number("REPRO_WORKERS", max(1, os.cpu_count() or 1), int, 1)


class ExecutionContext:
    """One object carrying the configuration, accounting, timers,
    tracer, and the fault-recovery state of a run.

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
        the CPU count).  Forced to 1 on the serial backend.
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
    faults:
        A :class:`~repro.runtime.faults.FaultPlan`, a plan string
        (``"error@3.0;seed=7"``), ``False`` (injection off), or ``None``
        to defer to ``$REPRO_FAULTS`` — see
        :func:`repro.runtime.faults.resolve_fault_plan`.
    retries, backoff:
        Recovery budget and backoff base; ``None`` resolves via
        ``$REPRO_RETRIES`` (2) and ``$REPRO_BACKOFF`` (0.02s).
    ledger:
        The flight recorder (:mod:`repro.obs.ledger`): a
        :class:`~repro.obs.ledger.Ledger`, a JSONL path, ``True``
        (default ``results/ledger.jsonl``), ``False`` (off), or
        ``None`` to defer to ``$REPRO_LEDGER``.  Defaults to the
        zero-overhead null ledger; when enabled, engine entry points
        that *own* their context append one schema-versioned run
        record on completion (:meth:`ledger_record`).  Run-wide,
        carried on the host context.
    resources:
        Resource telemetry (:mod:`repro.obs.resources`): ``True``
        starts a coordinator sampler thread (peak RSS, CPU); ``False``
        forces it off; ``None`` defers to ``$REPRO_RESOURCES`` and, when
        that is silent too, follows the ledger (telemetry on iff the
        run is being recorded).  Digest via :meth:`resource_record`.

    The context is a context manager; :meth:`close` / ``__exit__``
    stops the resource sampler, releases the scratch buffers and
    flushes a path-bound tracer.
    :meth:`child` derives a context with fresh accounting books that
    *shares* the tracer, the scratch arena and the fault state (used to
    account an ordering phase separately from the coloring phase of one
    run: round ids and recovery budgets are run-wide).
    """

    def __init__(self, backend: str | None = None, workers: int | None = None,
                 cost: CostModel | None = None, mem: MemoryModel | None = None,
                 crew: bool = False, trace=None,
                 faults=None, retries: int | None = None,
                 backoff: float | None = None,
                 ledger=None, resources=None,
                 _host: "ExecutionContext | None" = None):
        # The host carries the run-wide state (fault budgets, round
        # counter, scratch, ledger, sampler).
        self._host = _host if _host is not None else self
        self.backend = check_backend(backend) if backend is not None \
            else default_backend()
        if self.backend == "serial":
            self.workers = 1
        else:
            self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.cost = cost if cost is not None else CostModel(crew=crew)
        self.mem = mem if mem is not None else MemoryModel()
        self.wall_by_phase: dict[str, float] = {}
        self.tracer = resolve_tracer(trace)
        if self.tracer.enabled:
            self.tracer.meta.setdefault("backend", self.backend)
            self.tracer.meta.setdefault("workers", self.workers)
        # Open-phase stack: [name, child_wall_seconds] frames, for
        # exclusive timing and for labeling traced rounds.
        self._phase_stack: list[list] = []
        if self._host is self:
            self._recovery = Recovery(resolve_fault_plan(faults), retries,
                                      backoff, self.tracer)
            self._round_seq = 0
            self._scratch = ScratchArena()
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

    @property
    def scratch(self) -> ScratchArena:
        """The run's scratch arena: reusable buffers for per-round
        intermediates, shared by the engines and their round kernels.
        Run-wide; a context is used by one thread at a time."""
        return self._host._scratch

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def ledger_record(self, result, graph=None, *, kind: str = "run",
                      eps: float | None = None, valid: bool | None = None,
                      extra: dict | None = None):
        """Append one run record to the ledger; no-op (returning
        ``None``) when recording is off.

        Called by engine entry points that *own* their context — the
        owner-append rule keeps exactly one record per run however many
        engines and child contexts the run composes.
        """
        host = self._host
        if not host._ledger.enabled:
            return None
        return host._ledger.append(run_record(result, graph=graph,
                                              kind=kind, eps=eps,
                                              valid=valid, extra=extra))

    def resource_record(self) -> dict | None:
        """The run's resource digest: the coordinator sampler's maxima.
        ``None`` when telemetry is off."""
        host = self._host
        if not host._resources_on or host._sampler is None:
            return None
        return {"coordinator": host._sampler.digest()}

    def close(self) -> None:
        """Stop the resource sampler, release the scratch buffers and
        flush a path-bound tracer (only if this context is the host).

        The buffers are released here rather than left to the garbage
        collector: the host refers to itself, so a dropped context is
        only freed by a cyclic collection, and the round kernels' buffers
        are as large as the graph's edge arrays.
        """
        if self._host is self:
            if self._sampler is not None:
                self._sampler.stop()
            self._scratch = ScratchArena()
            self.tracer.flush()

    def reset_books(self) -> None:
        """Zero the cost/mem books and phase timers, keep the machinery.

        The service layer calls this between requests so one long-lived
        context (scratch and fault budgets persist)
        yields per-request accounting instead of a running total.
        """
        self.cost = CostModel(crew=self.cost.crew)
        self.mem = MemoryModel()
        self.wall_by_phase = {}

    def child(self, cost: CostModel | None = None,
              mem: MemoryModel | None = None,
              crew: bool = False) -> "ExecutionContext":
        """Same backend/workers/tracer/scratch/fault state, fresh books
        and timers."""
        return ExecutionContext(backend=self.backend, workers=self.workers,
                                cost=cost, mem=mem, crew=crew,
                                trace=self.tracer, _host=self._host)

    # -- execution -----------------------------------------------------------

    def map_chunks(self, fn: Callable[[int, int], T], n: int) -> T:
        """Run one round: ``fn(0, n)``, called once on this thread.

        Each call takes the next run-wide round id; a fault plan's
        ``error@ROUND.0`` clause addresses it.  ``fn`` must be *pure
        over [0, n)* — it may read shared state but must not mutate it
        — so an injected failure is retried in place (with capped
        backoff) and the result is bit-identical to the undisturbed
        run.  When the retry budget is spent the round raises
        :class:`ChunkError`; any exception ``fn`` raises itself
        propagates on the first failure, unwrapped.
        """
        host = self._host
        host._round_seq += 1
        rid = host._round_seq
        rec = host._recovery
        tracer = self.tracer
        t0 = tracer.now() if tracer.enabled else 0.0
        if rec.plan is None or n <= 0:
            out = fn(0, n)
        else:
            out = rec.run(lambda: fn(0, n), rid,
                          f"map_chunks round {rid} chunk 0 [0, {n}) of {n} "
                          f"items", ChunkError)
        if tracer.enabled:
            phase = self._phase_stack[-1][0] if self._phase_stack else None
            tracer.record(f"{phase or 'map_chunks'}#round{rid}", "round",
                          t0, tracer.now(), round=rid, phase=phase, items=n)
        return out

    def fault_record(self) -> dict | None:
        """Digest of the run's fault activity, or ``None`` for a quiet
        run with no plan (:meth:`repro.runtime.faults.Recovery.record`).
        """
        return self._host._recovery.record()

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
        frame = [name, 0.0]
        self._phase_stack.append(frame)
        with self.cost.phase(name):
            try:
                yield self
            finally:
                elapsed = time.perf_counter() - t0
                self._phase_stack.pop()
                self_time = max(0.0, elapsed - frame[1])
                self.wall_by_phase[name] = \
                    self.wall_by_phase.get(name, 0.0) + self_time
                if self._phase_stack:
                    self._phase_stack[-1][1] += elapsed
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
                    faults=None,
                    ) -> tuple[ExecutionContext, bool]:
    """Return ``(context, owns)`` for an engine entry point.

    When the caller supplied a context it is used as-is (``owns`` False:
    the caller closes it); otherwise a fresh one is built from
    ``backend``/``workers``/``trace``/``faults``/accounting arguments
    and ``owns`` is True — the engine must ``close()`` it (or use it as
    a context manager).
    """
    if ctx is not None:
        return ctx, False
    return ExecutionContext(backend=backend, workers=workers,
                            cost=cost, mem=mem, crew=crew,
                            trace=trace, faults=faults), True
