"""ExecutionContext: the unified per-run execution runtime.

Every algorithm in this library is a sequence of *parallel rounds* over
NumPy arrays.  An :class:`ExecutionContext` bundles everything one run
needs to execute those rounds and account for them:

- a ``backend`` switch (``'serial'`` or ``'threaded'``) with a worker
  count (argument, else ``$REPRO_WORKERS``, else the CPU count);
- the chunked execution machinery (:mod:`repro.machine.parallel`)
  behind one :meth:`map_chunks` seam, with optional *work-balanced*
  chunking: engines pass per-item weights (frontier degrees, batch
  degrees) and chunk boundaries come from a prefix-sum split of total
  weight instead of an even split by count;
- *adaptive round dispatch* (:mod:`repro.runtime.adaptive`): on the
  threaded backend each multi-chunk round passes a break-even test —
  an online overhead estimator (per-chunk dispatch cost, kernel
  seconds per work unit, both EWMA-updated and seeded by a one-shot
  calibration) decides whether the round is worth shipping to the pool
  or cheaper to run inline on the coordinator over the same chunk plan
  (``$REPRO_ADAPTIVE``; decisions are counted, traced, and summarized
  by :meth:`dispatch_record`);
- fault tolerance at the same seam: the run's one
  :class:`~repro.runtime.faults.Recovery` policy retries failed chunks
  in place with capped backoff and, when a worker dies, degrades the
  run to serial and re-runs only the lost chunks;
- the :class:`~repro.machine.costmodel.CostModel` and
  :class:`~repro.machine.memmodel.MemoryModel` accounting books;
- per-phase wall-clock timers (:meth:`phase`), recording *exclusive*
  (self) time so nested phases never double-count;
- a run tracer (:mod:`repro.obs`): span events per phase, per-chunk
  events with worker ids and an imbalance summary per chunked round,
  and the per-round metric series engines emit.  The default is the
  no-op null tracer — every traced code path branches on
  ``tracer.enabled``, so an untraced run executes exactly the
  pre-tracing instructions.

The contract every engine written against this context obeys: the
threaded backend chunks each round over independent spans and combines
the partial results in deterministic chunk order, so colors, waves, and
the recorded work/depth/memory totals are **bit-identical** to the
serial backend — for any worker count, with weighted chunking on or
off, and under any recovery the fault layer performs.  Chunk kernels
are *pure* (all mutation happens on the coordinator, between rounds, in
chunk order), so re-running a failed chunk, or finishing a round on a
degraded backend, recomputes exactly the same partial results.  On the
serial backend :meth:`map_chunks` degrades to a single chunk — zero
chunking overhead, exactly the monolithic vectorized round.  Tracing is
observation only: enabling it never changes results or accounting.

Backends:

- ``'serial'`` — one inline chunk per round.
- ``'threaded'`` — a shared :class:`ThreadPoolExecutor` over the one
  address space; NumPy kernels release the GIL, so chunks overlap
  inside the C kernels, and engines hand their arrays to the kernels
  by reference.

Both accept plain ``fn(lo, hi)`` closures and
:class:`~repro.runtime.kernels.Kernel` descriptors (every engine in
this library passes descriptors; the name keys the adaptive
estimator's per-kernel cost model).

Recovery policy (the level x fault-kind table is in
:mod:`repro.runtime.faults`; DESIGN.md has the argument):

- error, or any exception: the chunk is retried in place up to
  ``retries`` times (``$REPRO_RETRIES``, default 2) with capped
  backoff; exhaustion raises :class:`ChunkError` naming the (round,
  chunk) coordinates.
- kill on a threaded round, pooled or inlined: the pool is lost, the
  run degrades to serial at once, and only the lost chunks re-run —
  completed partial results and the round's chunk boundaries are kept,
  so the combine order never changes.  On a serial round a kill is a
  failed attempt like any other.
- Everything is recorded: ``fault.*`` counters in the metrics
  registry, instant events in the tracer, and the
  :meth:`fault_record` digest engines attach to ``ColoringResult``.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from typing import Callable, TypeVar

from ..machine.costmodel import CostModel
from ..machine.memmodel import MemoryModel
from ..machine.parallel import (
    default_workers,
    split_chunks,
    split_chunks_weighted,
)
from ..obs import resolve_tracer
from ..obs.ledger import resolve_ledger, run_record
from ..obs.resources import ResourceSampler, resolve_resources
from ..primitives.kernels import ScratchArena
from .adaptive import (
    DispatchEstimator,
    effective_parallelism,
    resolve_adaptive,
)
from .faults import (
    Recovery,
    RecoveryError,
    WorkerDeath,
    apply_fault,
    resolve_fault_plan,
)
from .kernels import Kernel

T = TypeVar("T")

BACKENDS = ("serial", "threaded")

#: Chunks per worker: oversubscription smooths load imbalance between
#: spans (frontier vertices have wildly varying degrees).
CHUNKS_PER_WORKER = 4

#: "Not computed yet" marker in a round's partial-result slots (chunk
#: kernels may legitimately return None).
_PENDING = object()


class ChunkError(RecoveryError):
    """A chunk of a :meth:`ExecutionContext.map_chunks` round failed
    for good.

    Raised only after the retry budget is exhausted; the message names
    the round id, the chunk id, and the chunk's ``[lo, hi)`` range, and
    the original exception is chained.  Remaining futures of the wave
    are cancelled (pending) or drained (running) before this is raised,
    so no worker outlives the call and no stale chunk can write into a
    later round.
    """


def _chunk_name(rid: int, ci: int, span, n: int) -> str:
    lo, hi = span
    return f"map_chunks round {rid} chunk {ci} [{lo}, {hi}) of {n} items"


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


def default_weighted_chunks() -> bool:
    """Weighted chunking: $REPRO_WEIGHTED_CHUNKS if set, else on.

    Weighted chunking never changes results (only chunk boundaries),
    so it defaults on; the switch exists for A/B benchmarking and for
    bisecting imbalance regressions.
    """
    env = os.environ.get("REPRO_WEIGHTED_CHUNKS", "").strip().lower()
    if not env:
        return True
    if env in ("0", "off", "false", "no"):
        return False
    if env in ("1", "on", "true", "yes"):
        return True
    raise ValueError(f"$REPRO_WEIGHTED_CHUNKS must be a boolean flag "
                     f"(1/0/on/off), got {env!r}")


class ExecutionContext:
    """One object carrying backend, pool, accounting, timers, tracer,
    and the fault-recovery state of a run.

    Parameters
    ----------
    backend:
        ``'serial'`` or ``'threaded'``; ``None`` resolves via
        :func:`default_backend` (``$REPRO_BACKEND``, else serial);
        ``'process'`` raises a ``ValueError`` naming its removal.  Read
        it back through the :attr:`backend` property:
        after a degradation it reports the backend the run is *now*
        executing on.
    workers:
        Worker count for the threaded backend; ``None`` resolves via
        ``$REPRO_WORKERS``, else the CPU count.  Forced to 1 on the
        serial backend.
    weighted_chunks:
        Honor per-round ``weights`` in :meth:`map_chunks` (work-
        proportional chunk boundaries); ``None`` resolves via
        ``$REPRO_WEIGHTED_CHUNKS``, else on.  Results are identical
        either way — only the chunk boundaries (and the load balance)
        move.
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
        (``"error@3.0;kill@5.*;seed=7"``), ``False`` (injection off),
        or ``None`` to defer to ``$REPRO_FAULTS`` — see
        :func:`repro.runtime.faults.resolve_fault_plan`.
    retries, backoff:
        Recovery budget and backoff base; ``None`` resolves via
        ``$REPRO_RETRIES`` (2) and ``$REPRO_BACKOFF`` (0.02s).
    adaptive:
        Adaptive round dispatch (:mod:`repro.runtime.adaptive`):
        ``'on'`` (break-even estimator inlines rounds too small to
        amortize dispatch overhead), ``'off'`` (always dispatch — the
        pre-adaptive behavior), or the forced modes ``'inline'`` /
        ``'parallel'``; booleans map to on/off and ``None`` resolves
        via ``$REPRO_ADAPTIVE``, else on.  Results are bit-identical
        in every mode — the decision moves scheduling only.
    ledger:
        The flight recorder (:mod:`repro.obs.ledger`): a
        :class:`~repro.obs.ledger.Ledger`, a JSONL path, ``True``
        (default ``results/ledger.jsonl``), ``False`` (off), or
        ``None`` to defer to ``$REPRO_LEDGER``.  Defaults to the
        zero-overhead null ledger; when enabled, engine entry points
        that *own* their context append one schema-versioned run
        record on completion (:meth:`ledger_record`).  Run-wide,
        carried on the pool host.
    resources:
        Resource telemetry (:mod:`repro.obs.resources`): ``True``
        starts a coordinator sampler thread (peak RSS, CPU); ``False``
        forces it off; ``None`` defers to ``$REPRO_RESOURCES`` and, when
        that is silent too, follows the ledger (telemetry on iff the
        run is being recorded).  Digest via :meth:`resource_record`.

    The context is a context manager; the thread pool is created lazily
    on first threaded :meth:`map_chunks` and shut down by
    :meth:`close` / ``__exit__`` (which also flushes a path-bound
    tracer).  :meth:`child` derives a context with fresh accounting
    books that *shares* the pool, the tracer, and the fault state (used
    to account an ordering phase separately from the coloring phase of
    one run: round ids and recovery budgets are run-wide).
    """

    def __init__(self, backend: str | None = None, workers: int | None = None,
                 cost: CostModel | None = None, mem: MemoryModel | None = None,
                 crew: bool = False, trace=None,
                 weighted_chunks: bool | None = None,
                 faults=None, retries: int | None = None,
                 backoff: float | None = None,
                 adaptive=None,
                 ledger=None, resources=None,
                 _pool_host: "ExecutionContext | None" = None):
        # The host carries the run-wide state (pool, backend, fault
        # budgets, round counter); set it before anything that reads
        # the `backend` property.
        self._pool_host = _pool_host if _pool_host is not None else self
        resolved = check_backend(backend) if backend is not None \
            else default_backend()
        self._backend = resolved
        if resolved == "serial":
            self.workers = 1
        else:
            self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.weighted_chunks = weighted_chunks if weighted_chunks is not None \
            else default_weighted_chunks()
        self.adaptive = resolve_adaptive(adaptive)
        self.cost = cost if cost is not None else CostModel(crew=crew)
        self.mem = mem if mem is not None else MemoryModel()
        self.wall_by_phase: dict[str, float] = {}
        self.tracer = resolve_tracer(trace)
        if self.tracer.enabled:
            self.tracer.meta.setdefault("backend", self.backend)
            self.tracer.meta.setdefault("workers", self.workers)
            self.tracer.meta.setdefault("adaptive", self.adaptive)
        self._pool: ThreadPoolExecutor | None = None
        # Open-phase stack: [name, child_wall_seconds] frames, for
        # exclusive timing and for labeling traced rounds.
        self._phase_stack: list[list] = []
        if self._pool_host is self:
            self._recovery = Recovery(resolve_fault_plan(faults), retries,
                                      backoff, self.tracer)
            self._round_seq = 0
            self._estimator = DispatchEstimator() \
                if self.adaptive != "off" else None
            self._scratch = ScratchArena()
            self._ledger = resolve_ledger(ledger)
            res_on = resolve_resources(resources)
            self._resources_on = self._ledger.enabled \
                if res_on is None else res_on
            self._sampler: ResourceSampler | None = None
            if self._resources_on:
                self._sampler = ResourceSampler(tracer=self.tracer).start()

    @property
    def backend(self) -> str:
        """The backend the run executes on *now* — run-wide, so a
        degradation in any context of the run (ordering child, coloring
        parent) is visible everywhere."""
        return self._pool_host._backend

    @property
    def ledger(self):
        """The run's flight-recorder ledger (run-wide; the null ledger
        when recording is off)."""
        return self._pool_host._ledger

    @property
    def scratch(self) -> ScratchArena:
        """The run's coordinator-side scratch arena: reusable buffers
        for the per-round intermediates engines build *between* chunk
        rounds (batch weights, neighbor concatenations, batch unions).
        Run-wide and single-threaded — only the coordinator touches it;
        kernels running on pool threads use their own per-thread arena
        (:func:`repro.runtime.kernels.scratch`)."""
        return self._pool_host._scratch

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
        host = self._pool_host
        if not host._ledger.enabled:
            return None
        return host._ledger.append(run_record(result, graph=graph,
                                              kind=kind, eps=eps,
                                              valid=valid, extra=extra))

    def resource_record(self) -> dict | None:
        """The run's resource digest: the coordinator sampler's maxima.
        ``None`` when telemetry is off."""
        host = self._pool_host
        if not host._resources_on or host._sampler is None:
            return None
        return {"coordinator": host._sampler.digest()}

    def close(self) -> None:
        """Shut down the pool and flush a path-bound tracer (only if
        this context is the pool host)."""
        if self._pool_host is self:
            if self._sampler is not None:
                self._sampler.stop()
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            self.tracer.flush()

    def reset_books(self) -> None:
        """Zero the cost/mem books and phase timers, keep the machinery.

        The service layer calls this between requests so one long-lived
        context (pool and fault budgets persist)
        yields per-request accounting instead of a running total.
        """
        self.cost = CostModel(crew=self.cost.crew)
        self.mem = MemoryModel()
        self.wall_by_phase = {}

    def child(self, cost: CostModel | None = None,
              mem: MemoryModel | None = None,
              crew: bool = False) -> "ExecutionContext":
        """Same backend/workers/pool/tracer/fault state, fresh books
        and timers."""
        return ExecutionContext(backend=self.backend, workers=self.workers,
                                cost=cost, mem=mem, crew=crew,
                                trace=self.tracer,
                                weighted_chunks=self.weighted_chunks,
                                adaptive=self.adaptive,
                                _pool_host=self._pool_host)

    def _acquire_pool(self) -> ThreadPoolExecutor | None:
        host = self._pool_host
        if host._pool is None and self.backend == "threaded" \
                and self.workers > 1:
            host._pool = ThreadPoolExecutor(max_workers=self.workers)
        return host._pool

    # -- execution -----------------------------------------------------------

    def map_chunks(self, fn: Callable[[int, int], T], n: int,
                   weights=None) -> list[T]:
        """Run ``fn(lo, hi)`` over a chunking of range(n), in chunk order.

        Serial backend (or 1 worker): one chunk, executed inline — the
        call is exactly ``[fn(0, n)]``.  Threaded backend: balanced
        chunks on the shared pool; results are returned in chunk order,
        so order-dependent combines are deterministic.

        ``weights`` (per-item non-negative work estimates, e.g. the
        frontier's vertex degrees) switches the chunk boundaries to a
        prefix-sum split of total weight — work-balanced chunks for
        skewed inputs.  Ignored on the serial path, when
        ``weighted_chunks`` is off, or when all weights are zero;
        results are bit-identical in every case because only the
        boundaries move, never the combine order.

        ``fn`` must be *pure over [lo, hi)* — it may read shared state
        but must not mutate it (every engine in this library combines
        chunk results on the coordinator).  That purity is what makes
        recovery invisible: a failed chunk is retried with backoff, a
        dead worker's chunks re-run on the degraded serial backend —
        and the returned list is bit-identical to the undisturbed run.
        Only when the retry budget is spent does the round abort as a
        :class:`ChunkError` naming the (round, chunk) coordinates; the
        wave's pending chunks are cancelled and running ones drained
        before the error propagates.
        """
        host = self._pool_host
        host._round_seq += 1
        rid = host._round_seq
        tracer = self.tracer
        if not tracer.enabled:
            return self._run_round(fn, n, weights, rid, None)
        # Traced twin: per-chunk span events (worker id, chunk size)
        # plus one round event with the max/mean chunk-wall imbalance.
        # Results are identical — tracing only observes.
        phase = self._phase_stack[-1][0] if self._phase_stack else None
        records: list[tuple] = []  # GIL-atomic appends from workers
        t0 = tracer.now()
        out = self._run_round(fn, n, weights, rid, records)
        t1 = tracer.now()
        walls = []
        for lo, hi, c0, c1, ident in sorted(records):
            tracer.record(f"chunk[{lo}:{hi})", "chunk", c0, c1, tid=ident,
                          round=rid, size=hi - lo, phase=phase)
            walls.append(c1 - c0)
        self._record_round(rid, phase, t0, t1, n, walls)
        return out

    def _plan_chunks(self, n: int, weights) -> list[tuple[int, int]]:
        if self.backend == "serial" or self.workers <= 1:
            return split_chunks(n, 1)
        target = self.workers * CHUNKS_PER_WORKER
        if weights is not None and self.weighted_chunks:
            return split_chunks_weighted(n, target, weights)
        return split_chunks(n, target)

    def _run_round(self, fn, n: int, weights, rid: int,
                   records: list | None) -> list:
        """One round: dispatch waves until every chunk has a result.

        The chunk boundaries are planned once, on the backend the round
        started on, and never move afterwards — recovery (retry waves,
        even a mid-round degradation) re-runs the *same* spans, so
        partial results combine in the same order.

        With adaptive dispatch (the default), a multi-chunk round on the
        threaded backend first passes through the break-even decision
        (:mod:`repro.runtime.adaptive`): a round predicted too small to
        amortize its dispatch overhead runs inline on the coordinator —
        over the *same* chunk plan, drawing faults at the same
        (round, chunk, attempt) coordinates — so the decision moves
        scheduling only, never results.
        """
        chunks = self._plan_chunks(n, weights)
        if not chunks:
            return []
        host = self._pool_host
        est = host._estimator
        backend0 = self.backend
        eligible = est is not None and backend0 != "serial" \
            and self.workers > 1 and len(chunks) > 1
        inline = False
        p_eff = 1
        units = 0.0
        key = fn.name if isinstance(fn, Kernel) \
            else getattr(fn, "__name__", None)
        if eligible:
            # Weights estimate work only when they also shape the chunks
            # (weighted_chunks on); otherwise the round is sized by count.
            units = float(np.sum(weights)) \
                if weights is not None and self.weighted_chunks \
                else float(n)
            p_eff = effective_parallelism(self.workers, len(chunks))
            inline = self._decide_dispatch(backend0, key, units,
                                           len(chunks), p_eff, rid)
        measure = eligible and self.adaptive == "on"
        ktimes: list | None = [] if measure else None
        t0 = time.perf_counter() if measure else 0.0
        # Fused inline fast path: chunk results combine to the same
        # value whatever the boundaries (the serial backend's 1-chunk
        # plan is already bit-identical to the pooled plans), so with
        # no fault plan pinning (round, chunk) coordinates an inlined
        # round runs as one span — no futures, no specs, no wave
        # machinery, no per-chunk invocation tax.  A fault plan keeps
        # the per-chunk loop below so injections keep firing at the
        # same coordinates they would under dispatch.
        if inline and host._recovery.plan is None:
            try:
                fused = [self._call_chunk(fn, 0, n, None, records, ktimes)]
            except Exception:
                # Re-run through the wave machinery so retry semantics
                # and ChunkError reporting match the dispatched path
                # (map_chunks requires chunks to be retry-safe).
                pass
            else:
                if measure:
                    est.observe_round(backend0, key, len(chunks), units,
                                      time.perf_counter() - t0,
                                      sum(ktimes), len(ktimes), inline,
                                      p_eff)
                return fused
        results = [_PENDING] * len(chunks)
        attempts = [0] * len(chunks)
        todo = list(range(len(chunks)))
        while todo:
            wave, todo = todo, []
            if not inline and self.backend != "serial" \
                    and self.workers > 1 and len(chunks) > 1:
                if self._wave_threaded(fn, chunks, wave, todo, results,
                                       attempts, n, rid, records, ktimes):
                    self._lose_pool(rid)
            else:
                self._wave_inline(fn, chunks, wave, results, attempts,
                                  n, rid, records, ktimes)
        if measure:
            est.observe_round(backend0, key, len(chunks), units,
                              time.perf_counter() - t0, sum(ktimes),
                              len(ktimes), inline, p_eff)
        return results

    def _decide_dispatch(self, backend: str, key, units: float,
                         n_chunks: int, p_eff: int, rid: int) -> bool:
        """Inline this round?  Forced modes answer directly; ``on``
        consults the estimator (seeding it on first contact by timing
        no-op tasks through the real pool)."""
        est = self._pool_host._estimator
        mode = self.adaptive
        if mode == "inline":
            inline = True
        elif mode == "parallel":
            inline = False
        else:
            est.seed_unit()
            if backend not in est.dispatch_s:
                est.seed_dispatch(backend, self._acquire_pool())
            inline = est.should_inline(backend, key, units, n_chunks, p_eff)
        est.decisions["inline" if inline else "parallel"] += 1
        if self.tracer.enabled:
            self.tracer.count(
                "dispatch.inline" if inline else "dispatch.parallel",
                1, round=rid)
        return inline

    def _call_chunk(self, fn, lo: int, hi: int, fault, records, ktimes):
        if fault is not None:
            apply_fault(fault)
        if records is None and ktimes is None:
            return fn(lo, hi)
        # Traced rounds stamp on the tracer's clock (same monotonic
        # base); untraced measured rounds only need durations.
        c0 = self.tracer.now() if records is not None \
            else time.perf_counter()
        res = fn(lo, hi)
        c1 = self.tracer.now() if records is not None \
            else time.perf_counter()
        if records is not None:
            records.append((lo, hi, c0, c1, threading.get_ident()))
        if ktimes is not None:
            ktimes.append(c1 - c0)
        return res

    def _wave_inline(self, fn, chunks, wave, results, attempts,
                     n: int, rid: int, records, ktimes) -> None:
        """Inline wave (serial backend, 1 worker, a 1-chunk round, or a
        round adaptive dispatch kept on the coordinator): each chunk
        retries in place.  A kill on a threaded round still loses the
        run's pool, so the run degrades and the chunk re-runs; on a
        serial round it is a failed attempt like any other."""
        rec = self._pool_host._recovery
        for ci in wave:
            lo, hi = chunks[ci]
            results[ci], attempts[ci] = rec.run(
                lambda fault: self._call_chunk(fn, lo, hi, fault, records,
                                               ktimes),
                lambda attempt: rec.draw(rid, ci, attempt),
                ChunkError, _chunk_name(rid, ci, chunks[ci], n),
                round=rid, attempt=attempts[ci],
                pool_lost=lambda: self._lose_pool(rid))

    def _wave_threaded(self, fn, chunks, wave, todo, results, attempts,
                       n: int, rid: int, records, ktimes) -> bool:
        """One pooled wave; failed chunks go back on ``todo``.

        A :class:`WorkerDeath` means "the pool is lost" (vs. "the chunk
        failed"): the chunk is requeued uncharged and the caller
        degrades the run.  Returns whether the pool was lost.
        """
        rec = self._pool_host._recovery
        draw = rec.draw if rec.plan is not None else None
        pool = self._acquire_pool()
        futs = {}
        for ci in wave:
            attempts[ci] += 1
            fault = draw(rid, ci, attempts[ci]) if draw else None
            lo, hi = chunks[ci]
            futs[pool.submit(self._call_chunk, fn, lo, hi, fault,
                             records, ktimes)] = ci
        lost = False
        for f in as_completed(futs):
            ci = futs[f]
            try:
                results[ci] = f.result()
            except WorkerDeath:
                lost = True
                todo.append(ci)
            except Exception as exc:
                try:
                    rec.retry(attempts[ci], exc, ChunkError,
                              _chunk_name(rid, ci, chunks[ci], n), rid)
                except RecoveryError:
                    self._abort_wave(futs)
                    raise
                todo.append(ci)
        return lost

    @staticmethod
    def _abort_wave(futs) -> None:
        """Cancel what has not started, drain what is running — after
        this returns, no chunk of the aborted wave is still executing,
        so nothing can race a later round."""
        for f in futs:
            f.cancel()
        for f in futs:
            if not f.cancelled():
                try:
                    f.exception()
                except BaseException:
                    pass

    def _lose_pool(self, rid: int) -> bool:
        """A worker died: drop the pool and degrade the run to serial.
        False on a serial run — there was no pool to lose."""
        host = self._pool_host
        if host._backend == "serial":
            return False
        if host._pool is not None:
            host._pool.shutdown(wait=False, cancel_futures=True)
            host._pool = None
        host._recovery.degrade(rid, host._backend)
        host._backend = "serial"
        return True

    def fault_record(self) -> dict | None:
        """Digest of the run's fault activity, or ``None`` for a quiet
        run with no plan (:meth:`repro.runtime.faults.Recovery.record`).
        """
        return self._pool_host._recovery.record()

    def dispatch_record(self) -> dict | None:
        """Digest of the run's adaptive-dispatch activity, or ``None``
        when adaptive dispatch is off — or never had a decision to make
        (serial runs, single-chunk rounds) — keeping result rows clean.

        ``decisions`` counts rounds kept inline vs. dispatched to the
        pool; ``unit_s``/``dispatch_s`` expose the learned model
        (seconds per work unit per kernel, per-chunk overhead per
        backend) and ``seeded`` how each backend's overhead estimate
        was born (always ``calibrated``, through the real pool).
        """
        host = self._pool_host
        est = host._estimator
        if est is None or not (est.decisions["inline"]
                               or est.decisions["parallel"]):
            return None
        rec = est.record()
        rec["mode"] = self.adaptive
        return rec

    def _record_round(self, rid: int, phase, t0: float, t1: float,
                      n: int, walls: list) -> None:
        max_w = max(walls, default=0.0)
        mean_w = sum(walls) / len(walls) if walls else 0.0
        self.tracer.record(f"{phase or 'map_chunks'}#round{rid}", "round",
                           t0, t1, round=rid, phase=phase, items=n,
                           chunks=len(walls), max_chunk_s=max_w,
                           mean_chunk_s=mean_w,
                           imbalance=(max_w / mean_w) if mean_w > 0 else 1.0)

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
                "adaptive": self.adaptive,
                "wall_by_phase": dict(self.wall_by_phase)}


def resolve_context(ctx: ExecutionContext | None,
                    backend: str | None = None,
                    workers: int | None = None,
                    cost: CostModel | None = None,
                    mem: MemoryModel | None = None,
                    crew: bool = False,
                    trace=None,
                    weighted_chunks: bool | None = None,
                    faults=None,
                    adaptive=None,
                    ) -> tuple[ExecutionContext, bool]:
    """Return ``(context, owns)`` for an engine entry point.

    When the caller supplied a context it is used as-is (``owns`` False:
    the caller manages the pool); otherwise a fresh one is built from
    ``backend``/``workers``/``trace``/``faults``/accounting arguments
    and ``owns`` is True — the engine must ``close()`` it (or use it as
    a context manager).
    """
    if ctx is not None:
        return ctx, False
    return ExecutionContext(backend=backend, workers=workers,
                            cost=cost, mem=mem, crew=crew,
                            trace=trace,
                            weighted_chunks=weighted_chunks,
                            faults=faults, adaptive=adaptive), True
