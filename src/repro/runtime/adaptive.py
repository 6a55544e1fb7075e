"""Adaptive round dispatch: inline small rounds, parallelize big ones.

BENCH_backends.json documents the inversion this module removes: on
small graphs every JP/ADG/SIM-COL round pays a fixed dispatch cost
(future submission, wave bookkeeping) that dwarfs the round's actual
kernel work, so the threaded backend runs *slower* than serial.  The
fix is a per-round break-even decision inside
:meth:`ExecutionContext.map_chunks`: estimate what dispatching would
save, compare against what it costs, and run the round inline on the
coordinator when parallelism cannot pay for itself.

The break-even model
--------------------
A round of ``C`` chunks carrying ``U`` work units (item count, or the
engine's degree weights when it passes them) is predicted to spend
``unit_s * U / C`` kernel seconds per chunk.  Only that in-kernel time
parallelizes (the per-chunk Python/NumPy fixed overhead holds the GIL
and is paid per chunk either way), so with
``p = min(workers, C, cpu_count)`` effective lanes the most a dispatch
can save is::

    saving = unit_s * (U / C) * (1 - 1/p)

against a per-chunk dispatch + combine cost ``dispatch_s[backend]``
(keyed by backend; only ``threaded`` dispatches).
The round dispatches only when ``saving > MARGIN * dispatch_s`` —
``MARGIN`` (2x) absorbs the optimism of both estimates: the no-op
calibration is a lower bound on real dispatch cost (no result
marshalling, no GIL interference), and ``p`` assumes perfect overlap.

Both model inputs are online EWMAs seeded by one-shot calibration:

- ``unit_s`` — kernel seconds per work unit, per kernel name (a
  ``jp.wave`` unit is much heavier than an ``adg.select`` unit), with a
  global fallback for kernels not yet observed.  Seeded by timing one
  representative segmented gather; updated only from chunks large
  enough (:data:`UNIT_FLOOR`) that per-call fixed overhead does not
  pollute the per-unit slope.
- ``dispatch_s[backend]`` — per-chunk dispatch + combine seconds.
  Seeded by pushing a wave of no-op tasks through the real pool, then
  updated from every dispatched round's measured overhead
  (``round_wall - kernel_wall / p``).  Floored (:data:`DISPATCH_FLOOR`)
  because a no-op measurement can only undershoot.

The decision changes *scheduling only*: chunk boundaries, combine
order, and fault-plan coordinates (round, chunk, attempt) are identical
whether a round is inlined or dispatched, which is what keeps colors,
rounds, and the cost/memory books bit-identical across every
``$REPRO_ADAPTIVE`` mode (see DESIGN.md).
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..primitives.kernels import multi_slice_gather

#: Recognized $REPRO_ADAPTIVE values. ``on``/``off`` switch the
#: estimator; ``inline``/``parallel`` force every eligible round's
#: decision one way (for tests and A/B benchmarks).
ADAPTIVE_MODES = ("on", "off", "inline", "parallel")

#: Dispatch must promise at least this multiple of the estimated
#: per-chunk overhead before a round leaves the coordinator.
MARGIN = 2.0

#: EWMA weight of the newest observation.
ALPHA = 0.25

#: Minimum chunk size (work units) for unit_s updates: below this the
#: per-call fixed overhead dominates and would corrupt the slope.
UNIT_FLOOR = 2048

#: Floor (seconds/chunk) under the calibrated dispatch cost — no-op
#: calibration is a lower bound on the real thing.
DISPATCH_FLOOR = 2e-5

#: Work units for the one-shot unit_s calibration gather.
_CAL_UNITS = 1 << 16


def noop_task() -> None:
    """No-op shipped through a pool to time its round trip."""
    return None


def default_adaptive() -> str:
    """Adaptive mode: $REPRO_ADAPTIVE if set, else ``'on'``.

    Adaptive dispatch never changes results (only which side of the
    pool a round runs on), so it defaults on; ``off`` restores the
    always-dispatch behavior, ``inline``/``parallel`` force the
    decision for tests.
    """
    env = os.environ.get("REPRO_ADAPTIVE", "").strip().lower()
    if not env:
        return "on"
    if env in ("0", "off", "false", "no"):
        return "off"
    if env in ("1", "on", "true", "yes"):
        return "on"
    if env in ADAPTIVE_MODES:
        return env
    raise ValueError(f"$REPRO_ADAPTIVE must be one of {ADAPTIVE_MODES} "
                     f"(or a boolean flag), got {env!r}")


def resolve_adaptive(adaptive) -> str:
    """Normalize an ``adaptive=`` argument to one of ADAPTIVE_MODES."""
    if adaptive is None:
        return default_adaptive()
    if adaptive is True:
        return "on"
    if adaptive is False:
        return "off"
    mode = str(adaptive).strip().lower()
    if mode not in ADAPTIVE_MODES:
        raise ValueError(f"adaptive must be one of {ADAPTIVE_MODES}, "
                         f"got {adaptive!r}")
    return mode


class DispatchEstimator:
    """Online break-even model deciding inline vs. parallel per round.

    One instance lives on the run's pool-host context and is shared by
    every child context, so the ordering phase's observations inform
    the coloring phase's decisions.
    """

    def __init__(self, alpha: float = ALPHA, margin: float = MARGIN):
        self.alpha = alpha
        self.margin = margin
        self.unit_s: dict = {}        # kernel name -> EWMA sec/unit
        self.unit_s_global: float | None = None
        self.dispatch_s: dict = {}    # backend -> EWMA sec/chunk
        self.seeded: dict = {}        # backend -> "calibrated"
        self.decisions = {"inline": 0, "parallel": 0}

    # -- seeding -------------------------------------------------------------

    def seed_unit(self) -> None:
        """One-shot unit_s seed: time a representative segmented gather
        (the shape every kernel in this library is built from)."""
        if self.unit_s_global is not None:
            return
        data = np.arange(_CAL_UNITS, dtype=np.int64)
        starts = np.arange(0, _CAL_UNITS, 64, dtype=np.int64)
        counts = np.full(starts.size, 64, dtype=np.int64)
        t0 = time.perf_counter()
        multi_slice_gather(data, starts, counts)
        self.unit_s_global = max(
            (time.perf_counter() - t0) / _CAL_UNITS, 1e-10)

    def seed_dispatch(self, backend: str, pool, tasks: int = 16) -> None:
        """One-shot dispatch_s seed for ``backend``: round-trip
        ``tasks`` no-ops through its live ``pool`` and average."""
        if backend in self.dispatch_s:
            return
        t0 = time.perf_counter()
        futs = [pool.submit(noop_task) for _ in range(tasks)]
        for f in futs:
            f.result()
        per_chunk = (time.perf_counter() - t0) / tasks
        self.dispatch_s[backend] = max(per_chunk, DISPATCH_FLOOR)
        self.seeded[backend] = "calibrated"

    # -- model ---------------------------------------------------------------

    def _unit(self, key) -> float:
        got = self.unit_s.get(key)
        if got is not None:
            return got
        return self.unit_s_global if self.unit_s_global is not None else 1e-8

    def should_inline(self, backend: str, key, units: float,
                      chunks: int, p_eff: int) -> bool:
        """The break-even test (see module docstring)."""
        if p_eff <= 1:
            return True
        saving = self._unit(key) * (units / chunks) * (1.0 - 1.0 / p_eff)
        return saving <= self.margin * self.dispatch_s[backend]

    def observe_round(self, backend: str, key, chunks: int, units: float,
                      round_s: float, kernel_s: float, measured: int,
                      inline: bool, p_eff: int) -> None:
        """Feed one finished round back into the EWMAs.

        ``kernel_s`` is the sum of in-kernel chunk walls over
        ``measured`` chunk executions; dispatched rounds additionally
        refine the backend's per-chunk overhead from
        ``round_s - kernel_s / p_eff`` (the wall the pool added on top
        of perfectly-overlapped kernel time).
        """
        a = self.alpha
        if measured and units > 0 and units / chunks >= UNIT_FLOOR:
            per_unit = kernel_s / units
            prev = self.unit_s.get(key)
            self.unit_s[key] = per_unit if prev is None \
                else (1 - a) * prev + a * per_unit
            prevg = self.unit_s_global
            self.unit_s_global = per_unit if prevg is None \
                else (1 - a) * prevg + a * per_unit
        if not inline and measured:
            overhead = max(0.0, round_s - kernel_s / max(1, p_eff))
            per_chunk = max(overhead / chunks, DISPATCH_FLOOR)
            prev = self.dispatch_s.get(backend)
            self.dispatch_s[backend] = per_chunk if prev is None \
                else (1 - a) * prev + a * per_chunk

    # -- reporting -----------------------------------------------------------

    def record(self) -> dict:
        """JSON-friendly digest for ``ColoringResult.dispatch``."""
        return {
            "decisions": dict(self.decisions),
            "unit_s": {str(k): float(v) for k, v in
                       sorted(self.unit_s.items())},
            "unit_s_global": self.unit_s_global,
            "dispatch_s": {k: float(v) for k, v in
                           sorted(self.dispatch_s.items())},
            "seeded": dict(self.seeded),
            "margin": self.margin,
        }


def effective_parallelism(workers: int, chunks: int) -> int:
    """Lanes a dispatch can realistically use: bounded by the worker
    count, the chunk count, and the machine's CPU count (a 4-worker
    pool on one core overlaps nothing)."""
    return max(1, min(workers, chunks, os.cpu_count() or 1))
