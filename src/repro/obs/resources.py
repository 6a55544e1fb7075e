"""Resource telemetry: what a run actually costs in memory and CPU.

Two collection points, both owned by the pool-hosting
:class:`~repro.runtime.ExecutionContext`:

- :class:`ResourceSampler` — a daemon thread on the *coordinator* that
  samples resident set size and CPU seconds at a fixed interval,
  keeping running maxima.  When the run is traced each sample also
  lands as a ``res.rss_kb`` gauge in the tracer's
  :class:`~repro.obs.metrics.MetricsRegistry`, so a profile shows the
  memory curve next to the frontier curve.
- per-*shard* rows — sharded runs carry each shard engine's pid, peak
  RSS and CPU seconds on their result records;
  :func:`merge_worker_probes` dedupes the rows by pid.

Default off (the zero-overhead contract): collection turns on with
``ExecutionContext(resources=True)``, ``$REPRO_RESOURCES=1``, or
implicitly whenever the run ledger is enabled — the ledger record is
where the telemetry is durably useful.
"""

from __future__ import annotations

import os
import threading
import time

#: Seconds between coordinator samples ($REPRO_RESOURCE_INTERVAL).
DEFAULT_INTERVAL_S = 0.02


def peak_rss_kb() -> int:
    """This process's lifetime peak resident set in KiB (0 where
    unsupported).

    Prefers ``VmHWM`` from ``/proc/self/status`` over ``ru_maxrss``:
    on Linux a vfork+exec child (how CPython spawns subprocesses)
    inherits the parent's mm high-water mark into its ``ru_maxrss``
    at exec time, so rusage over-reports for any freshly exec'd
    process whose parent was large.  ``VmHWM`` is reset by exec.
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def current_rss_kb() -> int:
    """The current resident set in KiB (falls back to the peak)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        return peak_rss_kb()


def cpu_seconds() -> float:
    """User + system CPU seconds of this process."""
    t = os.times()
    return float(t.user + t.system)


def resolve_resources(resources) -> bool | None:
    """Resolve the ``resources=`` argument of an ExecutionContext.

    Booleans are explicit; ``None`` defers to ``$REPRO_RESOURCES``
    (``1``/``on`` -> True, ``0``/``off`` -> False) and returns ``None``
    when the env is silent too — the context then follows the ledger
    (telemetry on iff the run is being recorded).
    """
    if isinstance(resources, bool):
        return resources
    if resources is None:
        env = os.environ.get("REPRO_RESOURCES", "").strip().lower()
        if not env:
            return None
        if env in ("0", "off", "false", "no"):
            return False
        if env in ("1", "on", "true", "yes"):
            return True
        raise ValueError(f"$REPRO_RESOURCES must be a boolean flag "
                         f"(1/0/on/off), got {env!r}")
    raise TypeError(f"resources must be a bool or None; "
                    f"got {type(resources).__name__}")


def default_interval_s() -> float:
    env = os.environ.get("REPRO_RESOURCE_INTERVAL", "").strip()
    if not env:
        return DEFAULT_INTERVAL_S
    val = float(env)
    if val <= 0:
        raise ValueError(f"$REPRO_RESOURCE_INTERVAL must be > 0, got {val}")
    return val


class ResourceSampler:
    """Coordinator-side sampler thread with running maxima.

    ``tracer`` is an enabled tracer to receive per-sample
    ``res.rss_kb`` gauges (round = sample index).  :meth:`digest`
    reads the maxima without stopping the thread, so one sampler can
    serve several runs on a shared context; :meth:`stop` joins the
    thread (idempotent, called by ``ExecutionContext.close``).
    """

    def __init__(self, interval: float | None = None, tracer=None):
        self.interval = interval if interval is not None \
            else default_interval_s()
        self._tracer = tracer if tracer is not None and tracer.enabled \
            else None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._cpu0 = cpu_seconds()
        self.samples = 0
        self.max_rss_kb = 0

    def start(self) -> "ResourceSampler":
        if self._thread is None:
            self._sample()
            self._thread = threading.Thread(target=self._loop,
                                            name="repro-resource-sampler",
                                            daemon=True)
            self._thread.start()
        return self

    def _sample(self) -> None:
        rss = current_rss_kb()
        self.max_rss_kb = max(self.max_rss_kb, rss)
        if self._tracer is not None:
            self._tracer.gauge("res.rss_kb", rss, round=self.samples)
        self.samples += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def digest(self) -> dict:
        """Coordinator block of a resource record (non-destructive)."""
        return {
            "pid": os.getpid(),
            "samples": self.samples,
            "interval_s": self.interval,
            "peak_rss_kb": max(self.max_rss_kb, peak_rss_kb()),
            "cpu_s": round(max(0.0, cpu_seconds() - self._cpu0), 6),
        }

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def merge_worker_probes(probes: list[dict]) -> list[dict]:
    """Dedupe worker rows by pid, keeping per-pid maxima.

    Shards run on the coordinator, so several shard rows report the
    same pid; the merged row keeps the max peak RSS and CPU seen for
    that pid plus any extra keys (e.g. the first ``shard``).
    """
    by_pid: dict[int, dict] = {}
    for p in probes:
        pid = p.get("pid")
        if pid is None:
            continue
        cur = by_pid.get(pid)
        if cur is None:
            by_pid[pid] = dict(p)
            continue
        cur["peak_rss_kb"] = max(cur.get("peak_rss_kb", 0),
                                 p.get("peak_rss_kb", 0))
        cur["cpu_s"] = round(max(cur.get("cpu_s", 0.0),
                                 p.get("cpu_s", 0.0)), 6)
        for key, val in p.items():
            cur.setdefault(key, val)
    return [by_pid[pid] for pid in sorted(by_pid)]
