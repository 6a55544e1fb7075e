"""Shared pieces of the repository benchmark.

Paths, environment confinement, statistics, the benchmark-owned span
recorder, the paper-bound certificate and the base class of the three
workloads.  Nothing here imports the program: ``run.py`` calls
:func:`confine` first and only then imports the workload modules,
which import ``repro``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives under here (ignored by git).
WORK = ROOT / ".bench_build" / "perfbench"
RESULTS = WORK / "results"

#: The CLI's default ``--eps``; every bound check uses it.
EPS = 0.01
#: The engines' default seed (``color`` and the CLI use 0).
ENGINE_SEED = 0


def confine() -> None:
    """Keep the run inside the checkout and on the program's defaults.

    Must run before ``repro`` is imported.  Ambient ``REPRO_*`` knobs
    are dropped, and the temp dir (ingest spill files) and the C-parser
    build cache move under :data:`WORK`.  Exits non-zero when the
    program's sources are missing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {SRC}")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["REPRO_CC_CACHE"] = str(WORK / "cc")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def load_workers() -> int:
    """Engine workers / client connections of the parallel workloads."""
    return min(nproc(), 4)


def git_sha() -> str:
    """HEAD of the checkout, read from its own ``.git`` (``unknown`` if none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(
                encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def file_sha(path: Path) -> str:
    """First 16 hex digits of the file's SHA-256."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


# -- statistics ---------------------------------------------------------------

def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def tail(xs) -> tuple[float, str]:
    """The highest of p99 / p90 that has at least ten samples beyond it.

    Falls back to the median when no such percentile exists (the batch
    workloads run too few jobs for one).  Returns ``(value, label)``.
    """
    n = len(xs)
    s = sorted(xs)
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            return float(s[math.ceil(q * n / 100) - 1]), f"p{q}"
    return median(s), "p50"


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def steal_s() -> float:
    """Hypervisor steal time of all CPUs since boot (``/proc/stat``), in s."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _child_pids() -> list[int]:
    me = str(os.getpid())
    out = []
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                with open(f"/proc/{entry.name}/stat", encoding="ascii") as fh:
                    if fh.read().rsplit(")", 1)[1].split()[1] == me:
                        out.append(int(entry.name))
            except (OSError, IndexError):
                pass  # gone meanwhile
    return out


def _pid_cpu_s(pid: int) -> float:
    """CPU time of a live process (0 once it has gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            f = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(f[11]) + int(f[12])) / os.sysconf("SC_CLK_TCK")


def _tree_cpu_s() -> float:
    """CPU time of this process, its reaped children and its live ones."""
    rc = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + rc.ru_utime + rc.ru_stime + sum(
        _pid_cpu_s(pid) for pid in _child_pids())


class Stopwatch:
    """Wall time of a block, with the hypervisor's steal taken out.

    On a virtual machine the host may run other guests on this guest's
    CPUs while its threads want to run; that *steal* time lengthens the
    wall but is no property of the program, and on a shared host it
    swings from run to run.  Over a block with wall ``W``, CPU time
    ``C`` of this process and its children (live ones included, such as
    a server it started), and steal ``S`` of all CPUs, the threads
    wanted ``C + S`` of CPU and got ``C``, so ``busy = W * C / (C + S)``.
    Time spent waiting (I/O, sleeps, sockets) stays in ``busy``, scaled
    by the same share.
    """

    def __enter__(self) -> "Stopwatch":
        self._c0, self._s0 = _tree_cpu_s(), steal_s()
        self._w0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._w0
        self.cpu = _tree_cpu_s() - self._c0
        self.steal = max(steal_s() - self._s0, 0.0)
        self.share = self.cpu / (self.cpu + self.steal) \
            if self.cpu + self.steal > 0 else 1.0
        self.busy = self.wall * self.share


def steal_share(clocks) -> float:
    """Share of the CPU time ``clocks``' threads wanted that was stolen."""
    cpu = sum(c.cpu for c in clocks)
    stolen = sum(c.steal for c in clocks)
    return stolen / (cpu + stolen) if cpu + stolen else 0.0


def ns_per_unit(wall_s: float, work: int, depth: int, p: int) -> float:
    """Measured wall over the Brent prediction ``W/P + D``, in ns."""
    units = work / p + depth
    return wall_s * 1e9 / units if units else 0.0


def paper_bound(d: int) -> int:
    """Colors JP-ADG and DEC-ADG-ITR may use: ceil(2(1+eps)d) + 1."""
    return math.ceil(2 * (1 + EPS) * d) + 1


# -- spans ----------------------------------------------------------------------

class Spans:
    """The benchmark's own span log, kept in memory, written at exit.

    Spans wrap calls into the program's public functions from outside;
    nothing is recorded inside ``src/``.  Each span keeps its name,
    start, end, parent span and job id.  The parent stack is per
    thread, so client threads can record at the same time.
    """

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, job):
        """Time the block; yields the event, whose ``wall`` is set on exit."""
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = next(self._ids)
        ev = {"id": sid, "parent": stack[-1] if stack else None, "job": job,
              "name": name, "t0": time.perf_counter()}
        stack.append(sid)
        try:
            yield ev
        finally:
            ev["t1"] = time.perf_counter()
            ev["wall"] = ev["t1"] - ev["t0"]
            stack.pop()
            with self._lock:
                self.events.append(ev)

    def walls(self, name: str) -> list[float]:
        """Durations of every span called ``name``."""
        return [e["wall"] for e in self.events if e["name"] == name]

    def per_job(self, name: str) -> list[float]:
        """Per job, the summed wall of its spans called ``name``."""
        out: dict = {}
        for e in self.events:
            if e["name"] == name:
                out[e["job"]] = out.get(e["job"], 0.0) + e["wall"]
        return list(out.values())

    def attributed(self, root: str) -> dict:
        """Per ``root`` span id, the time its direct children cover."""
        roots = {e["id"]: 0.0 for e in self.events if e["name"] == root}
        for e in self.events:
            if e["parent"] in roots:
                roots[e["parent"]] += e["wall"]
        return roots

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": sorted(self.events, key=lambda e: e["t0"])},
                      fh)


# -- workloads -------------------------------------------------------------------

class CertificationError(RuntimeError):
    """A job's output failed a validity, bound or determinism check."""


def certify(ok: bool, what: str) -> None:
    if not ok:
        raise CertificationError(what)


class Workload:
    """Counting and timing shared by the three workloads.

    A subclass's constructor is its set-up (generate inputs, start
    what must run, warm up).  ``measure(seconds)`` runs for the given
    seconds and returns the end-to-end metrics; ``measure_traced
    (seconds, spans)`` returns ``(per_layer, report_lines)``.  Every
    job goes through :meth:`attempt`, which counts it and turns any
    exception into a counted failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._count_lock = threading.Lock()
        #: name -> content digest of every input the seed generated.
        self.inputs: dict[str, str] = {}
        #: configuration fields recorded with every result.
        self.config: dict = {}

    def attempt(self, fn, *args):
        """Count one attempt and run it through :meth:`check`."""
        with self._count_lock:
            self.attempted += 1
        return self.check(fn, *args)

    def check(self, fn, *args):
        """Run ``fn``; an exception counts as a failure and returns None.

        A check made after its attempt returned (svc-dynamic certifies
        replies after the timed loop) calls this directly, so what it
        finds counts against that attempt.
        """
        try:
            return fn(*args)
        except Exception:
            with self._count_lock:
                self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def run_for(self, seconds: float, fn) -> list:
        """Call ``fn(job_index)`` until ``seconds`` pass (at least once).

        Returns the results of the jobs that did not fail.
        """
        out = []
        t0 = time.perf_counter()
        for job in itertools.count():
            r = self.attempt(fn, job)
            if r is not None:
                out.append(r)
            if time.perf_counter() - t0 >= seconds:
                break
        return out

    def close(self) -> None:
        pass


def layer_table(title: str, rows: list[tuple], fracs: dict) -> list[str]:
    """The traced-run report: each layer's wall beside ``W/P + D``.

    ``rows`` are ``(layer, wall_s, work, depth, p)``; ``work`` is None
    for layers that book no work/depth.
    """
    lines = [title,
             f"  {'layer':<30}{'wall_s':>10}{'W':>12}{'D':>9}{'P':>3}"
             f"{'W/P+D':>12}{'ns/unit':>9}"]
    for layer, wall, work, depth, p in rows:
        if work is None:
            lines.append(f"  {layer:<30}{wall:>10.4f}{'-':>12}{'-':>9}"
                         f"{'-':>3}{'-':>12}{'-':>9}")
        else:
            lines.append(f"  {layer:<30}{wall:>10.4f}{work:>12d}{depth:>9d}"
                         f"{p:>3d}{work / p + depth:>12.0f}"
                         f"{ns_per_unit(wall, work, depth, p):>9.2f}")
    lines.append("  " + "  ".join(f"{k} {v:.4f}" for k, v in fracs.items()))
    return lines
