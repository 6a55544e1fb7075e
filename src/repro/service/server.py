"""ColoringService: the asyncio request layer over the coloring engines.

Requests are dicts ``{"op": ..., ...}``; responses are dicts with an
``"ok"`` flag.  An asyncio job queue feeds a small worker-task pool;
each worker dispatches the blocking NumPy engine call onto a thread
executor with an :class:`~repro.runtime.ExecutionContext` borrowed from
a long-lived pool (scratch buffers persist across requests; only the
cost/mem books reset between them — ``ExecutionContext.reset_books``).

Guarantees the tests lean on:

- **Digest-keyed cache**: ``color`` responses carry a deterministic
  ``result`` block keyed by
  :func:`repro.service.cache.cache_key`; identical requests on an
  identical graph return bit-identical ``result`` blocks, the second
  one flagged ``"cached": True``.
- **FIFO per graph**: every request naming a graph receives a sequence
  number at submission; workers apply them strictly in that order (an
  :class:`asyncio.Condition` per graph), so concurrent deltas from many
  clients serialize deterministically while requests on *other* graphs
  proceed in parallel.
- **Always completes**: an exception raised while serving a request
  becomes an error response — the request future always completes, it
  never hangs, and nothing is retried.

Every request — failed ones included — appends one ``kind="service"``
row to the run ledger (when one is configured) and bumps ``svc.*``
metrics on the service's :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..coloring.incremental import INCREMENTAL_FAMILY, IncrementalColoring
from ..coloring.registry import ALGORITHMS, BACKEND_AWARE, color
from ..coloring.verify import is_valid_coloring
from ..graphs.builders import from_edges
from ..graphs.csr import CSRGraph
from ..graphs.delta import GraphDelta, parse_delta_spec
from ..graphs.generators import gnm_random, grid_2d, kronecker, ring
from ..obs.ledger import resolve_ledger, service_record
from ..obs.metrics import MetricsRegistry
from ..runtime import ExecutionContext
from .cache import ResultCache, cache_key

DEFAULT_ALGORITHM = "DEC-ADG-ITR"
DEFAULT_EPS = 0.01


def colors_digest(colors: np.ndarray) -> str:
    """Stable 16-hex-char hash of a color vector (response identity)."""
    arr = np.ascontiguousarray(np.asarray(colors, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


class ContextPool:
    """Long-lived execution contexts, borrowed per request.

    Thread-safe (engine calls run on executor threads).  ``release``
    resets the context's accounting books so the next request starts
    from zero; scratch buffers persist — that is the point of reusing
    the context.
    """

    def __init__(self, backend: str | None = None,
                 workers: int | None = None) -> None:
        self._kw = dict(backend=backend, workers=workers)
        self._lock = threading.Lock()
        self._free: list[ExecutionContext] = []
        self._all: list[ExecutionContext] = []
        self.created = 0

    def borrow(self) -> ExecutionContext:
        with self._lock:
            if self._free:
                return self._free.pop()
        ctx = ExecutionContext(**self._kw)
        with self._lock:
            self._all.append(ctx)
            self.created += 1
        return ctx

    def release(self, ctx: ExecutionContext) -> None:
        ctx.reset_books()
        with self._lock:
            self._free.append(ctx)

    def close(self) -> None:
        with self._lock:
            ctxs, self._all, self._free = self._all, [], []
        for ctx in ctxs:
            ctx.close()


class _GraphEntry:
    """A named live graph plus its per-graph FIFO state."""

    def __init__(self, name: str, graph: CSRGraph) -> None:
        self.name = name
        self.graph = graph
        self.cond = asyncio.Condition()
        self.next_seq = 0        # assigned at submission (FIFO ticket)
        self.applied_seq = -1    # last ticket fully processed
        self.incremental: IncrementalColoring | None = None


def _build_graph(params: dict) -> CSRGraph:
    """Materialize the ``load`` request's graph.

    Three forms: ``path`` (an edge-list file on the server's disk,
    streamed through :mod:`repro.graphs.ingest` and its binary cache),
    ``edges`` (inline pair list), or ``gen`` (generator spec).
    """
    if "path" in params:
        from ..graphs.ingest import ingest
        return ingest(params["path"])
    if "edges" in params:
        edges = np.asarray(params["edges"], dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        n = params.get("n")
        u, v = edges[:, 0], edges[:, 1]
        return from_edges(u, v, n=int(n) if n is not None else None)
    gen = params.get("gen")
    if not isinstance(gen, dict) or "kind" not in gen:
        raise ValueError(
            "load needs 'path', 'edges', or a 'gen' dict with 'kind'")
    kind = gen["kind"]
    if kind == "gnm":
        return gnm_random(int(gen["n"]), int(gen["m"]),
                          seed=gen.get("seed", 0))
    if kind == "ring":
        return ring(int(gen["n"]))
    if kind == "kronecker":
        return kronecker(int(gen["scale"]),
                         int(gen.get("edge_factor", 16)),
                         seed=gen.get("seed", 0))
    if kind == "grid":
        return grid_2d(int(gen["rows"]), int(gen["cols"]))
    raise ValueError(f"unknown generator kind {kind!r}; "
                     "options: gnm, ring, kronecker, grid")


def _parse_delta(spec) -> GraphDelta:
    """A delta arrives as a spec string or an explicit field dict."""
    if isinstance(spec, str):
        return parse_delta_spec(spec)
    if isinstance(spec, dict):
        def pairs(key):
            arr = np.asarray(spec.get(key, []), dtype=np.int64)
            return arr.reshape(-1, 2) if arr.size else None
        rmv = np.asarray(spec.get("remove_vertices", []), dtype=np.int64)
        return GraphDelta(add_edges=pairs("add_edges"),
                          remove_edges=pairs("remove_edges"),
                          add_vertices=int(spec.get("add_vertices", 0)),
                          remove_vertices=rmv if rmv.size else None)
    raise ValueError(f"delta must be a spec string or dict, got "
                     f"{type(spec).__name__}")


class ColoringService:
    """The queue + worker-pool service.  See the module docstring.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly.  :meth:`submit` enqueues a request dict
    and returns its response dict.
    """

    def __init__(self, *, workers: int = 2,
                 backend: str | None = None,
                 ctx_workers: int | None = None,
                 cache_size: int = 128,
                 ledger=None) -> None:
        self.num_workers = max(1, int(workers))
        self.pool = ContextPool(backend=backend, workers=ctx_workers)
        self.cache = ResultCache(cache_size)
        self.metrics = MetricsRegistry()
        self.ledger = resolve_ledger(ledger)
        self.graphs: dict[str, _GraphEntry] = {}
        self.queue: asyncio.Queue = asyncio.Queue()
        self.executor = ThreadPoolExecutor(
            max_workers=self.num_workers,
            thread_name_prefix="svc-engine")
        self.shutdown_event = asyncio.Event()
        self._tasks: list[asyncio.Task] = []
        self._requests = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        for i in range(self.num_workers):
            self._tasks.append(
                asyncio.create_task(self._worker(), name=f"svc-worker-{i}"))

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        self.executor.shutdown(wait=True)
        for entry in self.graphs.values():
            if entry.incremental is not None:
                entry.incremental.close()
        self.pool.close()

    async def __aenter__(self) -> "ColoringService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def _bump(self, name: str, value: float = 1) -> None:
        self.metrics.count(name, value)

    # -- submission --------------------------------------------------------

    async def submit(self, request: dict) -> dict:
        """Enqueue one request and await its response.

        The per-graph FIFO ticket is taken *here*, synchronously on the
        event loop, so submission order — not worker scheduling — fixes
        the order deltas apply in.
        """
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        seq = None
        entry = None
        name = request.get("graph")
        if isinstance(name, str) and name in self.graphs \
                and request.get("op") != "load":
            entry = self.graphs[name]
            seq = entry.next_seq
            entry.next_seq += 1
        await self.queue.put((request, entry, seq, fut))
        return await fut

    # -- worker loop -------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            request, entry, seq, fut = await self.queue.get()
            try:
                response = await self._handle(request, entry, seq)
            except asyncio.CancelledError:
                if not fut.done():
                    fut.set_result({"ok": False, "error": "service stopped"})
                raise
            except Exception as exc:  # never let a worker die silently
                response = {"ok": False, "op": request.get("op"),
                            "error": f"{type(exc).__name__}: {exc}"}
                self._bump("svc.errors")
            finally:
                self.queue.task_done()
            if not fut.done():
                fut.set_result(response)

    async def _handle(self, request: dict, entry: _GraphEntry | None,
                      seq: int | None) -> dict:
        op = str(request.get("op", ""))
        self._requests += 1
        self._bump("svc.requests")
        self._bump(f"svc.op.{op or 'unknown'}")
        t0 = time.perf_counter()
        if entry is None:
            response = await self._dispatch_or_error(op, request, None)
        else:
            # FIFO per graph: wait for our ticket, process, advance.
            async with entry.cond:
                await entry.cond.wait_for(
                    lambda: entry.applied_seq == seq - 1)
            try:
                response = await self._dispatch_or_error(op, request, entry)
            finally:
                async with entry.cond:
                    entry.applied_seq = seq
                    entry.cond.notify_all()
            response.setdefault("seq", seq)
        if not response.get("ok", False):
            self._bump("svc.errors")
        self._ledger_row(op, request, response,
                         wall=time.perf_counter() - t0)
        return response

    def _ledger_row(self, op: str, request: dict, response: dict,
                    wall: float) -> None:
        row = {"graph": request.get("graph"),
               "ok": bool(response.get("ok", False)),
               "wall_s": round(wall, 6)}
        for key in ("digest", "algorithm", "cached", "seq", "error"):
            if key in response:
                row[key] = response[key]
        self.ledger.append(service_record(op or "unknown", row))

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_or_error(self, op: str, request: dict,
                                 entry: _GraphEntry | None) -> dict:
        """:meth:`_dispatch`, with any exception turned into an error
        response — so every request gets exactly one ledger row."""
        try:
            return await self._dispatch(op, request, entry)
        except Exception as exc:
            return {"ok": False, "op": op,
                    "error": f"{type(exc).__name__}: {exc}"}

    async def _dispatch(self, op: str, request: dict,
                        entry: _GraphEntry | None) -> dict:
        if op == "load":
            return await self._op_load(request)
        if op == "stats":
            return self._op_stats()
        if op == "shutdown":
            self.shutdown_event.set()
            return {"ok": True, "op": "shutdown"}
        if entry is None:
            name = request.get("graph")
            return {"ok": False, "op": op,
                    "error": f"unknown graph {name!r}; load it first"}
        if op == "color" or op == "profile":
            return await self._op_color(request, entry,
                                        profile=(op == "profile"))
        if op == "apply_delta":
            return await self._op_delta(request, entry)
        if op == "verify":
            return await self._op_verify(request, entry)
        return {"ok": False, "op": op, "error": f"unknown op {op!r}"}

    # -- ops ---------------------------------------------------------------

    async def _op_load(self, request: dict) -> dict:
        name = request.get("graph")
        if not isinstance(name, str) or not name:
            return {"ok": False, "op": "load",
                    "error": "load needs a 'graph' name"}
        loop = asyncio.get_running_loop()
        g = await loop.run_in_executor(
            self.executor, _build_graph, request)
        old = self.graphs.get(name)
        if old is not None and old.incremental is not None:
            old.incremental.close()
        self.graphs[name] = _GraphEntry(name, g)
        self._bump("svc.graphs.loaded")
        return {"ok": True, "op": "load", "graph": name,
                "n": g.n, "m": g.m, "digest": g.content_digest}

    def _engine_kwargs(self, request: dict) -> dict:
        kwargs = {}
        for key in ("eps", "seed", "max_rounds"):
            if key in request:
                kwargs[key] = request[key]
        return kwargs

    async def _op_color(self, request: dict, entry: _GraphEntry,
                        profile: bool) -> dict:
        algorithm = str(request.get("algorithm", DEFAULT_ALGORITHM))
        if algorithm not in ALGORITHMS:
            return {"ok": False, "op": "color",
                    "error": f"unknown algorithm {algorithm!r}"}
        kwargs = self._engine_kwargs(request)
        g = entry.graph
        digest = g.content_digest
        key = cache_key(digest, algorithm, kwargs.get("eps", DEFAULT_EPS),
                        kwargs.get("seed", 0))
        probe = self.pool.borrow()
        try:
            if not profile:
                hit = self.cache.get(key)
                if hit is not None:
                    self._bump("svc.cache.hits")
                    return {"ok": True, "op": "color", "graph": entry.name,
                            "cached": True, "result": hit}
                self._bump("svc.cache.misses")
            result = await self._run_engine(probe, algorithm, g, kwargs)
        finally:
            self.pool.release(probe)
        block = {
            "digest": digest, "algorithm": algorithm,
            "eps": kwargs.get("eps", DEFAULT_EPS),
            "seed": kwargs.get("seed", 0),
            "n": g.n, "m": g.m,
            "colors": result.num_colors,
            "colors_digest": colors_digest(result.colors),
            "rounds": int(result.rounds),
            "kernel_tier": result.kernel_tier,
        }
        if not profile:
            self.cache.put(key, block)
        response = {"ok": True, "op": "profile" if profile else "color",
                    "graph": entry.name, "cached": False, "result": block}
        if profile:
            response["profile"] = {
                "wall_seconds": result.wall_seconds,
                "reorder_wall_seconds": result.reorder_wall_seconds,
                "work": result.cost.work, "depth": result.cost.depth,
                "backend": result.backend, "workers": result.workers,
                "phase_walls": dict(result.phase_walls),
            }
        return response

    async def _run_engine(self, ctx: ExecutionContext, algorithm: str,
                          g: CSRGraph, kwargs: dict):
        """Run the engine on the executor; an exception propagates (the
        request gets an error response)."""
        loop = asyncio.get_running_loop()

        def run():
            if algorithm in BACKEND_AWARE:
                return color(algorithm, g, ctx=ctx, **kwargs)
            return color(algorithm, g, **kwargs)

        return await loop.run_in_executor(self.executor, run)

    def _incremental(self, request: dict,
                     entry: _GraphEntry) -> IncrementalColoring:
        if entry.incremental is None:
            algorithm = str(request.get("algorithm", DEFAULT_ALGORITHM))
            if algorithm not in INCREMENTAL_FAMILY:
                raise ValueError(
                    f"incremental recoloring supports {INCREMENTAL_FAMILY}, "
                    f"got {algorithm!r}")
            entry.incremental = IncrementalColoring(
                entry.graph, algorithm,
                eps=float(request.get("eps", DEFAULT_EPS)),
                seed=request.get("seed", 0),
                ctx=self.pool.borrow())
            # The incremental engine keeps this context for its
            # lifetime; it is returned to the pool on unload/stop.
            entry.incremental._owns = False
            self._bump("svc.incremental.created")
        return entry.incremental

    async def _op_delta(self, request: dict, entry: _GraphEntry) -> dict:
        try:
            delta = _parse_delta(request.get("delta"))
        except (ValueError, TypeError) as exc:
            return {"ok": False, "op": "apply_delta", "error": str(exc)}
        loop = asyncio.get_running_loop()

        def run():
            inc = self._incremental(request, entry)
            return inc.apply_delta(delta)

        report = await loop.run_in_executor(self.executor, run)
        self._bump("svc.delta.applied")
        self._bump("svc.delta.repaired", report["repaired"])
        if report["full_recompute"]:
            self._bump("svc.delta.full_recomputes")
        return {"ok": True, "op": "apply_delta", "graph": entry.name,
                "digest": entry.graph.content_digest, **report}

    async def _op_verify(self, request: dict, entry: _GraphEntry) -> dict:
        loop = asyncio.get_running_loop()

        def run():
            if entry.incremental is not None:
                return entry.incremental.verify()
            # Stateless verify: no live coloring, so color then check.
            algorithm = str(request.get("algorithm", DEFAULT_ALGORITHM))
            result = color(algorithm, entry.graph,
                           **self._engine_kwargs(request))
            return {"valid": bool(is_valid_coloring(entry.graph,
                                                    result.colors)),
                    "colors": result.num_colors}

        report = await loop.run_in_executor(self.executor, run)
        return {"ok": True, "op": "verify", "graph": entry.name,
                "digest": entry.graph.content_digest, **report}

    def _op_stats(self) -> dict:
        return {"ok": True, "op": "stats",
                "requests": self._requests,
                "graphs": {name: {"n": e.graph.n, "m": e.graph.m,
                                  "applied_seq": e.applied_seq,
                                  "incremental": e.incremental is not None}
                           for name, e in self.graphs.items()},
                "cache": self.cache.stats(),
                "contexts": self.pool.created,
                "metrics": self.metrics.summary()}
