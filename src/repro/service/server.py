"""ColoringService: the asyncio request layer over the coloring engines.

Requests are dicts ``{"op": ..., ...}``; responses are dicts with an
``"ok"`` flag.  An asyncio job queue feeds a small worker-task pool;
each worker dispatches the blocking NumPy engine call onto a thread
executor.  A ``color``/``profile`` request, and a ``verify`` with no
live coloring, runs under its own fresh
:class:`~repro.runtime.ExecutionContext` (so its books are its own),
and a graph's live
:class:`~repro.coloring.incremental.IncrementalColoring` owns its
context until the graph is reloaded or the service stops.

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
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..coloring.incremental import INCREMENTAL_FAMILY, IncrementalColoring
from ..coloring.registry import ALGORITHMS, EPS_ALGORITHMS, color
from ..coloring.verify import is_valid_coloring
from ..graphs.builders import from_edges
from ..graphs.csr import CSRGraph
from ..graphs.delta import GraphDelta, parse_delta_spec
from ..graphs.generators import gnm_random, grid_2d, kronecker, ring
from ..obs.ledger import resolve_ledger, service_record
from ..obs.metrics import MetricsRegistry
from ..runtime import (ExecutionContext, check_backend, check_workers,
                       default_backend)
from .cache import ResultCache, cache_key

DEFAULT_ALGORITHM = "DEC-ADG-ITR"


def colors_digest(colors: np.ndarray) -> str:
    """Stable 16-hex-char hash of a color vector (response identity)."""
    arr = np.ascontiguousarray(np.asarray(colors, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


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
        return GraphDelta(add_edges=spec.get("add_edges"),
                          remove_edges=spec.get("remove_edges"),
                          add_vertices=int(spec.get("add_vertices", 0)),
                          remove_vertices=spec.get("remove_vertices"))
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
        self.num_workers = check_workers(workers, "workers")
        # A bad backend (or $REPRO_BACKEND) fails here, not every request.
        self.backend = (default_backend() if backend is None
                        else check_backend(backend, "backend"))
        self.ctx_workers = (None if ctx_workers is None
                            else check_workers(ctx_workers, "ctx_workers"))
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
        # Keyed on the ε the run uses: the engine's default when the
        # request names none, and none for an algorithm without one.
        eps = kwargs.get("eps", EPS_ALGORITHMS[algorithm]) \
            if algorithm in EPS_ALGORITHMS else None
        key = cache_key(digest, algorithm, eps, kwargs.get("seed", 0))
        if not profile:
            hit = self.cache.get(key)
            if hit is not None:
                self._bump("svc.cache.hits")
                return {"ok": True, "op": "color", "graph": entry.name,
                        "cached": True, "result": hit}
            self._bump("svc.cache.misses")
        # An exception propagates: the request gets an error response.
        result = await asyncio.get_running_loop().run_in_executor(
            self.executor, self._color, algorithm, g, kwargs)
        block = {
            "digest": digest, "algorithm": algorithm,
            "eps": result.eps,
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

    def _color(self, algorithm: str, g: CSRGraph, kwargs: dict):
        """One engine call, on the calling (executor) thread.

        Every algorithm runs under a fresh context on the service's
        backend; ``ledger=False`` because the service writes its own
        ledger rows, so the driver writes none and no per-request
        resource sampler starts.
        """
        with ExecutionContext(backend=self.backend,
                              workers=self.ctx_workers,
                              ledger=False) as ctx:
            return color(algorithm, g, ctx=ctx, **kwargs)

    def _incremental(self, request: dict,
                     entry: _GraphEntry) -> IncrementalColoring:
        if entry.incremental is None:
            algorithm = str(request.get("algorithm", DEFAULT_ALGORITHM))
            if algorithm not in INCREMENTAL_FAMILY:
                raise ValueError(
                    f"incremental recoloring supports {INCREMENTAL_FAMILY}, "
                    f"got {algorithm!r}")
            eps = request.get("eps")  # None: the engine's default
            entry.incremental = IncrementalColoring(
                entry.graph, algorithm,
                eps=None if eps is None else float(eps),
                seed=request.get("seed", 0),
                backend=self.backend, workers=self.ctx_workers)
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
            result = self._color(algorithm, entry.graph,
                                 self._engine_kwargs(request))
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
                "metrics": self.metrics.summary()}
