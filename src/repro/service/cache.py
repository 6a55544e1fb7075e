"""The service's digest-keyed result cache.

A cached entry is safe to replay only if *every* input that can change
the observable response participates in the key: the graph's content
digest (so an in-place delta invalidates by construction — see
``CSRGraph.content_digest``), the algorithm name, its quality knob
``eps``, and the tiebreak ``seed``.  Colors are backend- and
worker-count-independent by construction, kernels are NumPy, and the
cached block records no execution configuration, so no configuration
field joins the key.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock


def cache_key(digest: str, algorithm: str, eps: float | None, seed) -> str:
    """The replay-identity of a color request (see module docstring);
    ``eps`` is the ε the run uses, ``None`` for an algorithm without
    one."""
    eps = None if eps is None else float(eps)
    return f"{digest}|{algorithm}|eps={eps!r}|seed={seed!r}"


class ResultCache:
    """A thread-safe LRU over finished color responses.

    Values are the deterministic ``result`` blocks of color responses
    (no wall-clock fields), so a hit is bit-identical to the miss that
    populated it.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[str, dict] = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> dict | None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key: str, value: dict) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def invalidate(self, key: str) -> None:
        with self._lock:
            self._data.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> dict:
        with self._lock:
            return {"size": len(self._data), "capacity": self.capacity,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}
