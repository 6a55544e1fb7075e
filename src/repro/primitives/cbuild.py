"""The one compiled-code mechanism: a C source built with the system
compiler into a shared-object cache and loaded through ctypes.

A :class:`CLibrary` names a C source and a ``bind`` function that sets
the ctypes signatures.  Its :meth:`~CLibrary.load` compiles the source
at most once per process (guarded by a lock, so concurrent callers —
service threads — agree on one outcome) and returns what
``bind`` returned, or ``None`` when there is no C compiler or the
build fails.  Callers keep a pure-Python path for ``None``; whether the
compiled path runs is decided by the build alone, never by an option.

Built objects are cached under ``$REPRO_CC_CACHE`` (default: a
per-user directory under the system temp dir), keyed by a sha256 of
the source, so an edited source never loads a stale object.  Each
build writes a private temp file and ``os.replace``-s it into place,
so concurrent builders in separate processes agree on the result.

Compiled code indexes its arrays unchecked, so every CSR handed to it
first passes :func:`checked_csr`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Any, Callable

import numpy as np


def cc_cache_dir() -> str:
    """Directory holding the compiled objects (``$REPRO_CC_CACHE``)."""
    env = os.environ.get("REPRO_CC_CACHE", "").strip()
    if env:
        return env
    uid = os.getuid() if hasattr(os, "getuid") else "na"
    return os.path.join(tempfile.gettempdir(), f"repro-cc-{uid}")


def build_shared(stem: str, source: str) -> ctypes.CDLL | None:
    """Compile (or reuse) ``source`` as ``<stem>-<sha>.so``; load it.

    Returns ``None`` when no C compiler is on ``PATH`` or the compiler
    rejects the source.
    """
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        return None
    tag = hashlib.sha256(source.encode()).hexdigest()[:12]
    cdir = cc_cache_dir()
    so_path = os.path.join(cdir, f"{stem}-{tag}.so")
    if not os.path.exists(so_path):
        os.makedirs(cdir, exist_ok=True)
        src = os.path.join(cdir, f"{stem}-{tag}.c")
        tmp = os.path.join(cdir, f".{stem}-{tag}.{os.getpid()}.so")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(source)
        proc = subprocess.run([cc, "-O3", "-fPIC", "-shared", "-o", tmp, src],
                              capture_output=True, timeout=120)
        if proc.returncode != 0:
            return None
        os.replace(tmp, so_path)  # atomic: concurrent builders agree
    return ctypes.CDLL(so_path)


class CLibrary:
    """A C source built and bound at most once per process.

    ``bind(lib)`` receives the loaded :class:`ctypes.CDLL`, sets the
    function signatures, and returns whatever the callers need (a
    function, or a dict of them).
    """

    def __init__(self, stem: str, source: str,
                 bind: Callable[[ctypes.CDLL], Any]) -> None:
        self.stem = stem
        self.source = source
        self._bind = bind
        self._lock = threading.Lock()
        self._tried = False
        self._bound: Any = None

    def load(self) -> Any:
        """The bound functions, or ``None`` when the build is unavailable."""
        with self._lock:
            if not self._tried:
                self._tried = True
                try:
                    lib = build_shared(self.stem, self.source)
                    self._bound = self._bind(lib) if lib is not None else None
                except (OSError, subprocess.SubprocessError,
                        AttributeError):
                    # No usable object (unwritable cache, compiler
                    # timeout, missing symbol): callers run Python.
                    self._bound = None
            return self._bound


def checked_csr(indptr: np.ndarray, indices: np.ndarray,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """``indptr``/``indices`` as aligned C-contiguous int64,
    bounds-checked.

    An array that is not 8-byte aligned (a member memory-mapped at an
    odd offset of an old ingest cache) is copied, since a compiled loop
    must not load from it.  Raises ``ValueError`` unless ``indptr`` has
    ``n + 1`` entries rising from 0 to ``len(indices)`` and every index
    names a vertex 0..n-1 — the bounds a compiled CSR loop relies on.
    """
    indptr = np.require(indptr, np.int64, ["C", "A"])
    indices = np.require(indices, np.int64, ["C", "A"])
    if indptr.size != n + 1:
        raise ValueError("indptr must have n + 1 entries")
    if indptr[0] != 0 or np.any(np.diff(indptr) < 0) \
            or indptr[-1] != indices.size:
        raise ValueError("indptr must rise from 0 to len(indices)")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError("indices must name vertices 0..n-1")
    return indptr, indices
