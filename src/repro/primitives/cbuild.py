"""The one compiled library: the C sources in ``repro/csrc`` built with
the system compiler into one shared object and bound through ctypes.

The passes it holds: the ingest parser and CSR build
(``graphs/ingest.py``), the JP/Greedy rank sweep
(``coloring/sweep.py``), the degeneracy peel
(``graphs/properties.py``), the ADG ordering (``ordering/adg.py``),
DEC-ADG-ITR's level pass (``coloring/dec_adg_itr.py``) and the
coloring-verify neighbor scan (``coloring/verify.py``).

:func:`load` compiles every ``csrc/*.c`` in one ``cc`` call, at most
once per process (guarded by a lock, so concurrent callers -- service
threads -- agree on one outcome), and binds the ten entry points of
``csrc/repro.h`` by the one table :data:`SIGNATURES`.  It returns
``None`` when there is no C compiler or the build fails; each caller
asks :func:`entry` for its entry point and runs its pure-Python/NumPy
path on ``None``.  So either every pass runs compiled or every pass
runs its fallback, decided by the build alone, never by an option.

The object is cached under ``$REPRO_CC_CACHE`` (default: a per-user
directory under the system temp dir), keyed by a sha256 of the sources,
the compiler flags and the compiler itself (its resolved path and a
digest of its file's bytes), so an edited source never loads a stale
object, and a cache shared between two compilers -- a sanitizing
wrapper script that ``exec``-s the same ``gcc`` included -- never loads
the other's.  Each build writes a private temp file and ``os.replace``-s it
into place, so concurrent builders in separate processes agree on the
result.

Compiled code indexes its arrays unchecked, so every CSR handed to it
first passes :func:`checked_csr` -- once per graph, through the
``CSRGraph.checked_arrays`` cache.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

#: The directory of the library's C sources (package data).
CSRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "csrc")
#: The compiler flags; no LTO, so each pass compiles on its own.
CFLAGS = ("-O3", "-fPIC", "-shared")

_LL = ctypes.c_longlong
_PTR = ctypes.c_void_p
_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS,ALIGNED")

#: Every entry point of ``csrc/repro.h``: name -> (restype, argtypes).
SIGNATURES = {
    "repro_parse_edges": (_LL, [ctypes.c_char_p, _LL, ctypes.c_ubyte,
                                ctypes.POINTER(_LL), ctypes.POINTER(_LL)]),
    "repro_encode": (_LL, [_PTR, _LL, _PTR, _LL, _PTR, _LL, _PTR]),
    "repro_canon_rows": (_LL, [_PTR, _LL, _PTR, _LL, _LL, _PTR, _PTR,
                               _PTR]),
    "repro_sort_rows": (_LL, [_PTR, _PTR, _LL, ctypes.c_int, _PTR, _PTR]),
    "repro_symmetrize": (_LL, [_PTR, _LL, _PTR, _LL, _PTR, _PTR]),
    "repro_peel": (None, [_LL, _LL] + [_I64] * 6),
    "repro_rank_sweep": (_LL, [_LL] + [_I64] * 14),
    "repro_itr_levels": (_LL, [_I64] * 5 + [_LL] * 3 + [_I64] * 11),
    "repro_adg": (_LL, [_LL, _I64, _I64, _LL, ctypes.c_double, _LL]
                  + [_I64] * 9),
    "repro_verify": (_LL, [_LL] + [_I64] * 3 + [_LL] + [_I64] * 2
                     + [ctypes.POINTER(_LL)]),
}

_LOCK = threading.Lock()
_tried = False
_bound: dict | None = None


def cc_cache_dir() -> str:
    """Directory holding the compiled object (``$REPRO_CC_CACHE``)."""
    env = os.environ.get("REPRO_CC_CACHE", "").strip()
    if env:
        return env
    uid = os.getuid() if hasattr(os, "getuid") else "na"
    return os.path.join(tempfile.gettempdir(), f"repro-cc-{uid}")


def build_shared() -> ctypes.CDLL | None:
    """Compile (or reuse) every ``CSRC/*.c`` as one
    ``repro-<sha>.so``; load it.

    Returns ``None`` when no C compiler is on ``PATH`` or the compiler
    rejects a source.
    """
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        return None
    sources = sorted(glob.glob(os.path.join(CSRC, "*.c")))
    key = hashlib.sha256(" ".join(CFLAGS).encode())
    compiler = os.path.realpath(cc)
    with open(compiler, "rb") as fh:
        key.update(compiler.encode() + b"\0"
                   + hashlib.sha256(fh.read()).digest())
    for path in sorted(glob.glob(os.path.join(CSRC, "*.[ch]"))):
        with open(path, "rb") as fh:
            key.update(os.path.basename(path).encode() + b"\0"
                       + fh.read() + b"\0")
    tag = key.hexdigest()[:12]
    cdir = cc_cache_dir()
    so_path = os.path.join(cdir, f"repro-{tag}.so")
    if not os.path.exists(so_path):
        os.makedirs(cdir, exist_ok=True)
        tmp = os.path.join(cdir, f".repro-{tag}.{os.getpid()}.so")
        proc = subprocess.run([cc, *CFLAGS, "-o", tmp, *sources],
                              capture_output=True, timeout=120)
        if proc.returncode != 0:
            return None
        os.replace(tmp, so_path)  # atomic: concurrent builders agree
    return ctypes.CDLL(so_path)


def load() -> dict | None:
    """Every entry point, bound (name -> ctypes function), or ``None``
    when the library does not build; built at most once per process."""
    global _tried, _bound
    with _LOCK:
        if not _tried:
            _tried = True
            try:
                lib = build_shared()
                if lib is not None:
                    bound = {}
                    for name, (restype, argtypes) in SIGNATURES.items():
                        fn = bound[name] = getattr(lib, name)
                        fn.restype = restype
                        fn.argtypes = argtypes
                    _bound = bound
            except (OSError, subprocess.SubprocessError, AttributeError):
                # No usable object (unwritable cache, compiler timeout,
                # missing entry point): callers run Python.
                _bound = None
        return _bound


def entry(name: str):
    """The bound entry point ``name``, or ``None`` when the library does
    not build."""
    bound = load()
    return None if bound is None else bound[name]


def checked_csr(indptr: np.ndarray, indices: np.ndarray,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """``indptr``/``indices`` as aligned C-contiguous int64,
    bounds-checked.

    An array that is not 8-byte aligned (one memory-mapped at an odd
    file offset) is copied, since a compiled loop must not load from
    it.  Raises ``ValueError`` unless ``indptr`` has
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
