"""Kernel-tier registry: select the implementation of the hot trio.

Every engine funnels its per-vertex parallel loops through three
segmented primitives — :func:`~repro.primitives.kernels.segment_ids`,
:func:`~repro.primitives.kernels.multi_slice_gather`,
:func:`~repro.primitives.kernels.grouped_mex` — so those functions
carry a *tier* switch:

- ``numpy`` — the vectorized NumPy implementations (the default and
  the reference: every other tier must be bit-identical to it);
- ``numba`` — the fused ``numba.njit`` loops of
  :mod:`repro.primitives.compiled` (one pass instead of a lexsort plus
  ~10 full-array passes for ``grouped_mex``); requires numba to be
  importable and *raises* when it is not — an explicit request must
  not silently degrade;
- ``auto`` — probe numba importability once per process and resolve to
  ``numba`` when available, else fall back to ``numpy`` silently.

Selection order: ``ExecutionContext(kernel_tier=...)`` >
``$REPRO_KERNEL_TIER`` > ``auto``.  The resolved tier is process-global
(:func:`set_kernel_tier` / :func:`active_kernel_tier`) because the hot
trio must stay argument-free on its hot path; the runtime re-asserts
the run's tier at every round, so pool threads always run the tier of
the context that dispatched them.  Switching *to* the numba tier
primes the compile cache (:func:`repro.primitives.compiled.prime`) so
no timed span ever pays compilation.

The parity contract (tested): colors, cost/memory books, and traces
are bit-identical across tiers — only walls move.
"""

from __future__ import annotations

import os

#: Recognized $REPRO_KERNEL_TIER / kernel_tier= values.
KERNEL_TIERS = ("auto", "numpy", "numba")

#: Cached numba importability probe (None = not probed yet).
_NUMBA_OK: bool | None = None

#: The process-global active tier, always concrete (never "auto").
_ACTIVE = "numpy"

#: The compiled module, bound on the first switch to the numba tier so
#: the hot trio reaches it with one attribute load (and a numpy-tier
#: process never imports numba at all).
_COMPILED = None


def numba_available() -> bool:
    """Is numba importable?  Probed once per process and cached."""
    global _NUMBA_OK
    if _NUMBA_OK is None:
        try:
            import numba  # noqa: F401
            _NUMBA_OK = True
        except Exception:
            _NUMBA_OK = False
    return _NUMBA_OK


def default_kernel_tier() -> str:
    """Kernel tier: $REPRO_KERNEL_TIER if set (and valid), else 'auto'."""
    env = os.environ.get("REPRO_KERNEL_TIER", "").strip().lower()
    if not env:
        return "auto"
    if env not in KERNEL_TIERS:
        raise ValueError(f"$REPRO_KERNEL_TIER must be one of "
                         f"{KERNEL_TIERS}, got {env!r}")
    return env


def resolve_kernel_tier(tier=None) -> str:
    """Normalize a ``kernel_tier=`` argument to a *concrete* tier.

    ``None`` defers to ``$REPRO_KERNEL_TIER`` (else ``auto``); ``auto``
    resolves to ``numba`` when importable, ``numpy`` otherwise — the
    silent-fallback path.  An explicit ``numba`` without numba raises:
    a user who pinned the tier must find out it is not running.
    """
    if tier is None:
        tier = default_kernel_tier()
    tier = str(tier).strip().lower()
    if tier not in KERNEL_TIERS:
        raise ValueError(f"kernel_tier must be one of {KERNEL_TIERS}, "
                         f"got {tier!r}")
    if tier == "auto":
        return "numba" if numba_available() else "numpy"
    if tier == "numba" and not numba_available():
        raise RuntimeError(
            "kernel_tier 'numba' requested but numba is not importable; "
            "install numba or use 'auto' to fall back to numpy silently")
    return tier


def set_kernel_tier(tier) -> str:
    """Make ``tier`` (resolved) the process-global active tier.

    Idempotent and cheap when the tier does not change (the runtime
    re-asserts it every round).  The first switch to ``numba`` imports
    the compiled module and primes its jit cache, so compilation never
    lands inside a timed span — callers on a timing-sensitive path
    (benchmark warm-up) switch *before* measuring.
    """
    global _ACTIVE, _COMPILED
    if tier == _ACTIVE:
        return _ACTIVE
    tier = resolve_kernel_tier(tier)
    if tier == _ACTIVE:
        return _ACTIVE
    if tier == "numba" and _COMPILED is None:
        from . import compiled
        compiled.prime()
        _COMPILED = compiled
    _ACTIVE = tier
    return _ACTIVE


def active_kernel_tier() -> str:
    """The concrete tier the hot trio dispatches to right now."""
    return _ACTIVE
