"""Unified execution runtime: backend/workers configuration, rounds as
direct calls, and end-to-end accounting and tracing behind one
:class:`ExecutionContext` object."""

from .context import (
    BACKENDS,
    ExecutionContext,
    default_backend,
    default_workers,
    resolve_context,
)

__all__ = [
    "BACKENDS", "ExecutionContext", "default_backend", "default_workers",
    "resolve_context",
]
