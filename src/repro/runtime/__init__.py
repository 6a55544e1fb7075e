"""Unified execution runtime: backend/workers configuration, rounds as
direct calls, deterministic fault injection with one retry policy, and
end-to-end accounting and tracing behind one :class:`ExecutionContext`
object."""

from .context import (
    BACKENDS,
    ChunkError,
    ExecutionContext,
    default_backend,
    default_workers,
    resolve_context,
)
from .faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RecoveryError,
    resolve_fault_plan,
)

__all__ = [
    "BACKENDS", "ChunkError", "ExecutionContext",
    "FaultInjected", "FaultPlan", "FaultSpec",
    "RecoveryError", "default_backend", "default_workers",
    "resolve_context", "resolve_fault_plan",
]
