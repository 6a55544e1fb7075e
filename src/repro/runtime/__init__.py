"""Unified execution runtime: backend selection (serial / threaded),
chunked — optionally work-balanced — execution, deterministic fault
injection with one retry-then-degrade recovery policy, and end-to-end
accounting and tracing behind one :class:`ExecutionContext` object."""

from .adaptive import (
    ADAPTIVE_MODES,
    DispatchEstimator,
    default_adaptive,
    resolve_adaptive,
)
from .context import (
    BACKENDS,
    CHUNKS_PER_WORKER,
    ChunkError,
    ExecutionContext,
    default_backend,
    default_weighted_chunks,
    resolve_context,
)
from .faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RecoveryError,
    WorkerDeath,
    resolve_fault_plan,
)
from .kernels import KERNELS, Kernel

__all__ = [
    "ADAPTIVE_MODES", "BACKENDS", "CHUNKS_PER_WORKER", "ChunkError",
    "DispatchEstimator", "ExecutionContext",
    "FaultInjected", "FaultPlan", "FaultSpec", "KERNELS", "Kernel",
    "RecoveryError", "WorkerDeath", "default_adaptive", "default_backend",
    "default_weighted_chunks",
    "resolve_adaptive", "resolve_context", "resolve_fault_plan",
]
