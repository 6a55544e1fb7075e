"""Machine models: work-depth accounting, Brent scheduling, memory locality."""

from .brent import SimulatedTime, scaling_curve, simulate
from .costmodel import CostModel, NullCostModel, ensure_cost, log2_ceil
from .memmodel import MemoryModel, NullMemoryModel, ensure_mem
from .simulator import Replay, RoundTrace, crossover_processors, replay, replay_curve

__all__ = [
    "CostModel", "NullCostModel", "ensure_cost", "log2_ceil",
    "SimulatedTime", "simulate", "scaling_curve",
    "MemoryModel", "NullMemoryModel", "ensure_mem",
    "Replay", "RoundTrace", "replay", "replay_curve", "crossover_processors",
]
