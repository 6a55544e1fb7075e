"""Memory-locality accounting: the PAPI substitute for the paper's Fig. 4.

The paper measures L3 miss fractions and stalled CPU cycles with PAPI.
Hardware counters are unavailable here (substitution S3 in DESIGN.md),
so this module counts, per algorithm run, how many array elements were
touched *sequentially* (streaming over contiguous NumPy ranges: degree
arrays, frontier arrays, CSR rows read in vertex order) versus through
*random* gathers/scatters (neighbor-indexed fancy indexing).  The random
fraction is the cache-miss-rate proxy: streamed accesses hit the
prefetcher, gathers do not.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class MemoryModel:
    """Counts sequential vs random memory touches of a run."""

    sequential: int = 0
    random: int = 0
    by_phase: dict[str, tuple[int, int]] = field(default_factory=dict)
    _stack: list[str] = field(default_factory=list)

    @contextmanager
    def phase(self, name: str):
        """Attribute all touches recorded inside the block to ``name``."""
        self._stack.append(name)
        try:
            yield self
        finally:
            self._stack.pop()

    def stream(self, n: int) -> None:
        """Record ``n`` contiguous (prefetch-friendly) element touches
        under the open phase."""
        if n <= 0:
            return
        self.sequential += int(n)
        phase = self._stack[-1] if self._stack else "<toplevel>"
        s, r = self.by_phase.get(phase, (0, 0))
        self.by_phase[phase] = (s + int(n), r)

    def gather(self, n: int) -> None:
        """Record ``n`` randomly indexed (cache-unfriendly) touches
        under the open phase."""
        if n <= 0:
            return
        self.random += int(n)
        phase = self._stack[-1] if self._stack else "<toplevel>"
        s, r = self.by_phase.get(phase, (0, 0))
        self.by_phase[phase] = (s, r + int(n))

    @property
    def total(self) -> int:
        return self.sequential + self.random

    @property
    def random_fraction(self) -> float:
        """The L3-miss-rate proxy reported in the Fig. 4 reproduction."""
        if self.total == 0:
            return 0.0
        return self.random / self.total

    def merge(self, other: "MemoryModel") -> None:
        self.sequential += other.sequential
        self.random += other.random
        for phase, (s, r) in other.by_phase.items():
            s0, r0 = self.by_phase.get(phase, (0, 0))
            self.by_phase[phase] = (s0 + s, r0 + r)


class NullMemoryModel(MemoryModel):
    """Memory model that records nothing."""

    def stream(self, n: int) -> None:  # noqa: D102
        pass

    def gather(self, n: int) -> None:  # noqa: D102
        pass


def ensure_mem(mem: MemoryModel | None) -> MemoryModel:
    """Return ``mem`` or a fresh MemoryModel when the caller passed None."""
    return mem if mem is not None else MemoryModel()
