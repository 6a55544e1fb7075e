"""Name -> ordering-function registry used by the JP driver and benches."""

from __future__ import annotations

from typing import Callable

from ..graphs.csr import CSRGraph
from ..runtime import ExecutionContext
from .adg import adg_m_ordering, adg_ordering, asl_ordering, sll_ordering
from .base import Ordering
from .incidence import id_ordering
from .saturation import sd_ordering
from .simple import ff_ordering, lf_ordering, llf_ordering, random_ordering
from .sl import sl_ordering

OrderingFn = Callable[..., Ordering]

ORDERINGS: dict[str, OrderingFn] = {
    "FF": ff_ordering,
    "R": random_ordering,
    "LF": lf_ordering,
    "LLF": llf_ordering,
    "SL": sl_ordering,
    "SLL": sll_ordering,
    "ASL": asl_ordering,
    "ID": id_ordering,
    "SD": sd_ordering,
    "ADG": adg_ordering,
    "ADG-M": adg_m_ordering,
}


def get_ordering(name: str, g: CSRGraph,
                 ctx: ExecutionContext | None = None, **kwargs) -> Ordering:
    """Compute the named ordering of ``g`` (kwargs passed through).

    Every ordering books on its own child of ``ctx`` (the run's tracer
    and phase walls, separate cost and memory books), or on a fresh
    context when ``ctx`` is ``None``.
    """
    try:
        fn = ORDERINGS[name]
    except KeyError:
        raise ValueError(f"unknown ordering {name!r}; "
                         f"options: {sorted(ORDERINGS)}") from None
    return fn(g, ctx=ctx, **kwargs)
