"""Name -> ordering-function registry used by the JP driver and benches."""

from __future__ import annotations

import inspect
from typing import Callable

from ..graphs.csr import CSRGraph
from ..runtime import ExecutionContext
from .adg import adg_m_ordering, adg_ordering
from .asl import asl_ordering
from .base import Ordering
from .incidence import id_ordering
from .saturation import sd_ordering
from .simple import ff_ordering, lf_ordering, llf_ordering, random_ordering
from .sl import sl_ordering
from .sll import sll_ordering

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

_CTX_AWARE: dict[str, bool] = {}


def _accepts_ctx(name: str, fn: OrderingFn) -> bool:
    """Whether the ordering function takes an ExecutionContext.

    Inherently sequential orderings (SL's one-vertex peeling, SD's
    saturation loop) have no rounds to route through a context;
    the registry silently runs them serially instead of erroring.
    """
    if name not in _CTX_AWARE:
        params = inspect.signature(fn).parameters
        _CTX_AWARE[name] = "ctx" in params
    return _CTX_AWARE[name]


def get_ordering(name: str, g: CSRGraph,
                 ctx: ExecutionContext | None = None, **kwargs) -> Ordering:
    """Compute the named ordering of ``g`` (kwargs passed through).

    ``ctx`` routes backend/worker selection into orderings with a
    parallel structure (ADG, ADG-M); orderings without context rounds
    ignore it and run serially.
    """
    try:
        fn = ORDERINGS[name]
    except KeyError:
        raise ValueError(f"unknown ordering {name!r}; "
                         f"options: {sorted(ORDERINGS)}") from None
    if ctx is not None and _accepts_ctx(name, fn):
        kwargs["ctx"] = ctx
    return fn(g, **kwargs)
