"""Vertex ordering heuristics (paper Table II), including ADG."""

from .adg import (adg_m_ordering, adg_ordering, approximation_quality,
                  asl_ordering, sll_ordering)
from .base import Ordering, random_tiebreak, total_order
from .composed import adg_with_tiebreak, compose, convergence_gap
from .incidence import id_ordering
from .registry import ORDERINGS, get_ordering
from .saturation import SaturationResult, dsatur, sd_ordering
from .simple import ff_ordering, lf_ordering, llf_ordering, random_ordering
from .sl import sl_ordering

__all__ = [
    "Ordering", "random_tiebreak", "total_order",
    "adg_ordering", "adg_m_ordering", "approximation_quality",
    "asl_ordering", "ff_ordering", "id_ordering", "lf_ordering",
    "llf_ordering", "random_ordering", "sd_ordering", "sl_ordering",
    "sll_ordering", "dsatur", "SaturationResult",
    "ORDERINGS", "get_ordering",
    "compose", "adg_with_tiebreak", "convergence_gap",
]
