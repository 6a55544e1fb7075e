"""Name -> coloring-algorithm registry used by the benchmark harness.

Names match the paper's: JP-X for Jones-Plassmann with ordering X,
Greedy-X for sequential greedy, ITR/ITRB/ITR-ASL for the speculative
baselines, and the paper's JP-ADG(-M), DEC-ADG(-M), DEC-ADG-ITR.
"""

from __future__ import annotations

from typing import Callable

from ..graphs.csr import CSRGraph
from .dec_adg import dec_adg, dec_adg_m
from .dec_adg_itr import dec_adg_itr
from .gm import gm_coloring
from .greedy import greedy_by_name
from .jp import jp_adg_fused, jp_by_name
from .mis import luby_coloring
from .reduction import color_reduction
from .result import ColoringResult
from .speculative import itr, itr_asl, itrb

ColoringFn = Callable[..., ColoringResult]

#: Algorithms whose engines run on the execution-context runtime and
#: therefore record the backend/workers selection.  The rest
#: (sequential greedy baselines, the speculative ITR family, Luby/GM/CR)
#: have no context rounds; they report the serial backend.
BACKEND_AWARE = frozenset({
    "JP-FF", "JP-R", "JP-LF", "JP-LLF", "JP-SL", "JP-SLL", "JP-ASL",
    "JP-ADG", "JP-ADG-M", "JP-ADG-O",
    "DEC-ADG", "DEC-ADG-M", "DEC-ADG-ITR",
})


def _jp(name: str) -> ColoringFn:
    def run(g: CSRGraph, seed: int | None = 0, **kw) -> ColoringResult:
        return jp_by_name(g, name, seed=seed, **kw)
    run.__name__ = f"jp_{name.lower().replace('-', '_')}"
    return run


def _greedy(name: str) -> ColoringFn:
    def run(g: CSRGraph, seed: int | None = 0, **kw) -> ColoringResult:
        return greedy_by_name(g, name, seed=seed, **kw)
    run.__name__ = f"greedy_{name.lower()}"
    return run


ALGORITHMS: dict[str, ColoringFn] = {
    # Class 3: JP family.
    "JP-FF": _jp("FF"),
    "JP-R": _jp("R"),
    "JP-LF": _jp("LF"),
    "JP-LLF": _jp("LLF"),
    "JP-SL": _jp("SL"),
    "JP-SLL": _jp("SLL"),
    "JP-ASL": _jp("ASL"),
    "JP-ADG": _jp("ADG"),
    "JP-ADG-M": _jp("ADG-M"),
    "JP-ADG-O": jp_adg_fused,  # sorted batches + fused DAG ranks (SS V)
    # Class 1: speculative / MIS.
    "ITR": itr,
    "ITR-ASL": itr_asl,
    "ITRB": itrb,
    "Luby": luby_coloring,
    "GM": gm_coloring,
    "CR": color_reduction,
    "DEC-ADG": dec_adg,
    "DEC-ADG-M": dec_adg_m,
    "DEC-ADG-ITR": dec_adg_itr,
    # Class 2: sequential greedy baselines.
    "Greedy-FF": _greedy("FF"),
    "Greedy-R": _greedy("R"),
    "Greedy-LF": _greedy("LF"),
    "Greedy-SL": _greedy("SL"),
    "Greedy-ID": _greedy("ID"),
    "Greedy-SD": _greedy("SD"),
}

# The algorithm sets used by the paper's figures.
JP_CLASS = ["JP-FF", "JP-R", "JP-LF", "JP-LLF", "JP-SL", "JP-SLL",
            "JP-ASL", "JP-ADG"]
SC_CLASS = ["ITR", "ITR-ASL", "ITRB", "DEC-ADG-ITR"]
OUR_ALGORITHMS = ["JP-ADG", "JP-ADG-M", "DEC-ADG", "DEC-ADG-M", "DEC-ADG-ITR"]
FIGURE1_SET = SC_CLASS + JP_CLASS


def color(name: str, g: CSRGraph, backend: str | None = None,
          workers: int | None = None, trace=None,
          **kwargs) -> ColoringResult:
    """Run the named coloring algorithm on ``g``.

    ``backend`` / ``workers`` select the execution runtime for the
    algorithms in :data:`BACKEND_AWARE`; serial-only algorithms ignore
    them (their results report ``backend='serial'``), so a whole suite
    can be driven with one backend switch.  ``trace`` (a
    :class:`~repro.obs.Tracer`, a sink path, or ``True``) enables run
    tracing on the same set of algorithms; the result's
    ``trace_summary`` then carries the per-round series.
    """
    try:
        fn = ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; "
                         f"options: {sorted(ALGORITHMS)}") from None
    if name in BACKEND_AWARE:
        kwargs.setdefault("backend", backend)
        kwargs.setdefault("workers", workers)
        kwargs.setdefault("trace", trace)
    return fn(g, **kwargs)
