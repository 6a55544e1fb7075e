"""Name -> coloring-algorithm registry used by the benchmark harness.

Names match the paper's: JP-X for Jones-Plassmann with ordering X,
Greedy-X for sequential greedy, ITR/ITRB/ITR-ASL for the speculative
baselines, and the paper's JP-ADG(-M), DEC-ADG(-M), DEC-ADG-ITR.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from ..graphs.csr import CSRGraph
from .dec_adg import DEC_ADG_EPS, dec_adg, dec_adg_m
from .dec_adg_itr import DEC_ADG_ITR_EPS, dec_adg_itr
from .gm import gm_coloring
from .greedy import greedy_by_name
from .jp import JP_ADG_EPS, jp_adg, jp_adg_fused, jp_adg_m, jp_by_name
from .mis import luby_coloring
from .reduction import color_reduction
from .result import ColoringResult
from .speculative import itr, itr_asl, itrb

#: An algorithm's entry point: ``fn(g, **algorithm_kwargs, ctx=...,
#: backend=..., workers=..., trace=...)``, one call into
#: :func:`~repro.coloring.driver.drive` (its ordering step and coloring
#: step).
ColoringFn = Callable[..., ColoringResult]

ALGORITHMS: dict[str, ColoringFn] = {
    # Class 3: JP family.
    "JP-FF": partial(jp_by_name, ordering_name="FF"),
    "JP-R": partial(jp_by_name, ordering_name="R"),
    "JP-LF": partial(jp_by_name, ordering_name="LF"),
    "JP-LLF": partial(jp_by_name, ordering_name="LLF"),
    "JP-SL": partial(jp_by_name, ordering_name="SL"),
    "JP-SLL": partial(jp_by_name, ordering_name="SLL"),
    "JP-ASL": partial(jp_by_name, ordering_name="ASL"),
    "JP-ADG": jp_adg,
    "JP-ADG-M": jp_adg_m,
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
    "Greedy-FF": partial(greedy_by_name, ordering_name="FF"),
    "Greedy-R": partial(greedy_by_name, ordering_name="R"),
    "Greedy-LF": partial(greedy_by_name, ordering_name="LF"),
    "Greedy-SL": partial(greedy_by_name, ordering_name="SL"),
    "Greedy-ID": partial(greedy_by_name, ordering_name="ID"),
    "Greedy-SD": partial(greedy_by_name, ordering_name="SD"),
}

#: The algorithms that take an ε, each to its engine's default: ADG's
#: slack for the JP-ADG and DEC-ADG-ITR family, the (2+ε)d color range
#: for DEC-ADG(-M).
EPS_ALGORITHMS: dict[str, float] = {
    "JP-ADG": JP_ADG_EPS, "JP-ADG-O": JP_ADG_EPS,
    "DEC-ADG": DEC_ADG_EPS, "DEC-ADG-M": DEC_ADG_EPS,
    "DEC-ADG-ITR": DEC_ADG_ITR_EPS,
}

# The algorithm sets used by the paper's figures.
JP_CLASS = ["JP-FF", "JP-R", "JP-LF", "JP-LLF", "JP-SL", "JP-SLL",
            "JP-ASL", "JP-ADG"]
SC_CLASS = ["ITR", "ITR-ASL", "ITRB", "DEC-ADG-ITR"]
OUR_ALGORITHMS = ["JP-ADG", "JP-ADG-M", "DEC-ADG", "DEC-ADG-M", "DEC-ADG-ITR"]
FIGURE1_SET = SC_CLASS + JP_CLASS


def color(name: str, g: CSRGraph, backend: str | None = None,
          workers: int | None = None, trace=None, eps: float | None = None,
          **kwargs) -> ColoringResult:
    """Run the named coloring algorithm on ``g``.

    Every algorithm runs through the one driver, so each records
    ``backend``/``workers`` (or the ``ctx=`` it is given) on its
    result, is traced when ``trace`` (a :class:`~repro.obs.Tracer`, a
    sink path, or ``True``) is set — the result's ``trace_summary``
    then carries the per-round series — and appends one ledger row when
    a ledger is on.  ``eps`` goes to the algorithms in
    :data:`EPS_ALGORITHMS` (``None``: each one's default); the others
    have no ε.  The result's ``eps`` is the ε the run used.
    """
    try:
        fn = ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; "
                         f"options: {sorted(ALGORITHMS)}") from None
    if eps is not None and name in EPS_ALGORITHMS:
        kwargs["eps"] = eps
    return fn(g, backend=backend, workers=workers, trace=trace, **kwargs)
