"""Graph coloring algorithms: JP family, speculative family, greedy."""

from .dec_adg import dec_adg, dec_adg_m
from .dec_adg_itr import dec_adg_itr
from .exact import chromatic_number, optimal_coloring
from .gm import gm_coloring
from .incremental import INCREMENTAL_FAMILY, IncrementalColoring
from .greedy import greedy, greedy_by_name, greedy_color_sequence
from .jp import (
    jp,
    jp_adg,
    jp_adg_fused,
    jp_adg_m,
    jp_by_name,
    jp_color,
    longest_dag_path,
    validate_ranks,
)
from .mis import luby_coloring, luby_mis
from .reduction import color_reduction
from .repair import (
    SIMCOL_FAMILY,
    deg_ge_array,
    repair_caps,
    repair_frontier,
)
from .registry import (
    ALGORITHMS,
    FIGURE1_SET,
    JP_CLASS,
    OUR_ALGORITHMS,
    SC_CLASS,
    color,
)
from .result import ColoringResult
from .simcol import sim_col
from .speculative import itr, itr_asl, itrb
from .verify import (
    InvalidColoringError,
    assert_valid_coloring,
    color_histogram,
    conflicting_edges,
    distinct_colors,
    is_valid_coloring,
    num_colors,
    quality_vs_degeneracy,
)

__all__ = [
    "ColoringResult",
    "jp", "jp_color", "jp_by_name", "jp_adg", "jp_adg_m", "jp_adg_fused",
    "longest_dag_path", "validate_ranks",
    "chromatic_number", "optimal_coloring",
    "greedy", "greedy_by_name", "greedy_color_sequence",
    "itr", "itr_asl", "itrb", "sim_col", "dec_adg", "dec_adg_m", "dec_adg_itr",
    "INCREMENTAL_FAMILY", "IncrementalColoring",
    "SIMCOL_FAMILY", "deg_ge_array", "repair_caps", "repair_frontier",
    "luby_coloring", "luby_mis", "gm_coloring",
    "color_reduction",
    "ALGORITHMS", "FIGURE1_SET", "JP_CLASS", "OUR_ALGORITHMS", "SC_CLASS",
    "color",
    "InvalidColoringError", "assert_valid_coloring", "color_histogram",
    "conflicting_edges", "distinct_colors", "is_valid_coloring", "num_colors",
    "quality_vs_degeneracy",
]
