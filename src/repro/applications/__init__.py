"""Uses of the ADG ordering beyond coloring (paper SS VII-VIII)."""

from .cliques import (
    count_maximal_cliques,
    max_clique,
    maximal_cliques,
    maximal_cliques_exact_order,
)

__all__ = [
    "maximal_cliques", "maximal_cliques_exact_order", "count_maximal_cliques",
    "max_clique",
]
