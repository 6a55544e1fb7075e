"""Incremental recoloring under graph deltas (the dynamic DEC engine).

:class:`IncrementalColoring` keeps a DEC-family coloring valid while the
graph mutates through :class:`repro.graphs.GraphDelta` batches.  The
fast path repairs only the *affected frontier* — endpoints of inserted
edges that came back monochromatic plus newly attached vertices — with
the shared speculative loop of :mod:`repro.coloring.repair`, under the
run-global ADG level cap that the last full recompute established.

Why the paper bound survives
----------------------------
The repair loop only ever assigns ``color(v) <= cap(v)`` where ``cap``
derives from ``deg_l(v)`` — maintained incrementally as edges come and
go — so repairs cannot blow up the palette arbitrarily.  But a delta
can raise the graph's degeneracy past what the stale decomposition
certifies, so after every apply the coloring is *certified* against the
paper bound for the CURRENT graph through a ladder, cheapest first:

1. Insert-only since the last full recompute and ``ncol <=
   colors_ref``: degeneracy is monotone non-decreasing under edge and
   vertex insertion, so the bound that certified ``colors_ref`` then
   still dominates it now.  No peel — the hot path.
2. A cached exact degeneracy ``d_exact`` (from an earlier peel, valid
   for the same monotonicity reason) with ``ncol <= bound(d_exact)``.
3. Peel the current graph exactly (O(n + m)), cache it as ``d_exact``,
   and re-check.
4. Full recompute: fresh ADG decomposition + interior coloring of the
   current graph — the bound holds by the engine's own theorem.

Any deletion invalidates rungs 1-2 (degeneracy may have dropped, so the
old certificates are no longer lower-bound arguments for the new
graph); the next certification peels or recomputes.
"""

from __future__ import annotations

import numpy as np

from ..analysis.bounds import GraphParams, quality_bound
from ..graphs.csr import CSRGraph
from ..graphs.delta import GraphDelta, apply_delta
from ..graphs.properties import peel_degeneracy
from ..ordering.adg import adg_ordering
from ..runtime import ExecutionContext, resolve_context
from .dec_adg import color_partitions
from .dec_adg_itr import itr_color_partitions
from .registry import EPS_ALGORITHMS
from .repair import deg_ge_array, repair_caps, repair_frontier
from .verify import is_valid_coloring, num_colors

#: Engines the incremental layer can host: they expose the level/cap
#: machinery the frontier repair needs.  (JP-family orderings have no
#: run-global cap to repair under.)
INCREMENTAL_FAMILY = ("DEC-ADG", "DEC-ADG-ITR")


class IncrementalColoring:
    """A live coloring of a mutating graph, bound-certified per delta.

    The instance owns (and mutates, via ``apply_delta(..,
    in_place=True)``) its ``graph``; callers that need the pre-delta
    graph must copy it first.  All per-vertex state — ``colors``,
    ``levels``, ``priority``, ``deg_ge`` — stays aligned with the
    graph's (growing) vertex set.  ``eps=None`` runs the engine at its
    own default, as :func:`~repro.coloring.registry.color` does.
    """

    def __init__(self, g: CSRGraph, algorithm: str = "DEC-ADG-ITR",
                 eps: float | None = None, seed: int | None = 0,
                 ctx: ExecutionContext | None = None,
                 backend: str | None = None,
                 workers: int | None = None) -> None:
        if algorithm not in INCREMENTAL_FAMILY:
            raise ValueError(
                f"incremental recoloring supports {INCREMENTAL_FAMILY}, "
                f"got {algorithm!r}")
        if eps is None:
            eps = EPS_ALGORITHMS[algorithm]
        if not eps > 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.graph = g
        self.algorithm = algorithm
        self.eps = float(eps)
        self.seed = seed
        self.ctx, self._owns = resolve_context(ctx, backend, workers)
        self.stats: dict[str, int] = {
            "deltas": 0, "repaired": 0, "repair_rounds": 0,
            "full_recomputes": 0, "certified_cheap": 0,
            "certified_exact": 0, "certified_peel": 0,
        }
        self._d_exact: int | None = None
        self._full_recompute()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the execution context if this instance created it."""
        if self._owns:
            self.ctx.close()

    def __enter__(self) -> "IncrementalColoring":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- full recompute ----------------------------------------------------

    def _full_recompute(self) -> None:
        """Fresh decomposition + interior coloring of the current graph."""
        g = self.graph
        n = g.n
        if n == 0:
            self.priority = np.zeros(0, dtype=np.int64)
            self.colors = np.zeros(0, dtype=np.int64)
            self.levels = np.zeros(0, dtype=np.int64)
            self.num_levels = 0
            self.deg_ge = np.zeros(0, dtype=np.int64)
        else:
            dec = self.algorithm == "DEC-ADG"
            ordering = adg_ordering(g, self.eps / 12.0 if dec else self.eps,
                                    seed=self.seed, ctx=self.ctx)
            self.priority = ordering.tiebreak  # ADG's rho_R, drawn once
            self.levels = np.asarray(ordering.levels, dtype=np.int64)
            self.num_levels = ordering.num_levels
            if dec:
                rng = np.random.default_rng(self.seed)
                self.colors, _ = color_partitions(
                    g, self.levels, self.num_levels, mu=self.eps / 4.0,
                    rng=rng, ctx=self.ctx)
            else:  # DEC-ADG-ITR
                self.colors, _, _ = itr_color_partitions(
                    g, self.levels, self.num_levels, self.priority, self.ctx)
            with self.ctx.phase("inc"):
                self.deg_ge = deg_ge_array(g, self.levels, self.ctx)
        self._colors_ref = num_colors(self.colors)
        self._ref_valid = True
        self._d_exact = None

    # -- delta application -------------------------------------------------

    def apply_delta(self, delta: GraphDelta) -> dict:
        """Mutate the graph, repair the frontier, certify the bound.

        Returns a per-delta report: ``repaired`` (recolor attempts),
        ``rounds``, ``full_recompute``, ``certified`` (which ladder
        rung), ``colors`` / ``bound`` / ``n`` / ``m`` after the apply.
        """
        self.stats["deltas"] += 1
        res = apply_delta(self.graph, delta, in_place=True)
        g = self.graph
        n = g.n

        # Extend per-vertex state for appended vertices.  New vertices
        # enter at level 1 (the most conservative: their deg_ge counts
        # every neighbor, so their repair cap is their full degree + 1
        # slack) with fresh tiebreak priorities above all existing ones.
        k = int(res.new_vertices.size)
        if k:
            rng = np.random.default_rng(
                None if self.seed is None
                else self.seed + 0x51ED * self.stats["deltas"])
            self.colors = np.concatenate(
                [self.colors, np.zeros(k, dtype=np.int64)])
            self.levels = np.concatenate(
                [self.levels, np.ones(k, dtype=np.int64)])
            self.num_levels = max(self.num_levels, 1)
            base = int(self.priority.max()) + 1 if self.priority.size else 0
            self.priority = np.concatenate(
                [self.priority, base + rng.permutation(k).astype(np.int64)])
            self.deg_ge = np.concatenate(
                [self.deg_ge, np.zeros(k, dtype=np.int64)])

        # Maintain deg_l under the edge churn (levels are fixed between
        # full recomputes, so each endpoint just gains/loses the arcs
        # whose other end sits at a same-or-higher level).
        for pairs, sign in ((res.added, 1), (res.removed, -1)):
            if pairs.size:
                u, v = pairs[:, 0], pairs[:, 1]
                np.add.at(self.deg_ge, u,
                          sign * (self.levels[v] >= self.levels[u]))
                np.add.at(self.deg_ge, v,
                          sign * (self.levels[u] >= self.levels[v]))

        # Removal isolates; isolated vertices trivially take color 1.
        deg = g.degrees
        if res.removed_vertices.size:
            self.colors[res.removed_vertices] = 1
        if k:
            lone = res.new_vertices[deg[res.new_vertices] == 0]
            self.colors[lone] = 1

        # Affected frontier: attached new vertices, plus — for every
        # inserted edge that landed monochromatic — the endpoint that
        # loses the (level, priority) tie.
        frontier = [res.new_vertices[deg[res.new_vertices] > 0]]
        if res.added.size:
            u, v = res.added[:, 0], res.added[:, 1]
            bad = self.colors[u] == self.colors[v]
            if bad.any():
                uu, vv = u[bad], v[bad]
                lv, pr = self.levels, self.priority
                u_loses = (lv[uu] < lv[vv]) | \
                    ((lv[uu] == lv[vv]) & (pr[uu] < pr[vv]))
                frontier.append(np.where(u_loses, uu, vv))
        active = np.unique(np.concatenate(frontier)) if frontier \
            else np.empty(0, dtype=np.int64)

        rounds = recolored = 0
        full = False
        if active.size:
            cap = repair_caps(self.deg_ge, self.algorithm, self.eps)
            try:
                with self.ctx.phase("inc:repair"):
                    rounds, recolored = repair_frontier(
                        g, self.colors, self.levels, self.priority, active,
                        cap, self.ctx, metric="inc")
            except RuntimeError:
                full = True
        self.stats["repaired"] += recolored
        self.stats["repair_rounds"] += rounds

        # Deletions break the monotonicity argument behind the cached
        # certificates (rungs 1-2 of the ladder).
        if res.removed.size or res.removed_vertices.size:
            self._ref_valid = False
            self._d_exact = None

        certified = "recompute"
        if not full:
            ncol = num_colors(self.colors)
            if self._ref_valid and ncol <= self._colors_ref:
                certified = "cheap"
                self.stats["certified_cheap"] += 1
            elif self._d_exact is not None and \
                    ncol <= self._bound(self._d_exact):
                certified = "exact"
                self.stats["certified_exact"] += 1
            else:
                self._d_exact = int(peel_degeneracy(g).degeneracy)
                if ncol <= self._bound(self._d_exact):
                    certified = "peel"
                    self.stats["certified_peel"] += 1
                else:
                    full = True
        if full:
            self.stats["full_recomputes"] += 1
            self._full_recompute()

        ncol = num_colors(self.colors)
        return {
            "repaired": int(recolored), "rounds": int(rounds),
            "full_recompute": full, "certified": certified,
            "colors": ncol, "n": n, "m": g.m,
            "touched": int(res.touched.size),
            "added": int(res.added.shape[0]) if res.added.size else 0,
            "removed": int(res.removed.shape[0]) if res.removed.size else 0,
        }

    # -- certification helpers ---------------------------------------------

    def _bound(self, d: int) -> int:
        g = self.graph
        params = GraphParams(n=g.n, m=g.m, max_degree=g.max_degree,
                             degeneracy=d)
        return quality_bound(self.algorithm, params, self.eps)

    def verify(self) -> dict:
        """Exact check of the live coloring against the paper bound.

        Peels the current graph — ``_d_exact`` may be a stale (insert-
        era) certificate, fine for the ladder but not for reporting —
        refreshes the cache, and returns ``valid`` / ``colors`` /
        ``degeneracy`` / ``bound`` / ``within_bound``.
        """
        g = self.graph
        self._d_exact = int(peel_degeneracy(g).degeneracy)
        ncol = num_colors(self.colors)
        bound = self._bound(self._d_exact)
        return {
            "valid": bool(is_valid_coloring(g, self.colors)),
            "colors": ncol,
            "degeneracy": self._d_exact,
            "bound": bound,
            "within_bound": ncol <= bound,
        }
