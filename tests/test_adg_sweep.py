"""ADG's pinned books: every variant of the ordering, bit for bit.

``GOLDEN`` holds what :func:`adg_ordering` recorded for each variant
below on the two pinned graphs, captured before its round kernels
became plain calls: ``levels``, ``ranks``, the fused ``pred_counts``,
the per-phase cost snapshot and round log, and the memory books.  The
pull update (Alg. 2, CREW) and ``cache_degree_sums=False`` are reached
by no coloring engine's defaults, so these cells are their only pin.
They are also the oracle a compiled ADG pass must reproduce.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.graphs.generators import chung_lu, kronecker
from repro.obs import Tracer
from repro.ordering.adg import adg_ordering
from repro.runtime import ExecutionContext

PIN_GRAPHS = {"kron": lambda: kronecker(scale=9, edge_factor=8, seed=3),
              "chung": lambda: chung_lu(400, 2000, seed=11)}

#: name -> adg_ordering keywords.  ``sort+ranks`` is ADG-O with the
#: fused DAG in-degrees (push only); ``nocache`` re-reduces the degree
#: sum every iteration (avg only: ADG-M never reads it).
VARIANTS = {}
for _variant in ("avg", "median"):
    for _update in ("push", "pull"):
        for _sort in ("plain", "sort", "sort+ranks"):
            if _sort == "sort+ranks" and _update == "pull":
                continue
            for _cache in ((True, False) if _variant == "avg" else (True,)):
                _name = "|".join([_variant, _update, _sort]
                                 + ([] if _cache else ["nocache"]))
                VARIANTS[_name] = dict(
                    variant=_variant, update=_update,
                    sort_batches=_sort != "plain",
                    compute_ranks=_sort == "sort+ranks",
                    cache_degree_sums=_cache)

#: Recorded from the ordering before its kernels lost their chunk
#: bounds: levels, ranks, pred_counts (None without compute_ranks),
#: number of levels, cost snapshot, round log, [random, sequential].
GOLDEN = {
    "kron|avg|push|plain": {
        "levels": "0f6c5df37f877d01", "ranks": "aba6f2b19ba7f17b",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "dfaa6000aeff603c", "round_log": "2ee4e58e0c73f2d1",
        "mem": [5676, 2048]},
    "kron|avg|push|plain|nocache": {
        "levels": "0f6c5df37f877d01", "ranks": "aba6f2b19ba7f17b",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "2c3a0be7353cd9f9", "round_log": "cc6a85c83667ab46",
        "mem": [5676, 2741]},
    "kron|avg|push|sort": {
        "levels": "0f6c5df37f877d01", "ranks": "9a6136e54d4528f6",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "36bc375fc7737885", "round_log": "ab1a4d74c7316cc9",
        "mem": [5676, 2048]},
    "kron|avg|push|sort|nocache": {
        "levels": "0f6c5df37f877d01", "ranks": "9a6136e54d4528f6",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "59ebd74561bd2fcd", "round_log": "4917c499a53d8c33",
        "mem": [5676, 2741]},
    "kron|avg|push|sort+ranks": {
        "levels": "0f6c5df37f877d01", "ranks": "9a6136e54d4528f6",
        "pred_counts": "55ac0fdd5ceff671", "num_levels": 4,
        "snapshot": "ab3b6e7c8564c79c", "round_log": "a774cb9bdccf776b",
        "mem": [5676, 2048]},
    "kron|avg|push|sort+ranks|nocache": {
        "levels": "0f6c5df37f877d01", "ranks": "9a6136e54d4528f6",
        "pred_counts": "55ac0fdd5ceff671", "num_levels": 4,
        "snapshot": "be6c303dd4a73353", "round_log": "eded1f61ee6edc79",
        "mem": [5676, 2741]},
    "kron|avg|pull|plain": {
        "levels": "0f6c5df37f877d01", "ranks": "aba6f2b19ba7f17b",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "853981a2c63f3136", "round_log": "480bef44751cbfe4",
        "mem": [8696, 2048]},
    "kron|avg|pull|plain|nocache": {
        "levels": "0f6c5df37f877d01", "ranks": "aba6f2b19ba7f17b",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "b740805069bea9e1", "round_log": "e04040ae302ad6fd",
        "mem": [8696, 2741]},
    "kron|avg|pull|sort": {
        "levels": "0f6c5df37f877d01", "ranks": "9a6136e54d4528f6",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "ff484afb39949dc1", "round_log": "74cf64f9c3d3f1e2",
        "mem": [8696, 2048]},
    "kron|avg|pull|sort|nocache": {
        "levels": "0f6c5df37f877d01", "ranks": "9a6136e54d4528f6",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "25ce01607d3d8438", "round_log": "2f648e7617a4c39f",
        "mem": [8696, 2741]},
    "kron|median|push|plain": {
        "levels": "b12a4c6c98621665", "ranks": "02eecb59fdeb1519",
        "pred_counts": None, "num_levels": 10,
        "snapshot": "2f3780a30a1432ec", "round_log": "7bbbe173c0c41fc3",
        "mem": [5676, 1023]},
    "kron|median|push|sort": {
        "levels": "b12a4c6c98621665", "ranks": "890eb0fef8f36799",
        "pred_counts": None, "num_levels": 10,
        "snapshot": "4e6e35171a6ce627", "round_log": "75a08df4fd16a9ec",
        "mem": [5676, 1023]},
    "kron|median|push|sort+ranks": {
        "levels": "b12a4c6c98621665", "ranks": "890eb0fef8f36799",
        "pred_counts": "0c51aa03da6a7c03", "num_levels": 10,
        "snapshot": "af71fa15add3e143", "round_log": "e9a29fcdd346d9bb",
        "mem": [5676, 1023]},
    "kron|median|pull|plain": {
        "levels": "b12a4c6c98621665", "ranks": "02eecb59fdeb1519",
        "pred_counts": None, "num_levels": 10,
        "snapshot": "b1b5318efb3aa5a5", "round_log": "8d616d6b6ad2fa69",
        "mem": [18907, 1023]},
    "kron|median|pull|sort": {
        "levels": "b12a4c6c98621665", "ranks": "890eb0fef8f36799",
        "pred_counts": None, "num_levels": 10,
        "snapshot": "4d130ab1e12541c3", "round_log": "e291ebce0539f301",
        "mem": [18907, 1023]},
    "chung|avg|push|plain": {
        "levels": "301187a4cad053f9", "ranks": "34bab03435d7472b",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "a4c20f314e034efd", "round_log": "6039b6189720fc39",
        "mem": [4000, 1600]},
    "chung|avg|push|plain|nocache": {
        "levels": "301187a4cad053f9", "ranks": "34bab03435d7472b",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "265f2a5b03af3321", "round_log": "b9a81d23edabe856",
        "mem": [4000, 2111]},
    "chung|avg|push|sort": {
        "levels": "301187a4cad053f9", "ranks": "f97772aebc9bca94",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "f4f9c6ca16e585b7", "round_log": "5ca33a92073211aa",
        "mem": [4000, 1600]},
    "chung|avg|push|sort|nocache": {
        "levels": "301187a4cad053f9", "ranks": "f97772aebc9bca94",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "1781999f61a43d9a", "round_log": "ed52be60576c2e85",
        "mem": [4000, 2111]},
    "chung|avg|push|sort+ranks": {
        "levels": "301187a4cad053f9", "ranks": "f97772aebc9bca94",
        "pred_counts": "ce593db2ad8e69fa", "num_levels": 4,
        "snapshot": "3d0b792eca19dc61", "round_log": "5130fc9630fbbd20",
        "mem": [4000, 1600]},
    "chung|avg|push|sort+ranks|nocache": {
        "levels": "301187a4cad053f9", "ranks": "f97772aebc9bca94",
        "pred_counts": "ce593db2ad8e69fa", "num_levels": 4,
        "snapshot": "aa688fcb5a4f79ae", "round_log": "317332e3085520a8",
        "mem": [4000, 2111]},
    "chung|avg|pull|plain": {
        "levels": "301187a4cad053f9", "ranks": "34bab03435d7472b",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "02db4b4b0c4fe995", "round_log": "bcca17281b491496",
        "mem": [3578, 1600]},
    "chung|avg|pull|plain|nocache": {
        "levels": "301187a4cad053f9", "ranks": "34bab03435d7472b",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "752e155524065ea9", "round_log": "9ef3e7af9599ae4d",
        "mem": [3578, 2111]},
    "chung|avg|pull|sort": {
        "levels": "301187a4cad053f9", "ranks": "f97772aebc9bca94",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "068df5091716cd7e", "round_log": "99929d6d74f5e4c5",
        "mem": [3578, 1600]},
    "chung|avg|pull|sort|nocache": {
        "levels": "301187a4cad053f9", "ranks": "f97772aebc9bca94",
        "pred_counts": None, "num_levels": 4,
        "snapshot": "e88f8a3328165192", "round_log": "88d8fbb571e57666",
        "mem": [3578, 2111]},
    "chung|median|push|plain": {
        "levels": "4ce8b170904160e6", "ranks": "af8949700a51662e",
        "pred_counts": None, "num_levels": 9,
        "snapshot": "e00e8fc755200bd4", "round_log": "b4ad55eec4435238",
        "mem": [4000, 797]},
    "chung|median|push|sort": {
        "levels": "4ce8b170904160e6", "ranks": "20209b8037157b87",
        "pred_counts": None, "num_levels": 9,
        "snapshot": "5172c5e6357f3734", "round_log": "71ba7f7f64b7de26",
        "mem": [4000, 797]},
    "chung|median|push|sort+ranks": {
        "levels": "4ce8b170904160e6", "ranks": "20209b8037157b87",
        "pred_counts": "0f7e70c7c882df1b", "num_levels": 9,
        "snapshot": "c98353174141d407", "round_log": "6e216f2564945fb8",
        "mem": [4000, 797]},
    "chung|median|pull|plain": {
        "levels": "4ce8b170904160e6", "ranks": "af8949700a51662e",
        "pred_counts": None, "num_levels": 9,
        "snapshot": "9f0a956ce372ff73", "round_log": "b11f7914ad52cbda",
        "mem": [9475, 797]},
    "chung|median|pull|sort": {
        "levels": "4ce8b170904160e6", "ranks": "20209b8037157b87",
        "pred_counts": None, "num_levels": 9,
        "snapshot": "e9ab9b91e9d16278", "round_log": "05b48068cdff8900",
        "mem": [9475, 797]},
}


def _digest(obj) -> str:
    if isinstance(obj, np.ndarray):
        raw = np.ascontiguousarray(obj, dtype=np.int64).tobytes()
    else:
        raw = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def fingerprint(order) -> dict:
    return {"levels": _digest(order.levels), "ranks": _digest(order.ranks),
            "pred_counts": None if order.pred_counts is None
            else _digest(order.pred_counts),
            "num_levels": order.num_levels,
            "snapshot": _digest(order.cost.snapshot()),
            "round_log": _digest(order.cost.round_log),
            "mem": [order.mem.random, order.mem.sequential]}


KEYS = [f"{g}|{v}" for g in PIN_GRAPHS for v in VARIANTS]


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in PIN_GRAPHS.items()}


class TestPinnedOrderings:
    @pytest.mark.parametrize("key", KEYS)
    def test_matches_recorded_books(self, graphs, key):
        graph, variant = key.split("|", 1)
        order = adg_ordering(graphs[graph], eps=0.1, seed=0,
                             **VARIANTS[variant])
        assert fingerprint(order) == GOLDEN[key]

    @pytest.mark.parametrize("key", KEYS)
    def test_caller_context_and_tracer_change_nothing(self, graphs, key):
        # A caller's context lends only configuration and tracer: the
        # ordering keeps its own books, on every backend.
        graph, variant = key.split("|", 1)
        with ExecutionContext(backend="threaded", workers=2,
                              trace=Tracer()) as ctx:
            order = adg_ordering(graphs[graph], eps=0.1, seed=0, ctx=ctx,
                                 **VARIANTS[variant])
            assert ctx.cost.work == 0
            batches = ctx.tracer.metrics.series("adg.batch")
        assert fingerprint(order) == GOLDEN[key]
        assert len(batches) == order.num_levels
        assert sum(v for _, v in batches) == graphs[graph].n

    def test_every_variant_is_pinned(self):
        assert sorted(GOLDEN) == sorted(KEYS)
