"""Backend parity: one engine, bit-identical results on every backend.

The determinism contract of the ExecutionContext runtime: for every
backend-aware algorithm, ``backend='threaded'`` must produce exactly
the colors, waves/rounds, ordering ranks/levels,
and cost/memory books of ``backend='serial'``, for any worker count.
``backend``/``workers`` are recorded configuration — every round runs
as one direct call — so :class:`TestPinnedBooks` also pins each engine
to the books recorded before the thread pool was removed.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.coloring.dec_adg import dec_adg, dec_adg_m
from repro.coloring.dec_adg_itr import dec_adg_itr
from repro.coloring.jp import jp_adg_fused, jp_by_name
from repro.coloring.registry import BACKEND_AWARE, color
from repro.coloring.verify import assert_valid_coloring
from repro.graphs.generators import chung_lu, gnm_random, grid_2d, kronecker
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import ExecutionContext

from repro.ordering.adg import adg_m_ordering, adg_ordering

WORKER_COUNTS = [1, 2, 4]
#: (backend, workers) rows checked against the serial baseline.
BACKEND_ROWS = [("threaded", w) for w in WORKER_COUNTS]
BACKEND_IDS = [f"{b}-{w}" for b, w in BACKEND_ROWS]


#: Fingerprints of every backend-aware engine on two graphs, recorded
#: with the chunked thread-pool runtime (serial, threaded-2 and
#: threaded-4 agreed on every entry): colors, rounds, the coloring
#: phase's per-phase snapshot and round log, its memory books, and the
#: ordering's work, depth, round log and memory books.
GOLDEN = {
    "chung|DEC-ADG": {
        "colors": "574ba20ee57dea4c",
        "rounds": 9,
        "snapshot": "5e6a11ecd5f039b6",
        "round_log": "e9150acfc2397e4c",
        "mem": [8537, 520],
        "reorder": [5268, 21, "5605ea96f2fd9d7c", 4000, 1200]},
    "chung|DEC-ADG-ITR": {
        "colors": "00e9e25a3ef36410",
        "rounds": 13,
        "snapshot": "cdd6604c115df18e",
        "round_log": "b106259b25d3c32d",
        "mem": [5348, 6706],
        "reorder": [5357, 33, "679d58d51c44817b", 4000, 2400]},
    "chung|DEC-ADG-M": {
        "colors": "922a9e00253eefe4",
        "rounds": 24,
        "snapshot": "e16d82add84d3681",
        "round_log": "95e7839c9e9b980b",
        "mem": [6843, 528],
        "reorder": [7191, 162, "b4ad55eec4435238", 4000, 797]},
    "chung|JP-ADG": {
        "colors": "a68e58eeab7b4cf1",
        "rounds": 25,
        "snapshot": "f4fa2a52ee5b1929",
        "round_log": "eda80946c0a51bff",
        "mem": [8000, 400],
        "reorder": [5357, 33, "679d58d51c44817b", 4000, 2400]},
    "chung|JP-ADG-M": {
        "colors": "8623222bcd8ac7ed",
        "rounds": 25,
        "snapshot": "b18703d6a228f1c2",
        "round_log": "946044dcf506718e",
        "mem": [8000, 400],
        "reorder": [7191, 162, "b4ad55eec4435238", 4000, 797]},
    "chung|JP-ADG-O": {
        "colors": "44a248091c9abc16",
        "rounds": 30,
        "snapshot": "e019102a550342f9",
        "round_log": "ac8b3f42ab33fd3f",
        "mem": [4000, 0],
        "reorder": [10957, 126, "2e2244a1cbe173b4", 4000, 2400]},
    "chung|JP-ASL": {
        "colors": "6a3a8afe4f62dec5",
        "rounds": 46,
        "snapshot": "db0989f6b5b1cafe",
        "round_log": "43ff5c02354a7130",
        "mem": [8000, 400],
        "reorder": [17033, 506, "33becf8e85e03b45", 4000, 7544]},
    "chung|JP-FF": {
        "colors": "d0ecff8afef4beb9",
        "rounds": 25,
        "snapshot": "7faed52edb66ce4d",
        "round_log": "110022189aab73eb",
        "mem": [8000, 400],
        "reorder": [400, 1, "93aac580e11aa8ff", 0, 400]},
    "chung|JP-LF": {
        "colors": "ffd098ef8368d1eb",
        "rounds": 30,
        "snapshot": "a76a4e397134dc88",
        "round_log": "c26eece40135fbb7",
        "mem": [8000, 400],
        "reorder": [400, 1, "cd6869a163561790", 0, 400]},
    "chung|JP-LLF": {
        "colors": "dca622a858e67c32",
        "rounds": 25,
        "snapshot": "31ca3399c18449c4",
        "round_log": "f33e73e33d3b219e",
        "mem": [8000, 400],
        "reorder": [400, 1, "3e87772bdc51f64f", 0, 400]},
    "chung|JP-R": {
        "colors": "401996a4026eb9ba",
        "rounds": 33,
        "snapshot": "28a3768871d7b253",
        "round_log": "b1441a0428a278f4",
        "mem": [8000, 400],
        "reorder": [400, 1, "92570a09b807e110", 0, 400]},
    "chung|JP-SL": {
        "colors": "1d5d656c72561696",
        "rounds": 40,
        "snapshot": "b0e803b87a83377e",
        "round_log": "96908c4094dcd2ad",
        "mem": [8000, 400],
        "reorder": [4400, 400, "8768c9fef1920b3b", 4000, 400]},
    "chung|JP-SLL": {
        "colors": "f2fdff8faa345d10",
        "rounds": 30,
        "snapshot": "7ea9322d9756adb3",
        "round_log": "3983f4d1913ffdf5",
        "mem": [8000, 400],
        "reorder": [5545, 30, "fdfd49c2ccc23ff0", 4000, 3789]},
    "kron|DEC-ADG": {
        "colors": "507a866c522e1503",
        "rounds": 14,
        "snapshot": "8a459079d138bb00",
        "round_log": "bd3512c0232c233e",
        "mem": [11408, 593],
        "reorder": [7342, 21, "b354fc763d586d7b", 5676, 1536]},
    "kron|DEC-ADG-ITR": {
        "colors": "310333d165c03ebd",
        "rounds": 21,
        "snapshot": "801c12bda8eefc0a",
        "round_log": "884b47cc69a251b9",
        "mem": [7571, 11193],
        "reorder": [7420, 29, "37c6220931554067", 5676, 2560]},
    "kron|DEC-ADG-M": {
        "colors": "20f3e079f98626a1",
        "rounds": 33,
        "snapshot": "bab0983c4de94cb5",
        "round_log": "6bde36eb61cffbc7",
        "mem": [9277, 626],
        "reorder": [9769, 167, "7bbbe173c0c41fc3", 5676, 1023]},
    "kron|JP-ADG": {
        "colors": "d0a1907dfb327d09",
        "rounds": 36,
        "snapshot": "58cf990cdb8736e2",
        "round_log": "d8cfed382ff5e613",
        "mem": [11352, 512],
        "reorder": [7420, 29, "37c6220931554067", 5676, 2560]},
    "kron|JP-ADG-M": {
        "colors": "0a0485cb9864214c",
        "rounds": 38,
        "snapshot": "fe0153e24c65dc6b",
        "round_log": "1a39cbee2fb51f37",
        "mem": [11352, 512],
        "reorder": [9769, 167, "7bbbe173c0c41fc3", 5676, 1023]},
    "kron|JP-ADG-O": {
        "colors": "cea4860c2a6fa825",
        "rounds": 43,
        "snapshot": "496fea869f8997eb",
        "round_log": "9c8d8e8e694d58d1",
        "mem": [5676, 0],
        "reorder": [15144, 126, "585193c829a4690c", 5676, 2560]},
    "kron|JP-ASL": {
        "colors": "ffadde8fac3697eb",
        "rounds": 49,
        "snapshot": "f65a647545dde1da",
        "round_log": "19afe0332bf14de5",
        "mem": [11352, 512],
        "reorder": [16884, 551, "83c752b827a2cd40", 5676, 7066]},
    "kron|JP-FF": {
        "colors": "be411c97a84348a2",
        "rounds": 43,
        "snapshot": "d55c06fc2efc91a9",
        "round_log": "ad07320cb2c1cae7",
        "mem": [11352, 512],
        "reorder": [512, 1, "948afc6f68a5dcce", 0, 512]},
    "kron|JP-LF": {
        "colors": "850a3ffce6d1c3db",
        "rounds": 42,
        "snapshot": "9cdcf791ba44d80b",
        "round_log": "51ea81d7913a628e",
        "mem": [11352, 512],
        "reorder": [512, 1, "291ab99763b9cacf", 0, 512]},
    "kron|JP-LLF": {
        "colors": "c2eca92b10278b5f",
        "rounds": 36,
        "snapshot": "920073797f14fa6a",
        "round_log": "2b19260a7d69ae55",
        "mem": [11352, 512],
        "reorder": [512, 1, "fae9984c58566498", 0, 512]},
    "kron|JP-R": {
        "colors": "6191c0af644ffe5d",
        "rounds": 44,
        "snapshot": "d35a90e85c44a67f",
        "round_log": "b0093a5a6e04972f",
        "mem": [11352, 512],
        "reorder": [512, 1, "103c46686667eab5", 0, 512]},
    "kron|JP-SL": {
        "colors": "4ebe73ee2d067980",
        "rounds": 45,
        "snapshot": "6638877287ae16d9",
        "round_log": "44be67f76a06e3b0",
        "mem": [11352, 512],
        "reorder": [6188, 512, "89f37268b1df2bfb", 5676, 512]},
    "kron|JP-SLL": {
        "colors": "237d53e0f2e32684",
        "rounds": 39,
        "snapshot": "124f24b8cfc75379",
        "round_log": "d697bb42d71c4f95",
        "mem": [11352, 512],
        "reorder": [5706, 30, "65bb6792b1a54a21", 5676, 3296]},
}

PIN_GRAPHS = {"kron": lambda: kronecker(scale=9, edge_factor=8, seed=3),
              "chung": lambda: chung_lu(400, 2000, seed=11)}
PIN_ROWS = [("serial", 1), ("threaded", 2), ("threaded", 4)]


def _digest(obj) -> str:
    if isinstance(obj, np.ndarray):
        raw = np.ascontiguousarray(obj, dtype=np.int64).tobytes()
    else:
        raw = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


@pytest.fixture(scope="module")
def parity_graph():
    return chung_lu(400, 2000, seed=11)


def _assert_result_parity(serial, parallel, backend, workers):
    np.testing.assert_array_equal(parallel.colors, serial.colors)
    assert parallel.rounds == serial.rounds
    assert parallel.cost.work == serial.cost.work
    assert parallel.cost.depth == serial.cost.depth
    if serial.reorder_cost is not None:
        assert parallel.reorder_cost.work == serial.reorder_cost.work
        assert parallel.reorder_cost.depth == serial.reorder_cost.depth
    assert parallel.backend == backend
    assert parallel.workers == workers


class TestJPParity:
    @pytest.mark.parametrize("backend,workers", BACKEND_ROWS,
                             ids=BACKEND_IDS)
    def test_jp_adg(self, parity_graph, backend, workers):
        serial = jp_by_name(parity_graph, "ADG", seed=0, eps=0.1)
        parallel = jp_by_name(parity_graph, "ADG", seed=0, eps=0.1,
                              backend=backend, workers=workers)
        _assert_result_parity(serial, parallel, backend, workers)

    @pytest.mark.parametrize("backend,workers", BACKEND_ROWS,
                             ids=BACKEND_IDS)
    def test_jp_adg_fused(self, parity_graph, backend, workers):
        serial = jp_adg_fused(parity_graph, eps=0.1, seed=0)
        parallel = jp_adg_fused(parity_graph, eps=0.1, seed=0,
                                backend=backend, workers=workers)
        _assert_result_parity(serial, parallel, backend, workers)


class TestOrderingParity:
    @pytest.mark.parametrize("backend,workers", BACKEND_ROWS,
                             ids=BACKEND_IDS)
    @pytest.mark.parametrize("fn", [adg_ordering, adg_m_ordering],
                             ids=["ADG", "ADG-M"])
    def test_adg_family(self, parity_graph, fn, backend, workers):
        serial = fn(parity_graph, eps=0.1, seed=0)
        parallel = fn(parity_graph, eps=0.1, seed=0,
                      backend=backend, workers=workers)
        np.testing.assert_array_equal(parallel.ranks, serial.ranks)
        np.testing.assert_array_equal(parallel.levels, serial.levels)
        assert parallel.num_levels == serial.num_levels
        assert parallel.cost.work == serial.cost.work
        assert parallel.cost.depth == serial.cost.depth

    @pytest.mark.parametrize("backend,workers", BACKEND_ROWS,
                             ids=BACKEND_IDS)
    def test_adg_fused_ranks(self, parity_graph, backend, workers):
        """UPDATEandPRIORITIZE (compute_ranks) parity, incl. pred_counts."""
        serial = adg_ordering(parity_graph, eps=0.1, sort_batches=True,
                              compute_ranks=True)
        parallel = adg_ordering(parity_graph, eps=0.1, sort_batches=True,
                                compute_ranks=True,
                                backend=backend, workers=workers)
        np.testing.assert_array_equal(parallel.ranks, serial.ranks)
        np.testing.assert_array_equal(parallel.pred_counts,
                                      serial.pred_counts)


class TestDecParity:
    @pytest.mark.parametrize("backend,workers", BACKEND_ROWS,
                             ids=BACKEND_IDS)
    @pytest.mark.parametrize("fn", [dec_adg, dec_adg_m, dec_adg_itr],
                             ids=["DEC-ADG", "DEC-ADG-M", "DEC-ADG-ITR"])
    def test_dec_family(self, parity_graph, fn, backend, workers):
        serial = fn(parity_graph, seed=0)
        parallel = fn(parity_graph, seed=0,
                      backend=backend, workers=workers)
        _assert_result_parity(serial, parallel, backend, workers)
        assert_valid_coloring(parity_graph, parallel.colors)


class TestRegistryParity:
    @pytest.mark.parametrize("name", sorted(BACKEND_AWARE))
    def test_every_backend_aware_algorithm(self, name):
        g = gnm_random(150, 500, seed=5)
        serial = color(name, g, seed=0)
        threaded = color(name, g, seed=0, backend="threaded", workers=2)
        np.testing.assert_array_equal(threaded.colors, serial.colors)
        assert threaded.rounds == serial.rounds
        assert threaded.backend == "threaded"

    def test_serial_only_algorithm_ignores_backend(self):
        g = grid_2d(10, 10)
        res = color("Greedy-FF", g, seed=0, backend="threaded", workers=2)
        assert res.backend == "serial"


class TestTracingParity:
    """Tracing is observation only: on or off, results never change."""

    @pytest.mark.parametrize("name", ["JP-ADG", "JP-ADG-O", "DEC-ADG",
                                      "DEC-ADG-ITR"])
    @pytest.mark.parametrize("backend,workers",
                             [("serial", 1), ("threaded", 4)],
                             ids=["serial", "threaded"])
    def test_traced_bit_identical(self, parity_graph, name, backend,
                                  workers):
        plain = color(name, parity_graph, seed=0,
                      backend=backend, workers=workers)
        traced = color(name, parity_graph, seed=0,
                       backend=backend, workers=workers, trace=Tracer())
        np.testing.assert_array_equal(traced.colors, plain.colors)
        assert traced.rounds == plain.rounds
        assert traced.cost.snapshot() == plain.cost.snapshot()
        assert traced.mem.total == plain.mem.total
        if plain.reorder_cost is not None:
            assert traced.reorder_cost.work == plain.reorder_cost.work
            assert traced.reorder_cost.depth == plain.reorder_cost.depth

    def test_untraced_run_records_nothing(self, monkeypatch, parity_graph):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        before = len(NULL_TRACER.events)
        res = color("JP-ADG", parity_graph, seed=0)
        assert res.trace_summary is None
        assert len(NULL_TRACER.events) == before == 0
        assert len(NULL_TRACER.metrics) == 0

    def test_traced_run_populates_summary(self, parity_graph):
        t = Tracer()
        res = color("JP-ADG", parity_graph, seed=0,
                    backend="threaded", workers=2, trace=t)
        assert res.trace_summary["events"] == len(t.events) > 0
        assert res.trace_summary["events_by_cat"].get("round", 0) > 0
        assert "chunk" not in res.trace_summary["events_by_cat"]
        assert t.metrics.get("jp.colored").total == parity_graph.n


class TestThreadedAccounting:
    """The old fork ran dark; the unified engine keeps full books."""

    @pytest.mark.parametrize("name", ["JP-ADG", "JP-ADG-O", "DEC-ADG",
                                      "DEC-ADG-ITR"])
    def test_threaded_populates_cost_and_memory(self, parity_graph, name):
        res = color(name, parity_graph, seed=0,
                    backend="threaded", workers=4)
        assert res.cost.work > 0
        assert res.cost.depth > 0
        assert res.mem.total > 0
        assert res.total_work > 0

    def test_threaded_matches_serial_books(self, parity_graph):
        serial = color("JP-ADG", parity_graph, seed=0)
        threaded = color("JP-ADG", parity_graph, seed=0,
                         backend="threaded", workers=4)
        assert threaded.cost.snapshot() == serial.cost.snapshot()
        assert threaded.mem.total == serial.mem.total

    def test_phase_walls_recorded(self, parity_graph):
        res = color("JP-ADG", parity_graph, seed=0,
                    backend="threaded", workers=2)
        assert res.phase_walls
        assert all(v >= 0 for v in res.phase_walls.values())


class TestPinnedBooks:
    """Every engine x {serial, threaded-2, threaded-4} reproduces the
    books the chunked runtime recorded."""

    @pytest.mark.parametrize("backend,workers", PIN_ROWS,
                             ids=[f"{b}-{w}" for b, w in PIN_ROWS])
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_matches_recorded_books(self, key, backend, workers):
        graph, name = key.split("|")
        with ExecutionContext(backend=backend, workers=workers) as ctx:
            res = color(name, PIN_GRAPHS[graph](), seed=0, ctx=ctx)
        got = {"colors": _digest(res.colors), "rounds": res.rounds,
               "snapshot": _digest(res.cost.snapshot()),
               "round_log": _digest(res.cost.round_log),
               "mem": [res.mem.random, res.mem.sequential]}
        if res.reorder_cost is not None:
            got["reorder"] = [res.reorder_cost.work, res.reorder_cost.depth,
                              _digest(res.reorder_cost.round_log),
                              res.reorder_mem.random,
                              res.reorder_mem.sequential]
        assert got == GOLDEN[key]
        assert (res.backend, res.workers) == (backend, workers)
