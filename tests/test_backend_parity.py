"""Backend parity: one engine, bit-identical results on every backend.

The determinism contract of the ExecutionContext runtime: for every
algorithm, ``backend='threaded'`` must produce exactly
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
from repro.cli import main
from repro.coloring.registry import ALGORITHMS, color
from repro.coloring.verify import assert_valid_coloring
from repro.graphs.generators import chung_lu, gnm_random, kronecker
from repro.obs import NULL_TRACER, Tracer, read_ledger, validate_ledger_record
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

#: Fingerprints of the Class-1/2 baselines on the same two graphs,
#: recorded while they still kept private books: colors, rounds,
#: conflicts, the per-phase snapshot and round log, the memory books
#: (totals and per-phase digest) and the ordering's books.
GOLDEN_BASELINES = {
    "chung|CR": {
        "colors": "07a22d6e0a652ce1",
        "rounds": 22,
        "conflicts": 0,
        "snapshot": "0c4bef0c1d3dc4c9",
        "round_log": "10f19d9fe439fd8d",
        "mem": [2577, 9200],
        "mem_phases": "9e66f612a595bf57",
        "reorder": None},
    "chung|GM": {
        "colors": "d17c08f560a5d944",
        "rounds": 51,
        "conflicts": 11,
        "snapshot": "e15761de20c5d4da",
        "round_log": "20ce1c921f454202",
        "mem": [8000, 0],
        "mem_phases": "67d213a63400981c",
        "reorder": None},
    "chung|Greedy-FF": {
        "colors": "d0ecff8afef4beb9",
        "rounds": 400,
        "conflicts": 0,
        "snapshot": "83ebf963b7a2bcc8",
        "round_log": "a916f7faccd5f28c",
        "mem": [4000, 400],
        "mem_phases": "af170913da4bab6d",
        "reorder": [400, 1, "93aac580e11aa8ff", 0, 400]},
    "chung|Greedy-ID": {
        "colors": "67ad82a5d509a1da",
        "rounds": 400,
        "conflicts": 0,
        "snapshot": "83ebf963b7a2bcc8",
        "round_log": "a916f7faccd5f28c",
        "mem": [4000, 400],
        "mem_phases": "af170913da4bab6d",
        "reorder": [4400, 400, "fdcd7b9e704387fe", 4000, 400]},
    "chung|Greedy-LF": {
        "colors": "ffd098ef8368d1eb",
        "rounds": 400,
        "conflicts": 0,
        "snapshot": "83ebf963b7a2bcc8",
        "round_log": "a916f7faccd5f28c",
        "mem": [4000, 400],
        "mem_phases": "af170913da4bab6d",
        "reorder": [400, 1, "cd6869a163561790", 0, 400]},
    "chung|Greedy-R": {
        "colors": "401996a4026eb9ba",
        "rounds": 400,
        "conflicts": 0,
        "snapshot": "83ebf963b7a2bcc8",
        "round_log": "a916f7faccd5f28c",
        "mem": [4000, 400],
        "mem_phases": "af170913da4bab6d",
        "reorder": [400, 1, "92570a09b807e110", 0, 400]},
    "chung|Greedy-SD": {
        "colors": "49597b4b45bc6c9e",
        "rounds": 400,
        "conflicts": 0,
        "snapshot": "4d30d68fa2fbce4a",
        "round_log": "2934954b5bfb0a38",
        "mem": [4000, 400],
        "mem_phases": "70eb7cbb821d6517",
        "reorder": None},
    "chung|Greedy-SL": {
        "colors": "1d5d656c72561696",
        "rounds": 400,
        "conflicts": 0,
        "snapshot": "83ebf963b7a2bcc8",
        "round_log": "a916f7faccd5f28c",
        "mem": [4000, 400],
        "mem_phases": "af170913da4bab6d",
        "reorder": [4400, 400, "8768c9fef1920b3b", 4000, 400]},
    "chung|ITR": {
        "colors": "715dc505b2226539",
        "rounds": 10,
        "conflicts": 910,
        "snapshot": "01a2906e5aa5ecb9",
        "round_log": "99511e6731d524d1",
        "mem": [34658, 0],
        "mem_phases": "f778d39c7bbab9f7",
        "reorder": None},
    "chung|ITR-ASL": {
        "colors": "cfc815b00dbf11c7",
        "rounds": 8,
        "conflicts": 1511,
        "snapshot": "bd10e0eb8c7c4601",
        "round_log": "1c086540a1283347",
        "mem": [37942, 0],
        "mem_phases": "d41ad450077cecfe",
        "reorder": [17033, 506, "33becf8e85e03b45", 4000, 7544]},
    "chung|ITRB": {
        "colors": "ba3aacec87178972",
        "rounds": 3,
        "conflicts": 111,
        "snapshot": "9d3f4757efd0ed47",
        "round_log": "969925555b9eadb7",
        "mem": [6578, 0],
        "mem_phases": "e154c7dd8cccce43",
        "reorder": None},
    "chung|Luby": {
        "colors": "2e34d4cb1287d31a",
        "rounds": 11,
        "conflicts": 0,
        "snapshot": "67a21270c22a9cab",
        "round_log": "42bae8edc739f214",
        "mem": [25375, 0],
        "mem_phases": "8505ed8a77d3bbd4",
        "reorder": None},
    "kron|CR": {
        "colors": "a048a31f6be6964e",
        "rounds": 29,
        "conflicts": 0,
        "snapshot": "6991440f79fe5a7e",
        "round_log": "839d954fc8ead386",
        "mem": [3488, 15360],
        "mem_phases": "82f58a88af1707fe",
        "reorder": None},
    "kron|GM": {
        "colors": "f018b3982bec6e73",
        "rounds": 65,
        "conflicts": 5,
        "snapshot": "2577964315e72118",
        "round_log": "9fb7055e6eb1b037",
        "mem": [11352, 0],
        "mem_phases": "2f7d8d3f79b54205",
        "reorder": None},
    "kron|Greedy-FF": {
        "colors": "be411c97a84348a2",
        "rounds": 512,
        "conflicts": 0,
        "snapshot": "494429507d42f530",
        "round_log": "be2b8dd0862d2c26",
        "mem": [5676, 512],
        "mem_phases": "acae595aadb109b1",
        "reorder": [512, 1, "948afc6f68a5dcce", 0, 512]},
    "kron|Greedy-ID": {
        "colors": "dcf1d4dc58acec42",
        "rounds": 512,
        "conflicts": 0,
        "snapshot": "494429507d42f530",
        "round_log": "be2b8dd0862d2c26",
        "mem": [5676, 512],
        "mem_phases": "acae595aadb109b1",
        "reorder": [6188, 512, "a3df801f0063a025", 5676, 512]},
    "kron|Greedy-LF": {
        "colors": "850a3ffce6d1c3db",
        "rounds": 512,
        "conflicts": 0,
        "snapshot": "494429507d42f530",
        "round_log": "be2b8dd0862d2c26",
        "mem": [5676, 512],
        "mem_phases": "acae595aadb109b1",
        "reorder": [512, 1, "291ab99763b9cacf", 0, 512]},
    "kron|Greedy-R": {
        "colors": "6191c0af644ffe5d",
        "rounds": 512,
        "conflicts": 0,
        "snapshot": "494429507d42f530",
        "round_log": "be2b8dd0862d2c26",
        "mem": [5676, 512],
        "mem_phases": "acae595aadb109b1",
        "reorder": [512, 1, "103c46686667eab5", 0, 512]},
    "kron|Greedy-SD": {
        "colors": "2c5adf79d719c5cf",
        "rounds": 512,
        "conflicts": 0,
        "snapshot": "4b6f17ab69d9cb7f",
        "round_log": "7b3d154f4d311b23",
        "mem": [5676, 512],
        "mem_phases": "b6808227feed1ee2",
        "reorder": None},
    "kron|Greedy-SL": {
        "colors": "4ebe73ee2d067980",
        "rounds": 512,
        "conflicts": 0,
        "snapshot": "494429507d42f530",
        "round_log": "be2b8dd0862d2c26",
        "mem": [5676, 512],
        "mem_phases": "acae595aadb109b1",
        "reorder": [6188, 512, "89f37268b1df2bfb", 5676, 512]},
    "kron|ITR": {
        "colors": "6191c0af644ffe5d",
        "rounds": 19,
        "conflicts": 1095,
        "snapshot": "2ba4878100b7725b",
        "round_log": "0bc965e90dabb979",
        "mem": [81480, 0],
        "mem_phases": "b6ca9f45018e6c35",
        "reorder": None},
    "kron|ITR-ASL": {
        "colors": "8aae01a13904844d",
        "rounds": 15,
        "conflicts": 1438,
        "snapshot": "0d99f75ddddf9754",
        "round_log": "419a68d8fc2f134d",
        "mem": [75596, 0],
        "mem_phases": "146b2d98b0798145",
        "reorder": [16884, 551, "83c752b827a2cd40", 5676, 7066]},
    "kron|ITRB": {
        "colors": "e31dce52861da2be",
        "rounds": 4,
        "conflicts": 113,
        "snapshot": "79aa278dbddcb5fc",
        "round_log": "edbcd26160ba7f4e",
        "mem": [10642, 0],
        "mem_phases": "389c5fae9b438662",
        "reorder": None},
    "kron|Luby": {
        "colors": "8d281764fbe4fcdc",
        "rounds": 20,
        "conflicts": 0,
        "snapshot": "95adb2672addf7d1",
        "round_log": "4f9c8ba9c5398213",
        "mem": [53065, 0],
        "mem_phases": "fd0cffaa4f113bfe",
        "reorder": None},
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


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestRegistryParity:
    """Every algorithm runs through the one driver: it records its
    configuration, traces its phases and writes one ledger row."""

    def test_every_backend_aware_algorithm(self, name):
        g = gnm_random(150, 500, seed=5)
        serial = color(name, g, seed=0)
        threaded = color(name, g, seed=0, backend="threaded", workers=2)
        np.testing.assert_array_equal(threaded.colors, serial.colors)
        assert threaded.rounds == serial.rounds
        assert threaded.cost.snapshot() == serial.cost.snapshot()
        assert threaded.backend == "threaded"

    @pytest.mark.parametrize("backend,workers",
                             [("serial", 1), ("threaded", 3)])
    def test_records_backend_and_workers(self, name, backend, workers):
        res = color(name, gnm_random(60, 150, seed=2), seed=0,
                    backend=backend, workers=workers)
        assert (res.backend, res.workers) == (backend, workers)

    def test_traced_run_has_phase_span(self, name):
        tracer = Tracer()
        res = color(name, gnm_random(60, 150, seed=2), seed=0,
                    trace=tracer)
        spans = [e for e in tracer.events if e.cat == "phase"]
        assert spans
        assert res.trace_summary["events_by_cat"]["phase"] == len(spans)
        assert set(res.phase_walls) == {e.name for e in spans}

    def test_cli_ledger_appends_one_row(self, name, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        assert main(["color", "--gen", "gnm:60,150", "--algorithm", name,
                     "--json", "--ledger", str(path)]) == 0
        (row,) = read_ledger(str(path))
        validate_ledger_record(row)
        assert row["algorithm"] == name and row["phase_walls"]


class TestOrderingWalls:
    """An ordering's wall is booked once, under its own phase, beside
    the coloring's walls; its cost stays in the reorder books."""

    @pytest.mark.parametrize("name,phase", [
        ("JP-R", "order:random"), ("JP-ADG", "order:adg"),
        ("DEC-ADG-M", "order:adg-m"), ("ITR-ASL", "order:asl"),
        ("Greedy-SL", "order:sl"), ("Greedy-ID", "order:id")])
    def test_ordering_phase_in_phase_walls(self, parity_graph, name, phase):
        tracer = Tracer()
        res = color(name, parity_graph, seed=0, trace=tracer)
        assert len(tracer.spans(phase)) == 1
        assert 0.0 <= res.phase_walls[phase] <= res.reorder_wall_seconds
        assert phase in res.reorder_cost.phases
        assert phase not in res.cost.phases

    def test_no_ordering_step_no_reorder_wall(self, parity_graph):
        res = color("ITR", parity_graph, seed=0)
        assert res.reorder_wall_seconds == 0.0 and res.reorder_cost is None
        assert set(res.phase_walls) == {"itr:rounds"}


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
        assert res.trace_summary["events_by_cat"].get("phase", 0) > 0
        assert set(res.trace_summary["events_by_cat"]) <= {"phase",
                                                           "instant"}
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


class TestPinnedBaselineBooks:
    """The Class-1/2 baselines reproduce the books they recorded on
    their own private cost and memory models."""

    @pytest.mark.parametrize("backend,workers", PIN_ROWS,
                             ids=[f"{b}-{w}" for b, w in PIN_ROWS])
    @pytest.mark.parametrize("key", sorted(GOLDEN_BASELINES))
    def test_matches_recorded_books(self, key, backend, workers):
        graph, name = key.split("|")
        res = color(name, PIN_GRAPHS[graph](), seed=0, backend=backend,
                    workers=workers)
        got = {"colors": _digest(res.colors), "rounds": res.rounds,
               "conflicts": res.conflicts_resolved,
               "snapshot": _digest(res.cost.snapshot()),
               "round_log": _digest(res.cost.round_log),
               "mem": [res.mem.random, res.mem.sequential],
               "mem_phases": _digest(sorted(res.mem.by_phase.items())),
               "reorder": None}
        if res.reorder_cost is not None:
            got["reorder"] = [res.reorder_cost.work, res.reorder_cost.depth,
                              _digest(res.reorder_cost.round_log),
                              res.reorder_mem.random,
                              res.reorder_mem.sequential]
        assert got == GOLDEN_BASELINES[key]
