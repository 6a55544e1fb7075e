"""JP as one rank sweep: pinned books, C/Python agreement, C boundary.

``GOLDEN`` holds what the wave-by-wave JP engine recorded for every
configuration below, captured from that engine before the sweep
replaced it: the sweep must reproduce its colors, waves, work, depth,
round log, per-phase snapshot, memory books and ``jp.*`` tracer series
bit for bit.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import sweep
from repro.coloring.jp import jp_adg_fused, jp_by_name, jp_color
from repro.graphs import CSRGraph
from repro.graphs.generators import (
    barabasi_albert,
    complete_graph,
    gnm_random,
    grid_2d,
    kronecker,
    ring,
)
from repro.obs import Tracer
from repro.runtime import ExecutionContext

from .conftest import (concurrently, graphs, misaligned, require_c,
                       warm_from_ingest_cache)

GRAPHS = {
    "kron": lambda: kronecker(scale=9, edge_factor=8, seed=3),
    "gnm": lambda: gnm_random(400, 1600, seed=5),
    "ba": lambda: barabasi_albert(300, 3, seed=2),
    "grid": lambda: grid_2d(15, 17),
    "clique": lambda: complete_graph(12),
    "ring": lambda: ring(64),
}
ORDERINGS = ("ADG", "ADG-M", "R", "FF", "LF", "SL", "ADG-O")
SERIES = ("jp.frontier", "jp.colored", "jp.wave_degree")


def _digest(obj) -> str:
    if isinstance(obj, np.ndarray):
        raw = np.ascontiguousarray(obj, dtype=np.int64).tobytes()
    else:
        raw = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def fingerprint(graph: str, ordering: str, crew: bool,
                backend: str = "serial", workers: int | None = None) -> dict:
    """Everything a JP run books, reduced to comparable constants."""
    g = GRAPHS[graph]()
    with ExecutionContext(backend=backend, workers=workers, crew=crew,
                          trace=Tracer()) as ctx:
        if ordering == "ADG-O":
            res = jp_adg_fused(g, eps=0.1, seed=0, ctx=ctx)
        else:
            res = jp_by_name(g, ordering, seed=0, ctx=ctx)
        series = {name: ctx.tracer.metrics.series(name) for name in SERIES}
    return {
        "colors": _digest(res.colors),
        "waves": res.rounds,
        "work": res.cost.work,
        "depth": res.cost.depth,
        "round_log": _digest(res.cost.round_log),
        "snapshot": _digest(res.cost.snapshot()),
        "mem": [res.mem.random, res.mem.sequential],
        "series": _digest(series),
    }


# Recorded from the wave-by-wave engine; key "graph|ordering|model".
GOLDEN = {
    "ba|ADG-M|CRCW": dict(
        colors="8fb36a4b03295653", waves=12, work=4965,
        depth=82, round_log="7e58e48631573de6",
        snapshot="889c5cfef9ba09cd", mem=[3492, 300],
        series="d853413877ed96d1"),
    "ba|ADG-M|CREW": dict(
        colors="8fb36a4b03295653", waves=12, work=4965,
        depth=88, round_log="5dd8414915edf235",
        snapshot="765680541732681c", mem=[3492, 300],
        series="d853413877ed96d1"),
    "ba|ADG-O|CRCW": dict(
        colors="27a8d3d59553b41e", waves=14, work=2919,
        depth=89, round_log="31fa8c5f24539b2b",
        snapshot="686f27c1bf2ed416", mem=[1746, 0],
        series="55969e10966a68cd"),
    "ba|ADG-O|CREW": dict(
        colors="27a8d3d59553b41e", waves=14, work=2919,
        depth=92, round_log="1785efee17b12c1c",
        snapshot="7a70896127873143", mem=[1746, 0],
        series="55969e10966a68cd"),
    "ba|ADG|CRCW": dict(
        colors="ad3165a6d032825b", waves=11, work=4965,
        depth=77, round_log="524634e7e0593513",
        snapshot="6c65cf988eca8c3c", mem=[3492, 300],
        series="12206e69684db6fc"),
    "ba|ADG|CREW": dict(
        colors="ad3165a6d032825b", waves=11, work=4965,
        depth=81, round_log="7dce11f624faa5a7",
        snapshot="1f7a957441a37b3f", mem=[3492, 300],
        series="12206e69684db6fc"),
    "ba|FF|CRCW": dict(
        colors="25fe36a074570811", waves=18, work=4965,
        depth=117, round_log="2b1aa87e8fb75fb7",
        snapshot="ad6e3d66d7ed4cf9", mem=[3492, 300],
        series="ca5dd5d257209fa5"),
    "ba|FF|CREW": dict(
        colors="25fe36a074570811", waves=18, work=4965,
        depth=118, round_log="73be553aad84ca7f",
        snapshot="400611553088599d", mem=[3492, 300],
        series="ca5dd5d257209fa5"),
    "ba|LF|CRCW": dict(
        colors="f37ae54b630e1866", waves=12, work=4965,
        depth=78, round_log="9ee67f962a1b9e49",
        snapshot="18f340b9eef6252f", mem=[3492, 300],
        series="ea51b29e82d73ef8"),
    "ba|LF|CREW": dict(
        colors="f37ae54b630e1866", waves=12, work=4965,
        depth=83, round_log="e12ce05330eb9dde",
        snapshot="f629e40bc005c530", mem=[3492, 300],
        series="ea51b29e82d73ef8"),
    "ba|R|CRCW": dict(
        colors="8fa60b6eb2866533", waves=17, work=4965,
        depth=119, round_log="632348a342fe30b3",
        snapshot="3f8ed1d182e00c73", mem=[3492, 300],
        series="9914d56969188832"),
    "ba|R|CREW": dict(
        colors="8fa60b6eb2866533", waves=17, work=4965,
        depth=130, round_log="e35c5a4f86a8ce7f",
        snapshot="cfe44c72ce210d3b", mem=[3492, 300],
        series="9914d56969188832"),
    "ba|SL|CRCW": dict(
        colors="7e8c7ed053aaf269", waves=19, work=4965,
        depth=122, round_log="2b5feb73ab1822ee",
        snapshot="98df20c3e0134c0e", mem=[3492, 300],
        series="596d6f9efb257eec"),
    "ba|SL|CREW": dict(
        colors="7e8c7ed053aaf269", waves=19, work=4965,
        depth=123, round_log="8cc54fa0b8429159",
        snapshot="20f9616cc6adf6a5", mem=[3492, 300],
        series="596d6f9efb257eec"),
    "clique|ADG-M|CRCW": dict(
        colors="7fc75808a49d6f4b", waves=12, work=354,
        depth=75, round_log="a39e99422d27b51b",
        snapshot="4e40787f327d1cf7", mem=[264, 12],
        series="f30648a7bd3d7851"),
    "clique|ADG-M|CREW": dict(
        colors="7fc75808a49d6f4b", waves=12, work=354,
        depth=75, round_log="a39e99422d27b51b",
        snapshot="4e40787f327d1cf7", mem=[264, 12],
        series="f30648a7bd3d7851"),
    "clique|ADG-O|CRCW": dict(
        colors="d973382744d25539", waves=12, work=210,
        depth=71, round_log="ac1b36da66d486f2",
        snapshot="89be7af41b19ff68", mem=[132, 0],
        series="f30648a7bd3d7851"),
    "clique|ADG-O|CREW": dict(
        colors="d973382744d25539", waves=12, work=210,
        depth=71, round_log="ac1b36da66d486f2",
        snapshot="89be7af41b19ff68", mem=[132, 0],
        series="f30648a7bd3d7851"),
    "clique|ADG|CRCW": dict(
        colors="994bddf006a5c20f", waves=12, work=354,
        depth=75, round_log="a39e99422d27b51b",
        snapshot="4e40787f327d1cf7", mem=[264, 12],
        series="f30648a7bd3d7851"),
    "clique|ADG|CREW": dict(
        colors="994bddf006a5c20f", waves=12, work=354,
        depth=75, round_log="a39e99422d27b51b",
        snapshot="4e40787f327d1cf7", mem=[264, 12],
        series="f30648a7bd3d7851"),
    "clique|FF|CRCW": dict(
        colors="a2a5d426b0027a8e", waves=12, work=354,
        depth=75, round_log="a39e99422d27b51b",
        snapshot="4e40787f327d1cf7", mem=[264, 12],
        series="f30648a7bd3d7851"),
    "clique|FF|CREW": dict(
        colors="a2a5d426b0027a8e", waves=12, work=354,
        depth=75, round_log="a39e99422d27b51b",
        snapshot="4e40787f327d1cf7", mem=[264, 12],
        series="f30648a7bd3d7851"),
    "clique|LF|CRCW": dict(
        colors="994bddf006a5c20f", waves=12, work=354,
        depth=75, round_log="a39e99422d27b51b",
        snapshot="4e40787f327d1cf7", mem=[264, 12],
        series="f30648a7bd3d7851"),
    "clique|LF|CREW": dict(
        colors="994bddf006a5c20f", waves=12, work=354,
        depth=75, round_log="a39e99422d27b51b",
        snapshot="4e40787f327d1cf7", mem=[264, 12],
        series="f30648a7bd3d7851"),
    "clique|R|CRCW": dict(
        colors="994bddf006a5c20f", waves=12, work=354,
        depth=75, round_log="a39e99422d27b51b",
        snapshot="4e40787f327d1cf7", mem=[264, 12],
        series="f30648a7bd3d7851"),
    "clique|R|CREW": dict(
        colors="994bddf006a5c20f", waves=12, work=354,
        depth=75, round_log="a39e99422d27b51b",
        snapshot="4e40787f327d1cf7", mem=[264, 12],
        series="f30648a7bd3d7851"),
    "clique|SL|CRCW": dict(
        colors="d973382744d25539", waves=12, work=354,
        depth=75, round_log="a39e99422d27b51b",
        snapshot="4e40787f327d1cf7", mem=[264, 12],
        series="f30648a7bd3d7851"),
    "clique|SL|CREW": dict(
        colors="d973382744d25539", waves=12, work=354,
        depth=75, round_log="a39e99422d27b51b",
        snapshot="4e40787f327d1cf7", mem=[264, 12],
        series="f30648a7bd3d7851"),
    "gnm|ADG-M|CRCW": dict(
        colors="701fe8781bba3f96", waves=19, work=8800,
        depth=116, round_log="71c5874a49374ff4",
        snapshot="7fa56b3e1fdaf504", mem=[6400, 400],
        series="3ff1ed7e8108bf23"),
    "gnm|ADG-M|CREW": dict(
        colors="701fe8781bba3f96", waves=19, work=8800,
        depth=126, round_log="63a4f7b071128cf6",
        snapshot="50850a9e192bb352", mem=[6400, 400],
        series="3ff1ed7e8108bf23"),
    "gnm|ADG-O|CRCW": dict(
        colors="e8cbbf57d822b185", waves=21, work=5200,
        depth=123, round_log="ab86607cf5b96392",
        snapshot="d29b46ea561c709f", mem=[3200, 0],
        series="40a32f9958441bbf"),
    "gnm|ADG-O|CREW": dict(
        colors="e8cbbf57d822b185", waves=21, work=5200,
        depth=129, round_log="1ac18ded393a3340",
        snapshot="463f2d008fcaad43", mem=[3200, 0],
        series="40a32f9958441bbf"),
    "gnm|ADG|CRCW": dict(
        colors="4fa571d67a3af23b", waves=24, work=8800,
        depth=143, round_log="94413709cea9bb04",
        snapshot="9d98a3896c3287bf", mem=[6400, 400],
        series="fc22e4171129c577"),
    "gnm|ADG|CREW": dict(
        colors="4fa571d67a3af23b", waves=24, work=8800,
        depth=153, round_log="8d98d606de51209c",
        snapshot="b99a4089106a5359", mem=[6400, 400],
        series="fc22e4171129c577"),
    "gnm|FF|CRCW": dict(
        colors="56e5f8bc2c85daa6", waves=16, work=8800,
        depth=103, round_log="ccd7cf875491ff07",
        snapshot="694b97ef97614932", mem=[6400, 400],
        series="9c024066e01395f6"),
    "gnm|FF|CREW": dict(
        colors="56e5f8bc2c85daa6", waves=16, work=8800,
        depth=114, round_log="87c08fc7dee8114e",
        snapshot="ea1a9b0c7e4adffa", mem=[6400, 400],
        series="9c024066e01395f6"),
    "gnm|LF|CRCW": dict(
        colors="8b2fe8e03dce9b92", waves=18, work=8800,
        depth=105, round_log="52dfd9b2b661ecdb",
        snapshot="fe68b465d098e2cf", mem=[6400, 400],
        series="65bdbfac953cf2c0"),
    "gnm|LF|CREW": dict(
        colors="8b2fe8e03dce9b92", waves=18, work=8800,
        depth=115, round_log="247246133fd2d143",
        snapshot="d5ed9f5b2e8a0ce2", mem=[6400, 400],
        series="65bdbfac953cf2c0"),
    "gnm|R|CRCW": dict(
        colors="bd0a97d5372eefb1", waves=18, work=8800,
        depth=115, round_log="8819fe70c30e5b93",
        snapshot="d5ed9f5b2e8a0ce2", mem=[6400, 400],
        series="0f2262fd43651906"),
    "gnm|R|CREW": dict(
        colors="bd0a97d5372eefb1", waves=18, work=8800,
        depth=127, round_log="c1acb47b934baa8e",
        snapshot="c3101a72f5e958c3", mem=[6400, 400],
        series="0f2262fd43651906"),
    "gnm|SL|CRCW": dict(
        colors="16b6c42ce49968aa", waves=29, work=8800,
        depth=173, round_log="038d48b5724599b8",
        snapshot="deaf6bccf821a9f0", mem=[6400, 400],
        series="20d01918419cbe3e"),
    "gnm|SL|CREW": dict(
        colors="16b6c42ce49968aa", waves=29, work=8800,
        depth=179, round_log="9418f617edabff63",
        snapshot="872a10ddba7d2801", mem=[6400, 400],
        series="20d01918419cbe3e"),
    "grid|ADG-M|CRCW": dict(
        colors="76593cd9405a57fa", waves=16, work=2900,
        depth=65, round_log="c3119f3d0b8ba81f",
        snapshot="feee61054c23d914", mem=[1912, 255],
        series="bdbb7d34ad4b1949"),
    "grid|ADG-M|CREW": dict(
        colors="76593cd9405a57fa", waves=16, work=2900,
        depth=68, round_log="6a4b62f8b892a9e9",
        snapshot="2dfb2c8648f95171", mem=[1912, 255],
        series="bdbb7d34ad4b1949"),
    "grid|ADG-O|CRCW": dict(
        colors="fe556711149c5205", waves=29, work=1689,
        depth=114, round_log="a830861b083e6833",
        snapshot="4e80748fa7f1adae", mem=[956, 0],
        series="8c5d0f2ce57a2791"),
    "grid|ADG-O|CREW": dict(
        colors="fe556711149c5205", waves=29, work=1689,
        depth=114, round_log="a830861b083e6833",
        snapshot="4e80748fa7f1adae", mem=[956, 0],
        series="8c5d0f2ce57a2791"),
    "grid|ADG|CRCW": dict(
        colors="1f24f37ef12c7b22", waves=20, work=2900,
        depth=81, round_log="41f42607476c5426",
        snapshot="95aa47bca7373740", mem=[1912, 255],
        series="476f20bc6bd17c33"),
    "grid|ADG|CREW": dict(
        colors="1f24f37ef12c7b22", waves=20, work=2900,
        depth=81, round_log="41f42607476c5426",
        snapshot="95aa47bca7373740", mem=[1912, 255],
        series="476f20bc6bd17c33"),
    "grid|FF|CRCW": dict(
        colors="fe556711149c5205", waves=31, work=2900,
        depth=123, round_log="9ad19c2325cf7dcf",
        snapshot="a60a15f7841d180e", mem=[1912, 255],
        series="71eb4d7fdc3f7c3e"),
    "grid|FF|CREW": dict(
        colors="fe556711149c5205", waves=31, work=2900,
        depth=123, round_log="9ad19c2325cf7dcf",
        snapshot="a60a15f7841d180e", mem=[1912, 255],
        series="71eb4d7fdc3f7c3e"),
    "grid|LF|CRCW": dict(
        colors="309649441ddfdda5", waves=10, work=2900,
        depth=41, round_log="73d39a0d237e756e",
        snapshot="1a0b859610b4198e", mem=[1912, 255],
        series="cdc6aca1ffded542"),
    "grid|LF|CREW": dict(
        colors="309649441ddfdda5", waves=10, work=2900,
        depth=44, round_log="4320a6c45459995f",
        snapshot="690a6033517766a3", mem=[1912, 255],
        series="cdc6aca1ffded542"),
    "grid|R|CRCW": dict(
        colors="6dfda6db30028947", waves=8, work=2900,
        depth=33, round_log="e34860698e2cf553",
        snapshot="822e7cb78c387e9e", mem=[1912, 255],
        series="fcacb54e670e26ee"),
    "grid|R|CREW": dict(
        colors="6dfda6db30028947", waves=8, work=2900,
        depth=36, round_log="f9ebe193e5bbb3fb",
        snapshot="2d00381a14540ecc", mem=[1912, 255],
        series="fcacb54e670e26ee"),
    "grid|SL|CRCW": dict(
        colors="167fcc599c69a8ad", waves=16, work=2900,
        depth=64, round_log="322109180777747f",
        snapshot="3034d5d0a6914338", mem=[1912, 255],
        series="bf216ed1df7734f5"),
    "grid|SL|CREW": dict(
        colors="167fcc599c69a8ad", waves=16, work=2900,
        depth=64, round_log="322109180777747f",
        snapshot="3034d5d0a6914338", mem=[1912, 255],
        series="bf216ed1df7734f5"),
    "kron|ADG-M|CRCW": dict(
        colors="0a0485cb9864214c", waves=38, work=15214,
        depth=312, round_log="1a39cbee2fb51f37",
        snapshot="fe0153e24c65dc6b", mem=[11352, 512],
        series="aa6089a2a9695106"),
    "kron|ADG-M|CREW": dict(
        colors="0a0485cb9864214c", waves=38, work=15214,
        depth=318, round_log="7157287ef8de3949",
        snapshot="6fa30e74850b03b6", mem=[11352, 512],
        series="aa6089a2a9695106"),
    "kron|ADG-O|CRCW": dict(
        colors="fc40939fc1fc52f2", waves=43, work=9026,
        depth=337, round_log="3b7a7dbbbb21cd97",
        snapshot="f6d94711449b28fc", mem=[5676, 0],
        series="0dae0e32b9412216"),
    "kron|ADG-O|CREW": dict(
        colors="fc40939fc1fc52f2", waves=43, work=9026,
        depth=341, round_log="a84a09d0099a5045",
        snapshot="48db2a6b5f02c917", mem=[5676, 0],
        series="0dae0e32b9412216"),
    "kron|ADG|CRCW": dict(
        colors="d0a1907dfb327d09", waves=36, work=15214,
        depth=293, round_log="d8cfed382ff5e613",
        snapshot="58cf990cdb8736e2", mem=[11352, 512],
        series="986f9ee9c8430ddf"),
    "kron|ADG|CREW": dict(
        colors="d0a1907dfb327d09", waves=36, work=15214,
        depth=303, round_log="80ed2d92c344a106",
        snapshot="96e9920727a14db5", mem=[11352, 512],
        series="986f9ee9c8430ddf"),
    "kron|FF|CRCW": dict(
        colors="be411c97a84348a2", waves=43, work=15214,
        depth=346, round_log="ad07320cb2c1cae7",
        snapshot="d55c06fc2efc91a9", mem=[11352, 512],
        series="97fa502e598d230c"),
    "kron|FF|CREW": dict(
        colors="be411c97a84348a2", waves=43, work=15214,
        depth=387, round_log="14ea7031ee1a4cc5",
        snapshot="26659fb1f960fcc4", mem=[11352, 512],
        series="97fa502e598d230c"),
    "kron|LF|CRCW": dict(
        colors="850a3ffce6d1c3db", waves=42, work=15214,
        depth=338, round_log="51ea81d7913a628e",
        snapshot="9cdcf791ba44d80b", mem=[11352, 512],
        series="e21e41a18392f621"),
    "kron|LF|CREW": dict(
        colors="850a3ffce6d1c3db", waves=42, work=15214,
        depth=346, round_log="6f5faec36c2ff0ca",
        snapshot="466c49ceeacac929", mem=[11352, 512],
        series="e21e41a18392f621"),
    "kron|R|CRCW": dict(
        colors="6191c0af644ffe5d", waves=44, work=15214,
        depth=364, round_log="b0093a5a6e04972f",
        snapshot="d35a90e85c44a67f", mem=[11352, 512],
        series="b1cd1fa13c6c40b3"),
    "kron|R|CREW": dict(
        colors="6191c0af644ffe5d", waves=44, work=15214,
        depth=403, round_log="1e51d29849e379f9",
        snapshot="27700b6afcd50d91", mem=[11352, 512],
        series="b1cd1fa13c6c40b3"),
    "kron|SL|CRCW": dict(
        colors="4ebe73ee2d067980", waves=45, work=15214,
        depth=359, round_log="44be67f76a06e3b0",
        snapshot="6638877287ae16d9", mem=[11352, 512],
        series="a0d93e7566550bdb"),
    "kron|SL|CREW": dict(
        colors="4ebe73ee2d067980", waves=45, work=15214,
        depth=361, round_log="cd3d66c2f515165e",
        snapshot="255b8744a7dabb6f", mem=[11352, 512],
        series="a0d93e7566550bdb"),
    "ring|ADG-M|CRCW": dict(
        colors="514d8b3adc7369c6", waves=7, work=448,
        depth=21, round_log="9be88b61f9822a23",
        snapshot="e87125cddd0cba0d", mem=[256, 64],
        series="b32a414fecc6badd"),
    "ring|ADG-M|CREW": dict(
        colors="514d8b3adc7369c6", waves=7, work=448,
        depth=21, round_log="9be88b61f9822a23",
        snapshot="e87125cddd0cba0d", mem=[256, 64],
        series="b32a414fecc6badd"),
    "ring|ADG-O|CRCW": dict(
        colors="5caa4c6123f17b3f", waves=64, work=256,
        depth=191, round_log="9ccb3664e589fded",
        snapshot="3a811932a4f804b8", mem=[128, 0],
        series="6a3c96530ddc3d57"),
    "ring|ADG-O|CREW": dict(
        colors="5caa4c6123f17b3f", waves=64, work=256,
        depth=191, round_log="9ccb3664e589fded",
        snapshot="3a811932a4f804b8", mem=[128, 0],
        series="6a3c96530ddc3d57"),
    "ring|ADG|CRCW": dict(
        colors="3fe6e668ad144224", waves=6, work=448,
        depth=18, round_log="27f2de6602655dc8",
        snapshot="3596df6112484f62", mem=[256, 64],
        series="fb21c5a7173bf04c"),
    "ring|ADG|CREW": dict(
        colors="3fe6e668ad144224", waves=6, work=448,
        depth=18, round_log="27f2de6602655dc8",
        snapshot="3596df6112484f62", mem=[256, 64],
        series="fb21c5a7173bf04c"),
    "ring|FF|CRCW": dict(
        colors="86b17b6b7c997f92", waves=64, work=448,
        depth=192, round_log="53059ee1e89f3474",
        snapshot="6b9de6558ed759f8", mem=[256, 64],
        series="6a3c96530ddc3d57"),
    "ring|FF|CREW": dict(
        colors="86b17b6b7c997f92", waves=64, work=448,
        depth=192, round_log="53059ee1e89f3474",
        snapshot="6b9de6558ed759f8", mem=[256, 64],
        series="6a3c96530ddc3d57"),
    "ring|LF|CRCW": dict(
        colors="3fe6e668ad144224", waves=6, work=448,
        depth=18, round_log="27f2de6602655dc8",
        snapshot="3596df6112484f62", mem=[256, 64],
        series="fb21c5a7173bf04c"),
    "ring|LF|CREW": dict(
        colors="3fe6e668ad144224", waves=6, work=448,
        depth=18, round_log="27f2de6602655dc8",
        snapshot="3596df6112484f62", mem=[256, 64],
        series="fb21c5a7173bf04c"),
    "ring|R|CRCW": dict(
        colors="3fe6e668ad144224", waves=6, work=448,
        depth=18, round_log="27f2de6602655dc8",
        snapshot="3596df6112484f62", mem=[256, 64],
        series="fb21c5a7173bf04c"),
    "ring|R|CREW": dict(
        colors="3fe6e668ad144224", waves=6, work=448,
        depth=18, round_log="27f2de6602655dc8",
        snapshot="3596df6112484f62", mem=[256, 64],
        series="fb21c5a7173bf04c"),
    "ring|SL|CRCW": dict(
        colors="5caa4c6123f17b3f", waves=64, work=448,
        depth=192, round_log="53059ee1e89f3474",
        snapshot="6b9de6558ed759f8", mem=[256, 64],
        series="6a3c96530ddc3d57"),
    "ring|SL|CREW": dict(
        colors="5caa4c6123f17b3f", waves=64, work=448,
        depth=192, round_log="53059ee1e89f3474",
        snapshot="6b9de6558ed759f8", mem=[256, 64],
        series="6a3c96530ddc3d57"),
}


CASES = [(gname, o, model) for gname in GRAPHS for o in ORDERINGS
         for model in ("CRCW", "CREW")]


class TestPinnedBooks:
    @pytest.mark.parametrize("graph,ordering,model", CASES,
                             ids=["|".join(c) for c in CASES])
    def test_matches_wave_engine(self, graph, ordering, model):
        got = fingerprint(graph, ordering, model == "CREW")
        assert got == GOLDEN[f"{graph}|{ordering}|{model}"]

    @pytest.mark.parametrize("ordering", ["ADG", "R", "ADG-O"])
    def test_threaded_books_match(self, ordering):
        key = f"kron|{ordering}|CREW"
        got = fingerprint("kron", ordering, True, backend="threaded",
                          workers=2)
        assert got == GOLDEN[key]


def _python_sweep(indptr, indices, ranks) -> sweep.Sweep:
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    ranks = np.ascontiguousarray(ranks, dtype=np.int64)
    order = np.argsort(ranks, kind="stable")[::-1].copy()
    return sweep._sweep_python(indptr, indices, ranks, order)


def _assert_same(a: sweep.Sweep, b: sweep.Sweep) -> None:
    assert a.waves == b.waves
    for field, x, y in zip(sweep.Sweep._fields, a, b):
        np.testing.assert_array_equal(x, y, err_msg=field)
        assert x.dtype == np.int64, field


class TestCAndPythonAgree:
    @given(graphs(max_n=40, max_m=160), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_and_orders(self, g, rnd):
        require_c()
        perm = list(range(g.n))
        rnd.shuffle(perm)
        # Ranks need only be distinct, not 0..n-1.
        ranks = np.asarray(perm, dtype=np.int64) * 3 - 7
        _assert_same(sweep.rank_sweep(g, ranks),
                     _python_sweep(g.indptr, g.indices, ranks))

    def test_kronecker_random_order(self):
        require_c()
        g = kronecker(scale=11, edge_factor=8, seed=1)
        ranks = np.random.default_rng(4).permutation(g.n)
        _assert_same(sweep.rank_sweep(g, ranks),
                     _python_sweep(g.indptr, g.indices, ranks))

    def test_waves_are_the_longest_path_layering(self):
        g = gnm_random(120, 500, seed=2)
        ranks = np.random.default_rng(0).permutation(g.n)
        s = sweep.rank_sweep(g, ranks)
        for v in range(g.n):
            nb = g.indices[g.indptr[v]:g.indptr[v + 1]]
            pred = nb[ranks[nb] > ranks[v]]
            assert s.wave[v] == 1 + (s.wave[pred].max() if pred.size else 0)
        assert s.frontier.sum() == g.n


class TestFallback:
    """A failed build (each way ``test_cbuild`` covers) leaves JP on the
    Python sweep, with the compiled sweep's colors and waves."""

    @pytest.fixture
    def python_calls(self, monkeypatch):
        calls = []
        real = sweep._sweep_python

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(sweep, "_sweep_python", spy)
        return calls

    def _check(self, python_calls):
        g = GRAPHS["kron"]()
        ranks = np.random.default_rng(1).permutation(g.n)
        colors, waves = jp_color(g, ranks)
        assert python_calls == [1]
        ref = _python_sweep(g.indptr, g.indices, ranks)
        np.testing.assert_array_equal(colors, ref.colors)
        assert waves == ref.waves

    def test_no_compiler_on_path(self, broken_build, python_calls):
        broken_build("no_compiler")
        self._check(python_calls)

    def test_build_command_fails(self, broken_build, python_calls):
        broken_build("cc_fails")
        self._check(python_calls)

    def test_source_that_does_not_compile(self, broken_build, python_calls):
        broken_build("bad_source")
        self._check(python_calls)

    def test_loader_builds_once(self, fresh_build):
        g = GRAPHS["kron"]()
        ranks = np.random.default_rng(1).permutation(g.n)
        first = jp_color(g, ranks)[0]
        np.testing.assert_array_equal(jp_color(g, ranks)[0], first)
        assert fresh_build == [1]

    def test_concurrent_loaders_build_once(self, fresh_build):
        g = GRAPHS["kron"]()
        ranks = np.random.default_rng(1).permutation(g.n)
        got = concurrently(lambda: jp_color(g, ranks)[0])
        assert fresh_build == [1]
        assert all(np.array_equal(c, got[0]) for c in got)


class TestCBoundary:
    """Every CSR the repo can hold crosses the ctypes boundary intact."""

    def _check(self, g, ranks):
        colors, waves = jp_color(g, ranks)
        ref = _python_sweep(g.indptr, g.indices, ranks)
        np.testing.assert_array_equal(colors, ref.colors)
        assert waves == ref.waves
        _assert_same(sweep.rank_sweep(g, ranks), ref)

    def test_int32_arrays(self):
        g = GRAPHS["gnm"]()
        g32 = CSRGraph(indptr=g.indptr.astype(np.int32),
                       indices=g.indices.astype(np.int32))
        ranks = np.random.default_rng(2).permutation(g.n)
        self._check(g32, ranks)
        np.testing.assert_array_equal(jp_color(g32, ranks)[0],
                                      jp_color(g, ranks)[0])

    def test_read_only_memmap_from_the_ingest_cache(self, tmp_path):
        g, cached = warm_from_ingest_cache(gnm_random(20000, 80000, seed=9),
                                           tmp_path)
        self._check(cached, np.random.default_rng(3).permutation(g.n))

    def test_odd_offset_arrays(self):
        # Unaligned int64 (an array mapped at an odd file offset) is
        # copied before the sweep, never loaded from in C.
        g = GRAPHS["kron"]()
        odd = CSRGraph(indptr=misaligned(g.indptr),
                       indices=misaligned(g.indices))
        ranks = np.random.default_rng(4).permutation(g.n)
        self._check(odd, misaligned(ranks))
        np.testing.assert_array_equal(jp_color(odd, misaligned(ranks))[0],
                                      jp_color(g, ranks)[0])

    def test_non_contiguous_ranks(self):
        g = GRAPHS["ba"]()
        wide = np.zeros((g.n, 2), dtype=np.int64)
        wide[:, 0] = np.random.default_rng(5).permutation(g.n)
        ranks = wide[:, 0]
        assert not ranks.flags.c_contiguous
        self._check(g, ranks)

    @pytest.mark.parametrize("bad", ["short_indptr", "indptr_past_end",
                                     "falling_indptr", "vertex_out_of_range"])
    def test_malformed_csr_rejected(self, bad):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        ranks = np.array([0, 1], dtype=np.int64)
        if bad == "short_indptr":
            indptr = indptr[:2]
        elif bad == "indptr_past_end":
            indptr = np.array([0, 1, 3])
        elif bad == "falling_indptr":
            indptr = np.array([0, 2, 1])
        else:
            indices = np.array([1, 2])
        with pytest.raises(ValueError):
            sweep.rank_sweep(CSRGraph(indptr=indptr, indices=indices), ranks)


class TestSweepOrder:
    """The sweep order is built, and distinctness checked, in one pass:
    an inverse-permutation scatter for ranks spanning 0..n-1, a stable
    argsort otherwise."""

    @given(st.integers(0, 60), st.integers(-9, 9), st.integers(1, 4),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_descending_distinct_ranks(self, n, shift, scale, rnd):
        perm = list(range(n))
        rnd.shuffle(perm)
        ranks = np.asarray(perm, dtype=np.int64) * scale + shift
        np.testing.assert_array_equal(
            sweep._descending(ranks),
            np.argsort(ranks, kind="stable")[::-1])

    @pytest.mark.parametrize("ranks", [
        [0, 1, 1, 3],        # spans 0..n-1 with a hole
        [0, 3, 3, 3],
        [2, 0, 2],           # no hole in range, but not 0..n-1
        [5, 5, 7],
        [0, 0],
        [-1, 4, -1, 0]])
    def test_repeated_ranks_raise(self, ranks):
        ranks = np.asarray(ranks, dtype=np.int64)
        with pytest.raises(ValueError, match="distinct"):
            sweep._descending(ranks)
        g = ring(ranks.size) if ranks.size > 2 else CSRGraph(
            indptr=np.array([0, 1, 2]), indices=np.array([1, 0]))
        with pytest.raises(ValueError, match="distinct"):
            sweep.rank_sweep(g, ranks)
        with pytest.raises(ValueError, match="distinct"):
            jp_color(g, ranks)
