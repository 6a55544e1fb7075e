"""The benchmark's own tests, on toy-size inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
RESULTS = ROOT / ".bench_build" / "perfbench" / "results"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT,
        runner: Path = RUN) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_file(workload: str, seed: int, trace: int) -> dict:
    path = RESULTS / f"{workload}-toy-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = run(workload, 7, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] != 0 for v in last["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_and_colors(workload):
    colors = ("colors", "jp_adg_colors", "dec_itr_colors")
    seen = []
    for seed in (3, 3, 4):
        assert run(workload, seed, 0).returncode == 0
        res = result_file(workload, seed, 0)
        seen.append((res["inputs"],
                     [res["metrics"][c]["value"] for c in colors]))
    assert seen[0] == seen[1]
    assert seen[0][0] != seen[2][0]


def test_compare_refuses_runs_on_different_inputs():
    for seed in (5, 6):
        assert run("color-mem", seed, 0).returncode == 0
    a, b, c = (str(RESULTS / f"color-mem-toy-seed{s}-trace0.json")
               for s in (5, 6, 5))
    compare = [sys.executable, str(ROOT / "perfbench" / "compare.py")]
    assert subprocess.run(compare + [a, b], capture_output=True).returncode == 2
    assert subprocess.run(compare + [a, c], capture_output=True).returncode == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("color-mem", 1, 0, cwd=tmp_path,
               runner=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_svc_certificates_reject_wrong_replies():
    """A verify must match the client's own peel, a delta the tight bound."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from common import CertificationError, paper_bound
    from repro import gnm_random
    from repro.graphs.properties import peel_degeneracy
    from svc import check_logged

    g = gnm_random(200, 600, seed=1)
    d = int(peel_degeneracy(g).degeneracy)
    u, v = g.undirected_edges()
    edges = list(zip(u.tolist(), v.tolist()))
    verify = {"ok": True, "digest": g.content_digest, "degeneracy": d,
              "valid": True, "within_bound": True, "colors": paper_bound(d)}

    def logged(kind, reply, added=0):
        return {"kind": kind, "reply": reply, "edges": list(edges),
                "added": added}

    assert check_logged(logged("verify", verify), g.n, 0) == d
    for wrong in ({"degeneracy": d + 1}, {"digest": "0" * 16},
                  {"colors": paper_bound(d) + 1}, {"valid": False}):
        with pytest.raises(CertificationError):
            check_logged(logged("verify", {**verify, **wrong}), g.n, 0)
    # Two edges added since the last verify allow d + 2, and no more.
    assert check_logged(logged("add", {"colors": paper_bound(d + 2)}, 2),
                        g.n, d) == d
    with pytest.raises(CertificationError):
        check_logged(logged("add", {"colors": paper_bound(d + 2) + 1}, 2),
                     g.n, d)
