"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.graphs.generators import gnm_random
from repro.graphs.io import save_npz, write_edge_list, write_metis
from repro.obs import read_jsonl, validate_chrome, validate_jsonl


@pytest.fixture()
def graph_file(tmp_path):
    g = gnm_random(60, 200, seed=1, name="cli_graph")
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    return str(path)


class TestColorCommand:
    def test_generated_graph(self, capsys):
        assert main(["color", "--gen", "gnm:200,600", "--algorithm",
                     "JP-ADG", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["algorithm"] == "JP-ADG"
        assert out["colors"] > 0

    def test_graph_file(self, graph_file, capsys):
        assert main(["color", "--graph", graph_file, "--algorithm",
                     "ITR", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["colors"] > 0

    def test_table_output(self, capsys):
        assert main(["color", "--gen", "grid:10,10"]) == 0
        assert "colors" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "colors.txt"
        assert main(["color", "--gen", "gnm:50,150", "--output",
                     str(dest)]) == 0
        colors = np.loadtxt(dest, dtype=np.int64)
        assert colors.size == 50
        assert colors.min() >= 1

    def test_every_generator(self, capsys):
        for spec in ["kronecker:8,4", "gnm:100,300", "chunglu:100,300",
                     "grid:8,9", "ba:100,3"]:
            assert main(["color", "--gen", spec, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["colors"] >= 1

    def test_unknown_generator(self):
        with pytest.raises(SystemExit):
            main(["color", "--gen", "bogus:1"])

    def test_missing_graph(self):
        with pytest.raises(SystemExit):
            main(["color"])

    def test_npz_and_metis_inputs(self, tmp_path, capsys):
        g = gnm_random(30, 90, seed=2, name="x")
        npz = tmp_path / "g.npz"
        metis = tmp_path / "g.graph"
        save_npz(g, npz)
        write_metis(g, metis)
        for path in [str(npz), str(metis)]:
            assert main(["color", "--graph", path, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["colors"] >= 1


def _cli_color(*extra) -> dict:
    """``repro color --json`` on a gnm graph in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-m", "repro", "color", "--gen", "gnm:2000,10000",
         "--algorithm", "JP-ADG", "--json", *extra],
        capture_output=True, text=True, env=env, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    return json.loads(out.stdout)


class TestColorDeterminism:
    def test_color_json_reproducible(self):
        # Two processes give the same record apart from walls, and the
        # threaded backend colors like the serial one.
        runs = [_cli_color("--backend", "threaded", "--workers", "4")
                for _ in range(2)]
        serial = _cli_color()
        for rec in runs:
            rec.pop("wall_s", None)
            rec.pop("reorder_wall_s", None)
            rec.pop("phase_walls", None)
        assert runs[0] == runs[1]
        assert runs[0]["colors_digest"] == serial["colors_digest"]
        assert runs[0]["backend"] == "threaded"

    def test_faults_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["color", "--gen", "gnm:60,200", "--faults", "error@3.0"])
        assert ei.value.code == 2
        assert "unrecognized arguments: --faults" in capsys.readouterr().err


class TestOrderCommand:
    def test_adg(self, capsys):
        assert main(["order", "--gen", "gnm:150,600", "--ordering",
                     "ADG", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ordering"] == "ADG"
        assert out["approx_factor"] <= 2.02 * 1.5

    def test_sl_no_factor(self, capsys):
        assert main(["order", "--gen", "gnm:100,300", "--ordering",
                     "FF", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["approx_factor"] == "n/a"


class TestStatsCommand:
    def test_json(self, capsys):
        assert main(["stats", "--gen", "grid:12,12", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 144
        assert out["degeneracy"] == 2


class TestSuiteCommand:
    def test_extra_suite_subset(self, capsys):
        assert main(["suite", "--suite", "extra", "--algorithms",
                     "JP-ADG,JP-R", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 6  # 3 graphs x 2 algorithms
        assert all(r["colors"] <= r["quality_bound"] for r in rows)


class TestPhaseWallsOutput:
    def test_color_json_includes_phase_walls(self, capsys):
        assert main(["color", "--gen", "gnm:100,300", "--algorithm",
                     "JP-ADG", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "phase_walls" in out
        assert "jp:color" in out["phase_walls"]
        assert all(v >= 0 for v in out["phase_walls"].values())


class TestTraceOption:
    def test_color_trace_jsonl(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        assert main(["color", "--gen", "gnm:100,300", "--algorithm",
                     "JP-ADG", "--json", "--trace", path]) == 0
        assert validate_jsonl(path) > 0
        recs = read_jsonl(path)
        assert recs[0]["type"] == "meta"
        assert any(r["type"] == "metric" and r["name"] == "jp.colored"
                   for r in recs)

    def test_color_trace_chrome(self, tmp_path, capsys):
        path = str(tmp_path / "run.json")
        assert main(["color", "--gen", "grid:10,10", "--json",
                     "--trace", path]) == 0
        assert validate_chrome(path) > 0
        doc = json.load(open(path))
        assert any(e["ph"] == "C" for e in doc["traceEvents"])

    def test_order_trace(self, tmp_path, capsys):
        path = str(tmp_path / "order.jsonl")
        assert main(["order", "--gen", "gnm:120,400", "--ordering", "ADG",
                     "--json", "--trace", path]) == 0
        assert validate_jsonl(path) > 0

    def test_stats_trace(self, tmp_path, capsys):
        path = str(tmp_path / "stats.jsonl")
        assert main(["stats", "--gen", "grid:8,8", "--json",
                     "--trace", path]) == 0
        assert validate_jsonl(path) > 0

    def test_suite_trace(self, tmp_path, capsys):
        path = str(tmp_path / "suite.jsonl")
        assert main(["suite", "--suite", "extra", "--algorithms", "JP-R",
                     "--json", "--trace", path]) == 0
        assert validate_jsonl(path) > 0

    def test_trace_message_on_stderr(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        main(["color", "--gen", "grid:6,6", "--json", "--trace", path])
        assert f"trace written to {path}" in capsys.readouterr().err


class TestProfileCommand:
    def test_json_breakdowns(self, capsys):
        assert main(["profile", "--gen", "gnm:150,500", "--algorithm",
                     "JP-ADG", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"summary", "phases", "rounds", "resources"}
        assert out["summary"]["algorithm"] == "JP-ADG"
        assert {r["phase"] for r in out["phases"]} >= {"jp:dag", "jp:color"}
        assert any("jp.colored" in r for r in out["rounds"])

    def test_adaptive_flag_removed(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile", "--gen", "gnm:60,200", "--adaptive", "on"])
        assert "unrecognized arguments: --adaptive" in capsys.readouterr().err

    def test_table_output(self, capsys):
        assert main(["profile", "--gen", "grid:8,8"]) == 0
        text = capsys.readouterr().out
        assert "per-phase breakdown" in text
        assert "per-round metrics" in text

    def test_profile_with_trace_file(self, tmp_path, capsys):
        path = str(tmp_path / "prof.json")
        assert main(["profile", "--gen", "grid:8,8", "--json",
                     "--trace", path]) == 0
        assert validate_chrome(path) > 0


class TestLedgerFlag:
    def test_color_appends_one_record(self, tmp_path, capsys):
        from repro.obs import read_ledger
        path = str(tmp_path / "ledger.jsonl")
        assert main(["color", "--gen", "gnm:200,600", "--algorithm",
                     "JP-ADG", "--ledger", path, "--json"]) == 0
        recs = read_ledger(path)
        assert len(recs) == 1
        assert recs[0]["kind"] == "run"
        assert recs[0]["algorithm"] == "JP-ADG"
        out = json.loads(capsys.readouterr().out)
        assert out["resources"]["coordinator"]["peak_rss_kb"] > 0

    def test_env_not_polluted(self, tmp_path, capsys, monkeypatch):
        # The --ledger seam sets $REPRO_LEDGER for the run and must
        # restore the ambient value afterwards (here: unset).
        import os
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert main(["color", "--gen", "gnm:100,300", "--ledger",
                     str(tmp_path / "l.jsonl"), "--json"]) == 0
        capsys.readouterr()
        assert "REPRO_LEDGER" not in os.environ

    def test_env_seam_alone(self, tmp_path, capsys, monkeypatch):
        from repro.obs import read_ledger
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_LEDGER", path)
        assert main(["color", "--gen", "gnm:100,300", "--json"]) == 0
        capsys.readouterr()
        assert len(read_ledger(path)) == 1

    def test_explicit_trace_clears_ambient_env(self, tmp_path, capsys,
                                               monkeypatch):
        # --trace FILE is the single sink for the run: an ambient
        # $REPRO_TRACE must neither double-trace nor leak, and must be
        # restored afterwards.
        import os
        ambient = str(tmp_path / "ambient.jsonl")
        explicit = str(tmp_path / "explicit.jsonl")
        monkeypatch.setenv("REPRO_TRACE", ambient)
        assert main(["color", "--gen", "grid:6,6", "--json",
                     "--trace", explicit]) == 0
        capsys.readouterr()
        assert validate_jsonl(explicit) > 0
        assert not os.path.exists(ambient)
        assert os.environ["REPRO_TRACE"] == ambient
