"""Tests for the flight recorder: run ledger, resource telemetry, and
the noise-aware perf-regression gate."""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.coloring.dec_adg_itr import dec_adg_itr
from repro.coloring.jp import jp_adg
from repro.coloring.result import ColoringResult
from repro.coloring.verify import assert_valid_coloring
from repro.graphs.generators import gnm_random
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    NULL_LEDGER,
    Ledger,
    NullLedger,
    bench_record,
    cell_key,
    graph_digest,
    read_ledger,
    resolve_ledger,
    run_record,
    validate_ledger,
    validate_ledger_record,
)
from repro.obs.regress import (
    DEFAULT_K,
    check,
    check_command,
    head_by_cell,
    load_baseline,
    make_baseline,
    metrics_of,
    run_matrix,
    write_baseline,
)
from repro.obs.resources import resolve_resources
from repro.runtime import ExecutionContext


@pytest.fixture()
def small_graph():
    return gnm_random(300, 1200, seed=3, name="small")


class TestResolveLedger:
    def test_default_is_null_singleton(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert resolve_ledger(None) is NULL_LEDGER
        assert resolve_ledger(False) is NULL_LEDGER
        assert not NULL_LEDGER.enabled

    def test_env_off_values(self, monkeypatch):
        for off in ("", "0", "off"):
            monkeypatch.setenv("REPRO_LEDGER", off)
            assert resolve_ledger(None) is NULL_LEDGER

    def test_env_path(self, tmp_path, monkeypatch):
        path = str(tmp_path / "l.jsonl")
        monkeypatch.setenv("REPRO_LEDGER", path)
        book = resolve_ledger(None)
        assert book.enabled and book.path == path

    def test_explicit_path_and_passthrough(self, tmp_path):
        book = resolve_ledger(str(tmp_path / "l.jsonl"))
        assert isinstance(book, Ledger)
        assert resolve_ledger(book) is book

    def test_null_append_is_noop(self):
        book = NullLedger()
        assert book.append({"anything": 1}) is None
        assert book.records == 0


class TestLedgerRoundTrip:
    def test_engine_record_validates(self, tmp_path, small_graph):
        path = str(tmp_path / "l.jsonl")
        with ExecutionContext(ledger=path) as ctx:
            res = jp_adg(small_graph, eps=0.01, seed=0, ctx=ctx)
            rec = ctx.ledger_record(res, graph=small_graph, valid=True)
        validate_ledger_record(rec, where="unit")
        assert validate_ledger(path) == 1
        (stored,) = read_ledger(path)
        assert stored["schema"] == LEDGER_SCHEMA
        assert stored["algorithm"] == "JP-ADG"
        assert stored["eps"] == 0.01
        assert stored["graph"]["digest"] == graph_digest(small_graph)
        assert stored["cell"] == cell_key("small", "JP-ADG", "serial", 1)
        assert stored["colors"] == res.num_colors
        assert stored["valid"] is True

    def test_engine_auto_append_via_env(self, tmp_path, small_graph,
                                        monkeypatch):
        path = str(tmp_path / "auto.jsonl")
        monkeypatch.setenv("REPRO_LEDGER", path)
        res = jp_adg(small_graph, eps=0.01, seed=0)
        assert res.resources is not None  # telemetry follows the ledger
        recs = read_ledger(path)
        assert len(recs) == 1 and recs[0]["kind"] == "run"

    @pytest.mark.parametrize("name,eps", [("JP-ADG", 0.01),
                                          ("JP-ADG-O", 0.01),
                                          ("DEC-ADG", 6.0),
                                          ("DEC-ADG-ITR", 0.01),
                                          ("JP-ADG-M", None),
                                          ("JP-R", None), ("ITR", None)])
    def test_row_records_the_eps_the_run_used(self, tmp_path, small_graph,
                                              monkeypatch, name, eps):
        from repro.coloring.registry import color
        path = str(tmp_path / "eps.jsonl")
        monkeypatch.setenv("REPRO_LEDGER", path)
        res = color(name, small_graph, seed=0)
        (rec,) = read_ledger(path)
        assert rec["eps"] == res.eps == eps

    def test_caller_owned_context_no_auto_append(self, tmp_path,
                                                 small_graph):
        # Engines only append when they own the context; an explicit
        # context records exactly once, via ctx.ledger_record.
        path = str(tmp_path / "owned.jsonl")
        with ExecutionContext(ledger=path) as ctx:
            jp_adg(small_graph, eps=0.01, seed=0, ctx=ctx)
        assert not os.path.exists(path)

    def test_bench_record_validates(self, tmp_path):
        path = str(tmp_path / "b.jsonl")
        book = Ledger(path)
        book.append(bench_record("backends", {"wall_s": 0.1, "graph": "g"}))
        assert validate_ledger(path) == 1
        (rec,) = read_ledger(path)
        assert rec["kind"] == "bench" and rec["source"] == "backends"

    def test_invalid_record_rejected(self):
        with pytest.raises(ValueError):
            validate_ledger_record({"schema": LEDGER_SCHEMA,
                                    "kind": "nope"}, where="unit")

    def test_committed_ledger_validates(self):
        """The committed ledger is history: its rows recorded on the
        since-removed process backend must keep validating."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join("results", "ledger.jsonl")
        assert any(r.get("backend") == "process"
                   for r in read_ledger(os.path.join(root, path)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", path], cwd=root,
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout


class TestLedgerOff:
    def test_off_run_bit_identical_and_silent(self, tmp_path, small_graph,
                                              monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.delenv("REPRO_RESOURCES", raising=False)
        before = {t.name for t in threading.enumerate()}
        base = jp_adg(small_graph, eps=0.01, seed=0)
        off = jp_adg(small_graph, eps=0.01, seed=0)
        assert (base.colors == off.colors).all()
        assert base.resources is None and off.resources is None
        assert {t.name for t in threading.enumerate()} == before
        assert list(tmp_path.iterdir()) == []  # no ledger I/O anywhere

    def test_on_run_same_colors(self, tmp_path, small_graph):
        base = jp_adg(small_graph, eps=0.01, seed=0)
        with ExecutionContext(ledger=str(tmp_path / "l.jsonl"),
                              resources=True) as ctx:
            on = jp_adg(small_graph, eps=0.01, seed=0, ctx=ctx)
        assert (base.colors == on.colors).all()


class TestResources:
    def test_resolve_tri_state(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESOURCES", raising=False)
        assert resolve_resources(None) is None
        assert resolve_resources(True) is True
        monkeypatch.setenv("REPRO_RESOURCES", "1")
        assert resolve_resources(None) is True
        monkeypatch.setenv("REPRO_RESOURCES", "off")
        assert resolve_resources(None) is False

    def test_serial_coordinator_digest(self, small_graph):
        with ExecutionContext(resources=True) as ctx:
            res = jp_adg(small_graph, eps=0.01, seed=0, ctx=ctx)
            rec = ctx.resource_record()
        coord = rec["coordinator"]
        assert coord["pid"] == os.getpid()
        assert coord["peak_rss_kb"] > 0
        assert coord["samples"] >= 1
        assert res.resources["coordinator"]["pid"] == os.getpid()


class TestTraceSummaryCategories:
    def test_jsonl_trace_with_new_cats_validates(self, tmp_path):
        from repro.obs.validate import validate_trace_file
        g = gnm_random(300, 1200, seed=2)
        path = str(tmp_path / "t.jsonl")
        with ExecutionContext(trace=path) as ctx:
            dec_adg_itr(g, eps=0.01, seed=0, ctx=ctx)
        assert validate_trace_file(path) > 0
        with open(path) as fh:
            assert any('"cat": "phase"' in line for line in fh)

    def test_validate_dispatches_ledger_jsonl(self, tmp_path, small_graph):
        from repro.obs.validate import validate_trace_file
        path = str(tmp_path / "ledger.jsonl")
        with ExecutionContext(ledger=path) as ctx:
            res = jp_adg(small_graph, eps=0.01, seed=0, ctx=ctx)
            ctx.ledger_record(res, graph=small_graph, valid=True)
        assert validate_trace_file(path) == 1


class TestLedgerCell:
    def test_cell_key_ends_in_numpy(self):
        assert cell_key("g", "JP-ADG", "serial", 1) \
            == "g|JP-ADG|serial|1|0|numpy"

    def test_run_record_carries_numpy(self):
        res = ColoringResult(algorithm="JP-ADG", colors=[1, 2, 1])
        rec = run_record(res, valid=True)
        assert rec["kernel_tier"] == "numpy"
        assert rec["cell"].endswith("|numpy")
        validate_ledger_record(rec)

    def test_run_record_has_no_faults_key(self):
        res = ColoringResult(algorithm="JP-ADG", colors=[1, 2, 1])
        assert "faults" not in run_record(res, valid=True)

    def test_validator_accepts_legacy_cells(self):
        res = ColoringResult(algorithm="JP-ADG", colors=[1, 2, 1])
        rec = run_record(res, valid=True)
        # A record from before the trailing cell field: 4-pipe cell,
        # no kernel_tier field.
        rec["cell"] = "g|JP-ADG|serial|1|0"
        rec.pop("kernel_tier")
        validate_ledger_record(rec)
        # Any string kernel_tier on a historical row stays valid.
        rec["cell"] = "g|JP-ADG|serial|1|0|legacy"
        rec["kernel_tier"] = "legacy"
        validate_ledger_record(rec)

    def test_validator_accepts_dispatch_and_adaptive_rows(self):
        # Rows recorded while the threaded backend had adaptive round
        # dispatch carry a dispatch digest and an adaptive mode, and
        # rows recorded under a fault plan a faults digest; the ledger
        # is history, so they keep validating, and the gate no longer
        # reads them.
        rec = {
            "schema": LEDGER_SCHEMA, "kind": "run", "ts": 1786188791.2,
            "git_sha": "6546de790fe4d048f369fd0cfe71753ee746652d",
            "cell": "kron|JP-ADG|threaded|4|0|numpy", "graph": None,
            "algorithm": "JP-ADG", "eps": 0.01, "backend": "threaded",
            "workers": 4, "shards": 0, "kernel_tier": "numpy",
            "colors": 23, "valid": True, "work": 100357, "depth": 301,
            "rounds": 24, "conflicts": 0, "wall_s": 0.0275,
            "reorder_wall_s": 0.0, "phase_walls": {"jp:color": 0.01},
            "mem": {"sequential": 10, "random": 20},
            "dispatch": {"decisions": {"inline": 85, "parallel": 0},
                         "unit_s": {"adg.push": 2.1e-08},
                         "dispatch_s": {"threaded": 4.2e-05},
                         "seeded": {"threaded": "calibrated"},
                         "margin": 2.0, "mode": "on"},
            "adaptive": "on", "faults": None, "resources": None,
            "trace_events": None,
        }
        validate_ledger_record(rec, where="historical")
        assert set(metrics_of(rec)) == {"wall_s", "colors", "work", "valid"}
        rec["faults"] = {
            "counters": {"fault.injected.error": 1, "fault.retries": 1},
            "plan": {"clauses": 1, "seed": 0, "fired": {"error": 1}}}
        validate_ledger_record(rec, where="historical")
        assert set(metrics_of(rec)) == {"wall_s", "colors", "work", "valid"}


class TestRegressionGate:
    CELL = "g|JP-ADG|serial|1|0"

    def _rec(self, wall=0.1, colors=8, work=1000, valid=True):
        return {
            "schema": LEDGER_SCHEMA, "kind": "run",
            "cell": self.CELL, "algorithm": "JP-ADG",
            "backend": "serial", "workers": 1, "shards": 0,
            "colors": colors, "work": work, "depth": 10, "rounds": 5,
            "conflicts": 0, "wall_s": wall, "reorder_wall_s": 0.0,
            "valid": valid, "phase_walls": {},
        }

    def _baseline(self, records, k=1):
        return make_baseline(records, k=k)

    def test_replay_passes(self):
        recs = [self._rec() for _ in range(3)]
        rows, failures = check(recs, self._baseline(recs, k=3), k=3)
        assert failures == 0
        assert all(r["status"] in ("ok", "improved") for r in rows)

    def test_synthetic_slowdown_fails(self):
        base = [self._rec(wall=0.1) for _ in range(3)]
        cand = [self._rec(wall=2.0) for _ in range(3)]
        rows, failures = check(cand, self._baseline(base, k=3), k=3)
        assert failures > 0
        assert any(r["metric"] == "wall_s" and r["status"] == "REGRESSED"
                   for r in rows)

    def test_noise_within_tolerance_passes(self):
        base = [self._rec(wall=0.100)]
        cand = [self._rec(wall=0.130)]  # +30% < 50% rel tolerance
        _, failures = check(cand, self._baseline(base, k=1), k=1)
        assert failures == 0

    def test_hard_metric_no_tolerance(self):
        base = [self._rec(colors=8)]
        cand = [self._rec(colors=9)]
        rows, failures = check(cand, self._baseline(base, k=1), k=1)
        assert failures > 0
        assert any(r["metric"] == "colors" and r["status"] == "REGRESSED"
                   for r in rows)

    def test_valid_flip_fails(self):
        base = [self._rec(valid=True)]
        cand = [self._rec(valid=False)]
        rows, failures = check(cand, self._baseline(base, k=1), k=1)
        assert failures > 0
        assert any(r["metric"] == "valid" and r["status"] == "REGRESSED"
                   for r in rows)

    def test_missing_cell_fails(self):
        base = [self._rec()]
        rows, failures = check([], self._baseline(base, k=1), k=1)
        assert failures > 0
        assert all(r["status"] == "MISSING" for r in rows)

    def test_twin_cell_reports_missing(self):
        # A head cell that differs only in its trailing field is a
        # different cell: the baseline cell is still MISSING.
        base = [self._rec()]
        twin = dict(self._rec(), cell=self.CELL + "|other")
        rows, failures = check([twin], self._baseline(base, k=1), k=1)
        assert failures == len(rows) > 0
        assert all(r["status"] == "MISSING" for r in rows)
        # The same cell with the same walls passes cleanly.
        rows, failures = check(base, self._baseline(base, k=1), k=1)
        assert failures == 0

    def test_only_filter(self):
        base = [self._rec(wall=0.1)]
        cand = [self._rec(wall=9.9)]  # gross slowdown, filtered out
        _, failures = check(cand, self._baseline(base, k=1), k=1,
                            only=["colors", "valid"])
        assert failures == 0

    def test_median_of_k_shrugs_one_outlier(self):
        base = [self._rec(wall=0.1) for _ in range(3)]
        cand = [self._rec(wall=0.1), self._rec(wall=0.1),
                self._rec(wall=5.0)]
        _, failures = check(cand, self._baseline(base, k=3), k=3)
        assert failures == 0

    def test_head_by_cell_keeps_last_k(self):
        recs = [self._rec(wall=w) for w in (1.0, 2.0, 3.0, 4.0)]
        head = head_by_cell(recs, k=2)
        assert head[self.CELL]["wall_s"] == pytest.approx(3.5)

    def test_metrics_of_skips_bench(self):
        assert metrics_of({"kind": "bench", "source": "x", "row": {}}) is None

    def test_baseline_file_round_trip(self, tmp_path):
        recs = [self._rec()]
        doc = make_baseline(recs, k=DEFAULT_K)
        path = str(tmp_path / "b.json")
        write_baseline(doc, path)
        loaded = load_baseline(path)
        assert loaded["cells"] == doc["cells"]
        assert loaded["k"] == DEFAULT_K


class TestObsCheckCommand:
    def _write_ledger(self, path, records):
        book = Ledger(str(path))
        for rec in records:
            # Bypass strict run-record construction: these are minimal
            # synthetic rows, so write them through json directly.
            with open(book.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def test_update_then_replay_exit_zero(self, tmp_path, capsys):
        gate = TestRegressionGate()
        ledger = tmp_path / "l.jsonl"
        baseline = str(tmp_path / "b.json")
        self._write_ledger(ledger, [gate._rec() for _ in range(3)])
        assert check_command(str(ledger), baseline, update=True) == 0
        assert check_command(str(ledger), baseline) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_injected_regression_exit_nonzero(self, tmp_path, capsys):
        gate = TestRegressionGate()
        ledger = tmp_path / "l.jsonl"
        baseline = str(tmp_path / "b.json")
        self._write_ledger(ledger, [gate._rec(wall=0.1) for _ in range(3)])
        assert check_command(str(ledger), baseline, update=True) == 0
        self._write_ledger(ledger, [gate._rec(wall=5.0) for _ in range(3)])
        assert check_command(str(ledger), baseline) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_files_exit_two(self, tmp_path):
        assert check_command(str(tmp_path / "none.jsonl"),
                             str(tmp_path / "none.json")) == 2


class TestRunMatrix:
    def test_single_cell_appends_and_passes_gate(self, tmp_path):
        ledger = str(tmp_path / "l.jsonl")
        from repro.obs.regress import MATRIX
        cells = [c for c in MATRIX if c["backend"] == "serial"][:1]
        n = run_matrix(ledger, repeats=2, seed=0, cells=cells)
        assert n == 2
        recs = read_ledger(ledger)
        assert len(recs) == 2 and all(r["valid"] for r in recs)
        doc = make_baseline(recs, k=2)
        _, failures = check(recs, doc, k=2)
        assert failures == 0


class TestSuiteLedger:
    def test_run_suite_appends_suite_records(self, tmp_path, small_graph):
        from repro.bench.harness import run_suite
        path = str(tmp_path / "suite.jsonl")
        out = run_suite({"small": small_graph},
                        algorithms=["JP-ADG", "DEC-ADG"], ledger=path)
        recs = read_ledger(path)
        assert len(recs) == len(out.records) == 2
        assert {r["kind"] for r in recs} == {"suite"}
        assert all(r["valid"] is True for r in recs)
        assert validate_ledger(path) == 2

    def test_run_suite_default_off(self, tmp_path, small_graph,
                                   monkeypatch):
        from repro.bench.harness import run_suite
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.chdir(tmp_path)
        run_suite({"small": small_graph}, algorithms=["JP-ADG"])
        assert list(tmp_path.iterdir()) == []
