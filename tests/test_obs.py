"""Tests for repro.obs: tracer, metrics, sinks, validators, profile."""

import json

import pytest

from repro.bench.harness import run_suite
from repro.coloring import color
from repro.coloring.registry import ALGORITHMS
from repro.graphs import gnm_random, grid_2d, kronecker
from repro.obs import (
    CATEGORIES,
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    chrome_trace,
    jsonl_records,
    phase_breakdown,
    read_jsonl,
    resolve_tracer,
    round_breakdown,
    validate_chrome,
    validate_jsonl,
    validate_trace_file,
    write_chrome_trace,
    write_jsonl,
)


class TestMetricsRegistry:
    def test_counter_total(self):
        reg = MetricsRegistry()
        for rnd, v in enumerate([5, 3, 2]):
            reg.count("colored", v, round=rnd)
        assert reg.get("colored").total == 10
        assert reg.series("colored") == [(0, 5.0), (1, 3.0), (2, 2.0)]

    def test_gauge_last(self):
        reg = MetricsRegistry()
        reg.gauge("frontier", 100, round=0)
        reg.gauge("frontier", 40, round=1)
        assert reg.get("frontier").last == 40

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.count("x", 1)
        with pytest.raises(ValueError, match="counter"):
            reg.gauge("x", 1)

    def test_by_round_counter_sums_repeats(self):
        # DEC engines restart round ids per partition: counters sum.
        reg = MetricsRegistry()
        reg.count("c", 2, round=0)
        reg.count("c", 3, round=0)
        reg.gauge("g", 2, round=0)
        reg.gauge("g", 3, round=0)
        assert reg.get("c").by_round() == {0: 5.0}
        assert reg.get("g").by_round() == {0: 3.0}

    def test_names_contains_len_summary(self):
        reg = MetricsRegistry()
        reg.count("b", 1)
        reg.gauge("a", 7)
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "missing" not in reg
        assert len(reg) == 2
        assert reg.summary()["a"] == {"kind": "gauge", "points": 1,
                                     "total": 7.0, "last": 7.0}

    def test_as_pairs(self):
        reg = MetricsRegistry()
        reg.count("c", 4, round=2)
        assert reg.get("c").as_pairs() == [[2, 4.0]]


class TestNullTracer:
    def test_disabled_and_inert(self):
        t = NULL_TRACER
        assert t.enabled is False
        t.record("x", "phase", 0.0, 1.0)
        t.count("c", 1)
        t.gauge("g", 1)
        t.instant("i")
        with t.span("s"):
            pass
        assert t.events == ()
        assert len(t.metrics) == 0
        assert t.summary() is None
        assert t.flush("/nonexistent/never-written") is None

    def test_resolve_tracer_forms(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert resolve_tracer(None) is NULL_TRACER
        assert resolve_tracer(False) is NULL_TRACER
        assert isinstance(resolve_tracer(True), Tracer)
        t = Tracer()
        assert resolve_tracer(t) is t
        assert resolve_tracer("out.jsonl").path == "out.jsonl"
        with pytest.raises(TypeError, match="trace"):
            resolve_tracer(42)

    def test_resolve_tracer_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "off")
        assert resolve_tracer(None) is NULL_TRACER
        monkeypatch.setenv("REPRO_TRACE", "mem")
        t = resolve_tracer(None)
        assert isinstance(t, Tracer) and t.path is None
        monkeypatch.setenv("REPRO_TRACE", "/tmp/run.jsonl")
        assert resolve_tracer(None).path == "/tmp/run.jsonl"


class TestTracer:
    def test_span_and_query(self):
        t = Tracer()
        with t.span("build", items=3):
            pass
        t.record("r1", "round", 0.0, 0.5, round=1)
        t.instant("mark", note="hi")
        assert len(t.spans()) == 3
        (build,) = t.spans("build")
        assert build.cat == "phase" and build.args == {"items": 3}
        assert build.dur >= 0.0
        assert t.spans(cat="round")[0].name == "r1"
        assert t.spans(cat="instant")[0].args["note"] == "hi"

    def test_worker_ids_stable(self):
        t = Tracer()
        assert t.worker_id(111) == 0
        assert t.worker_id(222) == 1
        assert t.worker_id(111) == 0

    def test_phase_self_walls(self):
        t = Tracer()
        t.record("a", "phase", 0.0, 1.0, self_s=0.25)
        t.record("a", "phase", 1.0, 2.0, self_s=0.5)
        t.record("b", "phase", 0.0, 0.1)  # falls back to dur
        walls = t.phase_self_walls()
        assert walls["a"] == pytest.approx(0.75)
        assert walls["b"] == pytest.approx(0.1)

    def test_summary(self):
        t = Tracer()
        t.record("p", "phase", 0, 1, self_s=1.0)
        t.count("c", 2, round=0)
        s = t.summary()
        assert s["events"] == 1
        assert s["events_by_cat"] == {"phase": 1}
        assert s["phase_self_s"] == {"p": 1.0}
        assert s["series"] == {"c": [[0, 2.0]]}
        assert s["metrics"]["c"]["kind"] == "counter"

    def test_flush_dispatch(self, tmp_path):
        t = Tracer()
        t.record("p", "phase", 0, 1)
        jl = t.flush(str(tmp_path / "t.jsonl"))
        cj = t.flush(str(tmp_path / "t.json"))
        assert read_jsonl(jl)[0]["type"] == "meta"
        assert json.loads(open(cj).read())["traceEvents"]
        assert Tracer().flush() is None  # no bound path -> no-op


class TestSinks:
    def _traced(self):
        t = Tracer()
        t.meta["backend"] = "serial"
        t.record("p", "phase", 0.0, 1.0, self_s=1.0)
        t.record("p#round1", "round", 0.1, 0.2, tid=123, round=1, items=10)
        t.count("colored", 5, round=1)
        t.gauge("frontier", 9, round=1)
        return t

    def test_jsonl_roundtrip(self, tmp_path):
        t = self._traced()
        path = str(tmp_path / "run.jsonl")
        write_jsonl(t, path)
        recs = read_jsonl(path)
        assert recs[0] == {"type": "meta", "version": 1, "backend": "serial"}
        spans = [r for r in recs if r["type"] == "span"]
        metrics = [r for r in recs if r["type"] == "metric"]
        assert len(spans) == 2 and len(metrics) == 2
        assert spans[1]["tid"] == 1  # mapped worker id, not raw ident
        assert {m["kind"] for m in metrics} == {"counter", "gauge"}
        assert validate_jsonl(path) == len(recs)

    def test_jsonl_records_header_first(self):
        recs = list(jsonl_records(self._traced()))
        assert recs[0]["type"] == "meta"
        assert all(r["type"] in ("span", "metric") for r in recs[1:])

    def test_chrome_trace_structure(self, tmp_path):
        t = self._traced()
        doc = chrome_trace(t)
        phs = [e["ph"] for e in doc["traceEvents"]]
        assert "M" in phs and "X" in phs and "C" in phs
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["name"] == "thread_name"}
        assert "coordinator" in names and "worker-1" in names
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in xs)
        assert doc["otherData"] == {"backend": "serial"}
        path = str(tmp_path / "run.json")
        write_chrome_trace(t, path)
        assert validate_chrome(path) == len(doc["traceEvents"])

    def test_validate_dispatch(self, tmp_path):
        t = self._traced()
        jl = str(tmp_path / "a.jsonl")
        cj = str(tmp_path / "a.json")
        write_jsonl(t, jl)
        write_chrome_trace(t, cj)
        assert validate_trace_file(jl) > 0
        assert validate_trace_file(cj) > 0

    def test_validate_rejects_bad_jsonl(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "span", "name": "no-header"}) + "\n")
        with pytest.raises(ValueError, match="meta"):
            validate_jsonl(path)
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "meta", "version": 1}) + "\n")
            fh.write(json.dumps({"type": "span", "name": "s", "cat": "nope",
                                 "t0": 0, "t1": 1, "tid": 0,
                                 "args": {}}) + "\n")
        with pytest.raises(ValueError, match="cat"):
            validate_jsonl(path)

    def test_validate_accepts_recorded_round_events(self, tmp_path):
        # Traces recorded while rounds were traced dispatch calls carry
        # ``round`` spans; nothing emits them now, but they still load.
        path = str(tmp_path / "old.jsonl")
        recs = [{"type": "meta", "version": 1, "backend": "threaded",
                 "workers": 2},
                {"type": "span", "name": "order:adg", "cat": "phase",
                 "t0": 0.0, "t1": 0.5, "tid": 0, "args": {"self_s": 0.4}},
                {"type": "span", "name": "order:adg#round1", "cat": "round",
                 "t0": 0.1, "t1": 0.2, "tid": 0,
                 "args": {"round": 1, "phase": "order:adg", "items": 400}}]
        with open(path, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in recs)
        assert "round" not in CATEGORIES
        assert validate_jsonl(path) == validate_trace_file(path) == 3

    def test_validate_rejects_bad_chrome(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"traceEvents": []}, fh)
        with pytest.raises(ValueError, match="non-empty"):
            validate_chrome(path)
        with open(path, "w") as fh:
            json.dump({"traceEvents": [{"name": "e", "ph": "Z",
                                        "pid": 1}]}, fh)
        with pytest.raises(ValueError, match="phase"):
            validate_chrome(path)


class TestEngineSeries:
    """Engines emit the per-round series the paper reasons about."""

    def _graph(self):
        return gnm_random(n=200, m=800, seed=7)

    def test_jp_colored_sums_to_n(self):
        g = self._graph()
        t = Tracer()
        res = color("JP-ADG", g, trace=t, seed=0)
        assert t.metrics.get("jp.colored").total == g.n
        # The frontier gauge is sampled every wave.
        assert len(t.metrics.series("jp.frontier")) == res.rounds
        assert res.trace_summary is not None
        assert res.trace_summary["metrics"]["jp.colored"]["total"] == g.n

    def test_adg_batch_sums_to_n(self):
        g = self._graph()
        t = Tracer()
        color("JP-ADG", g, trace=t, seed=0)
        assert t.metrics.get("adg.batch").total == g.n
        assert t.metrics.get("adg.remaining").last == 0

    def test_dec_adg_series(self):
        g = self._graph()
        t = Tracer()
        color("DEC-ADG", g, trace=t, seed=0)
        assert t.metrics.get("dec.colored").total == g.n
        assert "dec.palette" in t.metrics

    def test_dec_adg_itr_series(self):
        g = self._graph()
        t = Tracer()
        color("DEC-ADG-ITR", g, trace=t, seed=0)
        assert t.metrics.get("dec-itr.colored").total == g.n
        assert "dec-itr.conflicts" in t.metrics

    def test_untraced_run_has_no_summary(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        res = color("JP-R", self._graph(), seed=0)
        assert res.trace_summary is None

    def test_phase_spans_cover_both_stages(self):
        # One shared tracer sees the ordering (child context) and the
        # coloring phases of a single JP-ADG run.
        t = Tracer()
        color("JP-ADG", self._graph(), trace=t, seed=0)
        walls = t.phase_self_walls()
        assert any(k.startswith("order:") for k in walls)
        assert any(k.startswith("jp:") for k in walls)


class TestProfileBreakdowns:
    def _run(self):
        g = grid_2d(12, 12)
        t = Tracer()
        res = color("JP-ADG", g, trace=t, seed=0)
        return res, t

    def test_phase_breakdown_rows(self):
        res, t = self._run()
        rows = phase_breakdown(res, t)
        assert {"stage", "phase", "wall_s", "work", "depth",
                "rounds"} <= set(rows[0])
        stages = {r["stage"] for r in rows}
        assert stages == {"reorder", "coloring"}
        assert all(r["wall_s"] >= 0 for r in rows)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_profile_rows_hold_every_memory_touch(self, name):
        """Memory books under the open phase: every touch of a run lands
        in a profile row, the coloring phase's and the ordering's."""
        res = color(name, kronecker(scale=8, edge_factor=8, seed=1), seed=0)
        rows = phase_breakdown(res)
        books = [m for m in (res.mem, res.reorder_mem) if m is not None]
        assert sum(r["mem_seq"] + r["mem_rand"] for r in rows) \
            == sum(m.sequential + m.random for m in books) > 0

    def test_round_breakdown_pivots(self):
        res, t = self._run()
        rows = round_breakdown(t)
        assert rows, "traced run must yield round rows"
        cols = set(rows[0]) - {"round"}
        assert "jp.colored" in cols and "adg.batch" in cols
        total = sum(r["jp.colored"] for r in rows
                    if isinstance(r["jp.colored"], (int, float)))
        assert total == 144

    def test_breakdowns_null_tracer(self):
        assert round_breakdown(NULL_TRACER) == []


class TestHarnessTracing:
    def test_run_suite_per_run_tracers(self):
        graphs = {"g": gnm_random(n=120, m=400, seed=1)}
        suite = run_suite(graphs, algorithms=["JP-ADG", "DEC-ADG"],
                          trace=True)
        for rec in suite.records:
            assert rec.trace_summary is not None
            assert rec.trace_summary["events"] > 0

    def test_run_suite_shared_tracer(self, tmp_path):
        graphs = {"g": grid_2d(8, 8)}
        shared = Tracer(path=str(tmp_path / "suite.jsonl"))
        run_suite(graphs, algorithms=["JP-R"], trace=shared)
        path = shared.flush()
        assert validate_jsonl(path) > 0

    def test_run_suite_untraced_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        suite = run_suite({"g": grid_2d(6, 6)}, algorithms=["JP-R"])
        assert suite.records[0].trace_summary is None
