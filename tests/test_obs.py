"""Tests for the observability layer (repro.obs): span tracer, metrics
registry, Chrome trace export, and pool-mode span stitching."""

import json

import pytest

from repro.experiments import runner
from repro.obs import metrics, tracing


@pytest.fixture(autouse=True)
def _clean_obs_state(monkeypatch):
    """Every test starts disabled with empty tracer/registry state."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    tracing.set_enabled(None)
    tracing.reset()
    metrics.reset()
    yield
    tracing.set_enabled(None)
    tracing.reset()
    metrics.reset()


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_by_default_records_nothing(self):
        with tracing.span("x", a=1):
            pass
        assert tracing.completed_spans() == []

    def test_disabled_span_is_shared_noop_singleton(self):
        assert tracing.span("a") is tracing.span("b")

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert tracing.enabled()
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert not tracing.enabled()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        tracing.disable()
        assert not tracing.enabled()

    def test_records_name_duration_attrs(self):
        tracing.enable()
        with tracing.span("work", kind="test") as sp:
            sp.set(extra=3)
        (rec,) = tracing.completed_spans()
        assert rec["name"] == "work"
        assert rec["attrs"] == {"kind": "test", "extra": 3}
        assert rec["dur_ns"] >= 0
        assert rec["pid"] > 0

    def test_nesting_links_parent_child(self):
        tracing.enable()
        with tracing.span("outer"):
            with tracing.span("inner"):
                pass
        inner, outer = tracing.completed_spans()
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] == 0

    def test_exception_marks_error_and_propagates(self):
        tracing.enable()
        with pytest.raises(ValueError):
            with tracing.span("boom"):
                raise ValueError("no")
        (rec,) = tracing.completed_spans()
        assert rec["attrs"]["error"] == "ValueError"

    def test_traced_decorator(self):
        @tracing.traced("decorated.fn")
        def f(x):
            return x + 1

        assert f.__obs_traced__ is True
        assert f(1) == 2                       # disabled: plain call
        assert tracing.completed_spans() == []
        tracing.enable()
        assert f(2) == 3
        (rec,) = tracing.completed_spans()
        assert rec["name"] == "decorated.fn"

    def test_drain_and_ingest_round_trip(self):
        tracing.enable()
        with tracing.span("a"):
            pass
        shipped = tracing.drain()
        assert tracing.completed_spans() == []
        tracing.ingest(shipped)
        assert [s["name"] for s in tracing.completed_spans()] == ["a"]

    def test_render_tree_nests(self):
        tracing.enable()
        with tracing.span("outer"):
            with tracing.span("inner"):
                pass
        tree = tracing.render_tree()
        assert "outer" in tree and "  inner" in tree

    def test_slowest_table_sorted(self):
        tracing.enable()
        for name in ("a", "b", "c"):
            with tracing.span(name):
                pass
        rows = tracing.slowest_table(2)
        assert len(rows) == 2
        assert rows[0]["ms"] >= rows[1]["ms"]


# --------------------------------------------------------------------- #
# Chrome trace export
# --------------------------------------------------------------------- #
class TestChromeTrace:
    def _spans(self):
        tracing.enable()
        with tracing.span("outer", quick=True):
            with tracing.span("inner"):
                pass
        return tracing.completed_spans()

    def test_export_is_loadable_and_valid(self, tmp_path):
        self._spans()
        path = tmp_path / "trace.json"
        tracing.export_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert tracing.validate_chrome_trace(doc) == []

    def test_events_cover_spans_and_metadata(self):
        spans = self._spans()
        events = tracing.chrome_trace_events(spans)
        x = [e for e in events if e["ph"] == "X"]
        m = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in x} == {"outer", "inner"}
        assert any(e["name"] == "process_name" for e in m)
        assert any(e["name"] == "thread_name" for e in m)
        for e in x:
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_validator_flags_broken_docs(self):
        assert tracing.validate_chrome_trace([]) != []
        assert tracing.validate_chrome_trace({"traceEvents": 3}) != []
        bad_event = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1,
                                      "tid": 1, "ts": "zero", "dur": -1}]}
        problems = tracing.validate_chrome_trace(bad_event)
        assert any("ts" in p for p in problems)
        assert any("dur" in p for p in problems)
        no_meta_name = {"traceEvents": [{"ph": "M", "name": "process_name",
                                         "pid": 1, "tid": 0, "args": {}}]}
        assert tracing.validate_chrome_trace(no_meta_name) != []


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_disabled_registry_stays_empty(self):
        metrics.counter_add("memo.stats.hits", 3)
        metrics.gauge_set("g", 1.0)
        metrics.observe("h", 2.0)
        assert metrics.counters() == {}
        assert metrics.gauges() == {}
        assert metrics.histograms() == {}

    def test_counters_gauges_histograms(self):
        tracing.enable()
        metrics.counter_add("c", 2)
        metrics.counter_add("c", 3)
        metrics.gauge_set("g", 1.0)
        metrics.gauge_set("g", 2.0)
        for v in (1.0, 3.0):
            metrics.observe("h", v)
        assert metrics.counters()["c"] == 5
        assert metrics.gauges()["g"] == 2.0
        h = metrics.histograms()["h"]
        assert h["count"] == 2 and h["sum"] == 4.0
        assert h["min"] == 1.0 and h["max"] == 3.0

    def test_drain_merge_round_trip(self):
        tracing.enable()
        metrics.counter_add("c", 2)
        metrics.observe("h", 5.0)
        payload = metrics.drain()
        assert metrics.counters() == {}
        metrics.counter_add("c", 1)
        metrics.merge(payload)
        assert metrics.counters()["c"] == 3
        assert metrics.histograms()["h"]["count"] == 1
        metrics.merge(None)  # tolerated

    def test_memo_and_cache_tables_always_complete(self):
        snap = metrics.snapshot()
        assert set(snap["memo"]) >= {"stats", "latency", "trace",
                                     "suite", "problem", "format"}
        assert set(snap["cache"]) == {"l1", "l2"}
        for row in snap["cache"].values():
            assert row["hit_rate"] == 0.0

    def test_hit_rates_derive_from_counters(self):
        tracing.enable()
        metrics.counter_add("memo.stats.hits", 3)
        metrics.counter_add("memo.stats.misses", 1)
        metrics.counter_add("cache.l2.sector_accesses", 8)
        metrics.counter_add("cache.l2.sector_hits", 6)
        snap = metrics.snapshot()
        assert snap["memo"]["stats"]["hit_rate"] == 0.75
        assert snap["cache"]["l2"]["hit_rate"] == 0.75

    def test_write_json(self, tmp_path):
        tracing.enable()
        metrics.counter_add("memo.stats.hits", 1)
        path = tmp_path / "metrics.json"
        metrics.write_json(path)
        doc = json.loads(path.read_text())
        assert doc["memo"]["stats"]["hits"] == 1


# --------------------------------------------------------------------- #
# runner integration + pool-mode stitching (the --jobs 2 satellite)
# --------------------------------------------------------------------- #
_SWEEP = ["fig5", "table1", "table2"]  # fast experiments only


def _memo_lines(text):
    # keep only the schedule-invariant part ("memo: NN% hit, s/l") —
    # the wall-clock before it legitimately differs between schedules
    return sorted(ln[ln.index("memo:"):].rstrip(") \n")
                  for ln in text.splitlines() if "memo:" in ln)


class TestRunnerIntegration:
    def test_serial_and_pool_memo_lines_identical(self, capsys):
        runner.run_all(only=_SWEEP)
        serial = _memo_lines(capsys.readouterr().out)
        runner.run_all(only=_SWEEP, jobs=2)
        pooled = _memo_lines(capsys.readouterr().out)
        assert serial == pooled
        assert len(serial) == len(_SWEEP)

    def test_sharded_memo_lines_match_serial(self, capsys, tmp_path):
        # the union of the two shards' scoped hit-rate lines must equal
        # the serial schedule's (wholesale experiments run exactly once
        # somewhere, and the scoped counters don't depend on siblings)
        runner.run_all(only=_SWEEP)
        serial = _memo_lines(capsys.readouterr().out)
        sharded = ""
        for i in range(2):
            runner.run_all(only=_SWEEP, out_dir=tmp_path / f"shard{i}",
                           shard=f"{i}/2")
            sharded += capsys.readouterr().out
        assert _memo_lines(sharded) == serial

    def test_pool_stitching_every_span_exactly_once(self, capsys, tmp_path):
        tracing.enable()
        runner.run_all(only=_SWEEP, jobs=2, out_dir=tmp_path)
        capsys.readouterr()
        spans = tracing.completed_spans()
        exp_spans = [s for s in spans if s["name"].startswith("experiment.")]
        names = sorted(s["name"] for s in exp_spans)
        assert names == sorted(f"experiment.{n}" for n in _SWEEP)

        parent_pid = next(s["pid"] for s in spans if s["name"] == "run_all")
        for s in exp_spans:
            # a worker span keeps the pid/tid of the process that
            # recorded it (fork start method: pids differ from parent)
            assert s["pid"] > 0 and s["tid"] > 0
        events = tracing.chrome_trace_events(spans)
        pids = {s["pid"] for s in spans}
        meta_pids = {e["pid"] for e in events
                     if e["ph"] == "M" and e["name"] == "process_name"}
        assert meta_pids == pids
        assert parent_pid in pids
        doc = {"traceEvents": events, "displayTimeUnit": "ms"}
        assert tracing.validate_chrome_trace(doc) == []

    def test_pool_workers_ship_only_their_own_obs_state(self, capsys):
        """Forked workers start with copies of the caller's registry and
        finished spans; none of that may travel home a second time."""
        tracing.enable()
        metrics.counter_add("test.before_sweep", 5)
        with tracing.span("test.before_sweep"):
            pass
        only = ["fig5", "table1", "table2", "table3"]
        runner.run_all(only=only, jobs=2)
        capsys.readouterr()
        counters = metrics.counters()
        names = [s["name"] for s in tracing.completed_spans()]
        assert (counters["pool.tasks"], counters["test.before_sweep"],
                names.count("test.before_sweep")) == (len(only), 5, 1)

    def test_rejected_command_writes_no_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert runner.main(["--only", "nope", "--trace-out", str(trace)]) == 2
        assert "trace written" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("only,code", [("nope", 2), ("table1", 0)])
    @pytest.mark.parametrize("preset", [None, False])
    def test_trace_out_restores_the_callers_tracing(self, capsys, tmp_path, only, code,
                                                    preset):
        tracing.set_enabled(preset)
        before = tracing.enabled()
        assert runner.main(["--only", only, "--trace-out", str(tmp_path / "t.json")]) == code
        capsys.readouterr()
        assert tracing.enabled() == before
        assert tracing.set_enabled(None) is preset

    def test_obs_run_writes_metrics_and_manifest(self, capsys, tmp_path):
        tracing.enable()
        runner.run_all(only=["table1"], out_dir=tmp_path)
        capsys.readouterr()
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert "memo" in doc and "cache" in doc
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "__metrics__" in manifest
        assert "table1" in manifest

    def test_metrics_manifest_entry_does_not_break_resume(self, capsys, tmp_path):
        tracing.enable()
        runner.run_all(only=["table1"], out_dir=tmp_path)
        capsys.readouterr()
        runner.run_all(only=["table1"], out_dir=tmp_path, resume=True)
        out = capsys.readouterr().out
        assert "skipped" in out

    def test_disabled_run_writes_no_metrics(self, capsys, tmp_path):
        runner.run_all(only=["table1"], out_dir=tmp_path)
        capsys.readouterr()
        assert not (tmp_path / "metrics.json").exists()

    def test_obs_cli_restores_the_callers_tracer_state(self, capsys, monkeypatch):
        from repro.cli import main as cli_main
        assert cli_main(["obs", "--smoke"]) == 0
        assert not tracing.enabled()
        # a caller that forced tracing off under REPRO_TRACE=1 stays off
        monkeypatch.setenv("REPRO_TRACE", "1")
        tracing.disable()
        assert cli_main(["obs", "--smoke"]) == 0
        capsys.readouterr()
        assert not tracing.enabled()


# --------------------------------------------------------------------- #
# chrome-trace export edge cases + deterministic table ordering
# --------------------------------------------------------------------- #
def _span(name, sid, ts_ns, dur_ns, pid=1, tid=1, parent=0, attrs=None):
    return {"name": name, "id": sid, "parent": parent, "pid": pid,
            "tid": tid, "ts_ns": ts_ns, "dur_ns": dur_ns,
            "attrs": attrs or {}}


class TestChromeTraceEdgeCases:
    def test_empty_drain_exports_valid_empty_doc(self, tmp_path):
        tracing.enable()
        assert tracing.drain() == []
        path = tmp_path / "empty.json"
        tracing.export_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"] == []
        assert tracing.validate_chrome_trace(doc) == []

    def test_open_span_at_export_time_is_not_exported(self):
        tracing.enable()
        with tracing.span("outer"):
            with tracing.span("inner"):
                pass
            # "outer" is still open: only the finished child may appear
            events = tracing.chrome_trace_events()
            names = [e["name"] for e in events if e["ph"] == "X"]
            assert names == ["inner"]
        # once closed it exports normally (start-time order: outer first)
        names = [e["name"] for e in tracing.chrome_trace_events()
                 if e["ph"] == "X"]
        assert names == ["outer", "inner"]

    def test_zero_span_worker_stitches_cleanly(self, tmp_path):
        """A worker that contributed no spans must not add lanes or
        break the cross-pid export."""
        tracing.enable()
        with tracing.span("parent.work"):
            pass
        tracing.ingest([])  # the zero-span worker's drained payload
        worker = [_span("worker.task", sid=1, ts_ns=5, dur_ns=2, pid=777)]
        tracing.ingest(worker)
        events = tracing.chrome_trace_events()
        pids = {e["pid"] for e in events if e["ph"] == "M"
                and e["name"] == "process_name"}
        assert 777 in pids and len(pids) == 2
        doc = {"traceEvents": events, "displayTimeUnit": "ms"}
        assert tracing.validate_chrome_trace(doc) == []

    def test_event_order_deterministic_across_tied_timestamps(self):
        spans = [
            _span("b", sid=2, ts_ns=100, dur_ns=10, pid=2),
            _span("a", sid=1, ts_ns=100, dur_ns=10, pid=1),
            _span("c", sid=3, ts_ns=100, dur_ns=10, pid=1, tid=9),
        ]
        import random
        for _ in range(5):
            random.shuffle(spans)
            names = [e["name"] for e in tracing.chrome_trace_events(spans)
                     if e["ph"] == "X"]
            assert names == ["a", "c", "b"]  # (ts, pid, tid, id) order

    def test_slowest_table_ties_break_deterministically(self):
        spans = [
            _span("zeta", sid=3, ts_ns=0, dur_ns=50),
            _span("alpha", sid=1, ts_ns=0, dur_ns=50),
            _span("mid", sid=2, ts_ns=0, dur_ns=70),
        ]
        import random
        for _ in range(5):
            random.shuffle(spans)
            rows = tracing.slowest_table(3, spans)
            assert [r["Span"] for r in rows] == ["mid", "alpha", "zeta"]


class TestHistogramBuckets:
    def test_unbucketed_histogram_has_no_buckets_key(self):
        tracing.enable()
        metrics.observe("plain", 1.0)
        assert "buckets" not in metrics.histograms()["plain"]
