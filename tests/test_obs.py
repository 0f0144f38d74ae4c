"""Tests for repro.obs: tracing, metrics, drift, and the obs CLI.

The load-bearing properties: traces are deterministic (two identical
runs serialize byte-identically), one serve drain produces spans from
all five layers, the metrics registry enforces the catalogue, and the
drift recorder reproduces Fig 11's predicted-vs-measured numbers from
serving telemetry alone.
"""

import json

import pytest

from repro.core import GPLEngine
from repro.gpu import AMD_A10
from repro.model import (
    ConfigurationSearch,
    calibrate_channels,
    clear_calibration_cache,
    clear_search_cache,
    plan_cost_inputs,
)
from repro.obs import (
    CATEGORY_TRACKS,
    DriftRecord,
    DriftRecorder,
    MetricsRegistry,
    Tracer,
    add_event,
    current_tracer,
    load_trace,
    maybe_span,
    metric_catalogue,
    summarize_trace,
    use_tracer,
)
from repro.serve import QueryService
from repro.tpch import q5


def _clear_model_caches():
    clear_search_cache()
    clear_calibration_cache()


# ---------------------------------------------------------------------------
# tracer core
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_clock(self):
        tracer = Tracer()
        with tracer.span("outer", category="serve", query="Q5") as outer:
            tracer.advance(10.0)
            with tracer.span("inner", category="simulator") as inner:
                tracer.advance(5.0)
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert outer.start == 0.0 and outer.end == 15.0
        assert inner.start == 10.0 and inner.end == 15.0
        assert outer.attrs == {"query": "Q5"}
        assert tracer.num_spans() == 2
        assert tracer.categories() == ["serve", "simulator"]

    def test_zero_duration_span_ticks_one_cycle(self):
        tracer = Tracer()
        with tracer.span("noop", category="plan") as span:
            pass
        assert span.duration == 1.0
        assert tracer.clock == 1.0

    def test_clock_never_moves_backward(self):
        tracer = Tracer()
        tracer.advance(5.0)
        tracer.advance(-3.0)
        assert tracer.clock == 5.0

    def test_events_attach_to_open_span(self):
        tracer = Tracer()
        with tracer.span("s", category="resilience") as span:
            tracer.advance(2.0)
            tracer.event("retry", engine="GPL")
        assert len(span.events) == 1
        assert span.events[0].name == "retry"
        assert span.events[0].ts == 2.0
        assert span.events[0].attrs == {"engine": "GPL"}

    def test_add_span_explicit_timestamps(self):
        tracer = Tracer()
        with tracer.span("seg", category="simulator"):
            child = tracer.add_span(
                "stage", category="simulator", start=3.0, end=1.0
            )
        assert child.start == 3.0
        assert child.end == 3.0  # end clamped to start

    def test_ambient_install_and_noop(self):
        assert current_tracer() is None
        with maybe_span("x", category="plan") as span:
            assert span is None
        add_event("ignored")  # must not raise without a tracer
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with maybe_span("x", category="plan") as span:
                assert span is not None
        assert current_tracer() is None
        assert tracer.num_spans() == 1


class TestPerfettoExport:
    def make_tracer(self):
        tracer = Tracer()
        with tracer.span("drain", category="serve"):
            tracer.advance(4.0)
            tracer.event("mark", detail=1)
            with tracer.span("seg", category="simulator"):
                tracer.advance(2.0)
        return tracer

    def test_schema(self):
        payload = self.make_tracer().to_perfetto()
        events = payload["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {m["args"]["name"] for m in metadata} == set(CATEGORY_TRACKS)
        assert len(spans) == 2 and len(instants) == 1
        for span in spans:
            assert {"args", "cat", "dur", "name", "ph", "pid", "tid", "ts"} <= (
                set(span)
            )
            assert span["tid"] == CATEGORY_TRACKS[span["cat"]]
        assert instants[0]["s"] == "t"

    def test_byte_identical_serialization(self):
        assert self.make_tracer().to_json() == self.make_tracer().to_json()

    def test_write_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.json")
        tracer = self.make_tracer()
        tracer.write_json(path)
        payload = load_trace(path)
        assert payload == tracer.to_perfetto()

    def test_load_trace_rejects_non_trace(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ValueError):
            load_trace(str(path))

    def test_summarize(self):
        payload = self.make_tracer().to_perfetto()
        text = summarize_trace(payload, top=1)
        assert "2 spans, 1 events" in text
        assert "serve" in text and "simulator" in text
        filtered = summarize_trace(payload, category="simulator")
        assert "seg" in filtered and "drain" not in filtered
        assert "no spans" in summarize_trace(payload, category="plan")


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_catalogue_is_registry_surface(self):
        registry = MetricsRegistry()
        assert registry.names() == sorted(
            spec.name for spec in metric_catalogue()
        )

    def test_counter_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("serve_queries_total")
        counter.inc(status="ok")
        counter.inc(2, status="ok")
        counter.inc(status="failed")
        assert counter.value(status="ok") == 3.0
        assert counter.value(status="failed") == 1.0

    def test_label_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("serve_queries_total").inc()  # missing label
        with pytest.raises(ValueError):
            registry.counter("serve_rounds_total").inc(status="ok")  # extra
        with pytest.raises(ValueError):
            registry.counter("serve_queries_total").inc(-1, status="ok")

    def test_typed_lookup(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.counter("not_a_metric")
        with pytest.raises(TypeError):
            registry.counter("serve_wait_ms")  # histogram, not counter
        with pytest.raises(TypeError):
            registry.histogram("serve_rounds_total")

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("model_drift_relative_error")
        for value in (0.005, 0.05, 0.05, 5.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(5.105)
        cumulative = dict(snapshot["buckets"])
        assert cumulative[0.01] == 1
        assert cumulative[0.05] == 3
        assert cumulative[2.0] == 3
        assert cumulative[float("inf")] == 4

    def test_json_export_omits_untouched(self):
        registry = MetricsRegistry()
        registry.counter("serve_rounds_total").inc()
        registry.histogram("serve_wait_ms").observe(1.5)
        out = registry.to_json()
        assert set(out) == {"serve_rounds_total", "serve_wait_ms"}
        assert out["serve_rounds_total"]["series"] == [
            {"labels": {}, "value": 1.0}
        ]
        assert out["serve_wait_ms"]["series"][0]["count"] == 1

    def test_prometheus_export(self):
        registry = MetricsRegistry()
        registry.counter("serve_queries_total").inc(status="ok")
        registry.histogram("serve_wait_ms").observe(0.3)
        text = registry.to_prometheus()
        assert "# TYPE serve_queries_total counter" in text
        assert 'serve_queries_total{status="ok"} 1' in text
        assert "# TYPE serve_wait_ms histogram" in text
        assert 'serve_wait_ms_bucket{le="0.5"} 1' in text
        assert 'serve_wait_ms_bucket{le="+Inf"} 1' in text
        assert "serve_wait_ms_count 1" in text


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


class TestDrift:
    def test_record_math(self):
        under = DriftRecord("Q5", "amd", 1 << 20, 80.0, 100.0)
        assert under.relative_error == pytest.approx(0.2)
        assert under.underestimated and under.direction == "under"
        over = DriftRecord("Q5", "amd", 1 << 20, 120.0, 100.0)
        assert over.relative_error == pytest.approx(0.2)
        assert not over.underestimated and over.direction == "over"
        exact = DriftRecord("Q5", "amd", 1 << 20, 100.0, 100.0)
        assert exact.relative_error == 0.0 and exact.direction == "exact"
        degenerate = DriftRecord("Q5", "amd", 1 << 20, 10.0, 0.0)
        assert degenerate.relative_error == 0.0

    def test_summaries(self):
        recorder = DriftRecorder()
        recorder.record("Q5", "amd", 1 << 20, 80.0, 100.0)
        recorder.record("Q5", "amd", 1 << 20, 110.0, 100.0)
        recorder.record("Q7", "amd", 1 << 20, 50.0, 100.0)
        assert len(recorder) == 3
        per_query = recorder.per_query()
        assert list(per_query) == ["Q5", "Q7"]
        assert per_query["Q5"]["observations"] == 2
        assert per_query["Q5"]["mean_relative_error"] == pytest.approx(0.15)
        assert per_query["Q5"]["underestimated_share"] == pytest.approx(0.5)
        overall = recorder.overall()
        assert overall["observations"] == 3
        assert overall["max_relative_error"] == pytest.approx(0.5)
        assert overall["underestimated_share"] == pytest.approx(2 / 3)

    def test_empty_overall(self):
        assert DriftRecorder().overall() == {
            "observations": 0,
            "mean_relative_error": 0.0,
            "max_relative_error": 0.0,
            "underestimated_share": 0.0,
        }

    def test_running_roll_ups_equal_a_recomputation(self):
        """``per_query()`` / ``overall()`` are running totals; they must
        equal, exactly, a left-to-right recomputation from ``records``.
        A left-to-right loop, not ``sum()``: on Python >= 3.12 builtin
        ``sum()`` of floats compensates, so it may differ from the running
        sum in the last ulp there."""

        def roll_up(records):
            error_sum, max_error, under = 0.0, None, 0
            for observation in records:
                error = observation.relative_error
                error_sum += error
                if max_error is None or error > max_error:
                    max_error = error
                under += observation.underestimated
            return {
                "observations": len(records),
                "mean_relative_error": error_sum / len(records),
                "max_relative_error": max_error,
                "underestimated_share": under / len(records),
            }

        recorder = DriftRecorder()
        observations = [
            ("Q9", 0.1, 3.0), ("Q5", 80.0, 100.0), ("Q14", 10.0, 0.0),
            ("Q5", 110.3, 99.7), ("Q9", 7.0, 3.0), ("Q14", 0.7, 0.3),
            ("Q5", 1e9, 1.0 / 3.0), ("Q9", 2.9, 3.0), ("Q5", 1.0, 1.0),
        ]
        for step, (query, predicted, measured) in enumerate(observations):
            recorder.record(query, "amd", 1 << 20, predicted, measured)
            records = recorder.records
            assert recorder.overall() == roll_up(records)
            names = sorted({observation.query for observation in records})
            assert recorder.per_query() == {
                name: roll_up([o for o in records if o.query == name])
                for name in names
            }
            assert list(recorder.per_query()) == names
        # measured_cycles = 0 counts as an observation with error 0.0
        assert recorder.records[2].relative_error == 0.0
        assert recorder.per_query()["Q14"]["observations"] == 2

    def test_feeds_registry(self):
        registry = MetricsRegistry()
        recorder = DriftRecorder(registry=registry)
        recorder.record("Q5", "amd", 1 << 20, 80.0, 100.0)
        recorder.record("Q5", "amd", 1 << 20, 100.0, 100.0)
        counter = registry.counter("model_drift_observations_total")
        assert counter.value(direction="under") == 1.0
        assert counter.value(direction="exact") == 1.0
        assert registry.histogram(
            "model_drift_relative_error"
        ).snapshot()["count"] == 2


# ---------------------------------------------------------------------------
# end-to-end: one serve drain, all five layers, byte-identical
# ---------------------------------------------------------------------------


class TestServeTracing:
    def drain(self, db):
        _clear_model_caches()
        tracer = Tracer()
        service = QueryService(db, AMD_A10, max_concurrent=2)
        with use_tracer(tracer):
            service.run([q5(), q5()])
        return tracer

    def test_all_five_layers_and_determinism(self, tiny_db):
        first = self.drain(tiny_db)
        assert first.categories() == [
            "plan",
            "resilience",
            "search",
            "serve",
            "simulator",
        ]
        names = {span.name for span in first.walk()}
        assert {
            "serve.drain",
            "serve.plan",
            "serve.round",
            "serve.query",
            "plan.prepare",
            "search.segment",
            "resilience.execute",
            "sim.segment",
            "sim.stage",
        } <= names
        second = self.drain(tiny_db)
        assert first.to_json() == second.to_json()

    def test_report_carries_metrics_and_drift(self, tiny_db):
        _clear_model_caches()
        service = QueryService(tiny_db, AMD_A10, max_concurrent=2)
        report = service.run([q5(), q5()])
        assert report.metrics["serve_queries_total"]["series"] == [
            {"labels": {"status": "ok"}, "value": 2.0}
        ]
        assert report.metrics["serve_drains_total"]["series"][0]["value"] == 1.0
        assert report.drift["overall"]["observations"] == 2
        assert "cost-model drift" in report.to_text()
        assert registry_names_subset(report.metrics)

    def test_fig11_parity_from_serve_telemetry(self, tiny_db):
        """A tuned serve drain reproduces the Fig 11 two-pass numbers."""
        _clear_model_caches()
        service = QueryService(
            tiny_db, AMD_A10, max_concurrent=1, resilient=False, tuned=True
        )
        service.run([q5()])
        observation = service.drift.records[0]

        # The dedicated-experiment computation (benchmarks/test_fig11):
        # model-optimal configs, predicted cycles, one measured run.
        probe = GPLEngine(tiny_db, AMD_A10)
        plan = probe.prepare(q5())
        segments = plan_cost_inputs(plan, tiny_db)
        search = ConfigurationSearch(AMD_A10, calibrate_channels(AMD_A10))
        configs, predicted = search.optimize_plan(segments)
        measured = (
            GPLEngine(tiny_db, AMD_A10, segment_configs=configs)
            .execute(q5())
            .counters.elapsed_cycles
        )

        assert observation.predicted_cycles == pytest.approx(predicted)
        assert observation.measured_cycles == pytest.approx(measured)
        assert observation.underestimated == (predicted < measured)


def registry_names_subset(metrics_json):
    """Every exported metric name must come from the catalogue."""
    return set(metrics_json) <= {spec.name for spec in metric_catalogue()}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def serve_args(self, out_path):
        return [
            "serve",
            "--queries",
            "Q5",
            "--repeat",
            "1",
            "--scale",
            "0.002",
            "--max-concurrent",
            "1",
            "--trace-out",
            out_path,
        ]

    def test_run_trace_out(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "run.json")
        assert main(
            ["run", "Q14", "--scale", "0.002", "--trace-out", path]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "spans" in out
        payload = load_trace(path)
        categories = {
            e.get("cat") for e in payload["traceEvents"] if e.get("ph") == "X"
        }
        assert {"plan", "simulator"} <= categories

    def test_serve_trace_out_byte_identical(self, tmp_path, capsys):
        from repro.__main__ import main

        first = str(tmp_path / "a.json")
        second = str(tmp_path / "b.json")
        _clear_model_caches()
        assert main(self.serve_args(first)) == 0
        _clear_model_caches()
        assert main(self.serve_args(second)) == 0
        capsys.readouterr()
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
        categories = {
            e.get("cat")
            for e in load_trace(first)["traceEvents"]
            if e.get("ph") == "X"
        }
        assert {"serve", "plan", "search", "resilience", "simulator"} <= (
            categories
        )

    def test_obs_summarizes(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "t.json")
        tracer = Tracer()
        with tracer.span("drain", category="serve"):
            tracer.advance(3.0)
        tracer.write_json(path)
        assert main(["obs", path]) == 0
        out = capsys.readouterr().out
        assert "1 spans" in out and "drain" in out

    def test_obs_missing_file_is_typed_error(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["obs", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err
