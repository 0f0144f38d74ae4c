"""Tests for the workload runner utility."""

import pytest

from repro.bench import WorkloadReport, run_workload
from repro.core import GPLEngine
from repro.errors import ExecutionError
from repro.kbe import KBEEngine
from repro.tpch import q8, q14


@pytest.fixture(scope="module")
def report(small_db, amd):
    engines = [KBEEngine(small_db, amd), GPLEngine(small_db, amd)]
    return run_workload(engines, {"Q14": q14(), "Q8": q8()})


class TestRunWorkload:
    def test_shape(self, report):
        assert report.engines() == ["KBE", "GPL"]
        assert report.queries() == ["Q14", "Q8"]
        assert len(report.outcomes) == 4

    def test_outcome_lookup(self, report):
        outcome = report.outcome("Q14", "GPL")
        assert outcome.elapsed_ms > 0
        assert outcome.num_rows == 1
        with pytest.raises(ExecutionError):
            report.outcome("Q14", "DuckDB")

    def test_totals_and_speedup(self, report):
        kbe_total = report.total_ms("KBE")
        gpl_total = report.total_ms("GPL")
        assert kbe_total == pytest.approx(
            report.outcome("Q14", "KBE").elapsed_ms
            + report.outcome("Q8", "KBE").elapsed_ms
        )
        assert report.baseline_engine == "KBE"
        assert report.speedup("GPL") == pytest.approx(kbe_total / gpl_total)
        assert report.speedup("GPL") > 1.0

    def test_to_text(self, report):
        text = report.to_text()
        assert "TOTAL" in text
        assert "speedup over KBE" in text
        assert "Q14" in text and "Q8" in text

    def test_requires_engines(self):
        with pytest.raises(ExecutionError):
            run_workload([], {})

    def test_speedup_without_baseline(self):
        bare = WorkloadReport(device="x")
        with pytest.raises(ExecutionError):
            bare.speedup("GPL")

    def test_verification_catches_divergence(self, small_db, amd):
        class LyingEngine(GPLEngine):
            name = "Liar"

            def execute(self, spec):
                result = super().execute(spec)
                # Captured outputs are read-only: corrupt a copy.
                result.batch = {
                    name: array.copy() for name, array in result.batch.items()
                }
                for array in result.batch.values():
                    if array.dtype.kind == "f" and array.size:
                        array[0] += 1e6  # corrupt the answer
                return result

        engines = [KBEEngine(small_db, amd), LyingEngine(small_db, amd)]
        with pytest.raises(ExecutionError, match="disagrees"):
            run_workload(engines, {"Q14": q14()})


class TestCLIWorkload:
    def test_tpch_suite(self, capsys):
        from repro.__main__ import main

        assert main(["workload", "tpch", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "speedup over KBE" in out

    def test_ssb_suite(self, capsys):
        from repro.__main__ import main

        assert main(["workload", "ssb", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "Q4.3" in out
