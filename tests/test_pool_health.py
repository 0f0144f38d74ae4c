"""Device failure domains: pool health, relocation, degraded serving.

The failure-domain contract on a multi-device pool: a shard whose whole
resilience chain fails — or whose device a ``device_down`` fault kills —
relocates onto the lowest-index healthy device and the merged answer
stays **byte-identical** to a healthy-pool run; repeated failures walk
the slot through the deterministic ``healthy -> suspect -> quarantined
-> probation`` lifecycle (cooldowns counted in completed queries); a
degraded pool re-partitions over the active slots and keeps answering
with identical checksums.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import DeviceLostError, SchemaError
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.gpu import device_by_name
from repro.plans import AggSpec, QuerySpec, TableRef
from repro.relational import (
    ColumnDef,
    Database,
    DataType,
    Table,
    TableSchema,
    col,
)
from repro.serve import QueryService
from repro.shard import POOL_HEALTH_STATES, DevicePool, PoolHealth, ShardedExecutor
from repro.tpch import generate_database, query_by_name

SCALE = 0.01
QUERIES = ("Q5", "Q9", "Q14")


def _digest(result) -> str:
    rows = sorted(
        tuple(round(float(value), 6) for value in row)
        for row in result.rows()
    )
    return hashlib.sha1(repr(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def db():
    return generate_database(scale=SCALE)


# ---------------------------------------------------------------------------
# the PoolHealth state machine
# ---------------------------------------------------------------------------


class TestPoolHealth:
    def test_lifecycle_healthy_to_quarantine_to_readmission(self):
        health = PoolHealth(2, threshold=2, cooldown=2, probe_budget=1)
        assert health.enabled
        assert health.states() == {"dev0": "healthy", "dev1": "healthy"}

        # one failure: suspect, still serving
        health.record_failure(1)
        assert health.state(1) == "suspect"
        assert health.available(1)
        assert health.active_indices() == [0, 1]

        # threshold reached: quarantined, out of the scatter
        health.record_failure(1)
        assert health.state(1) == "quarantined"
        assert not health.available(1)
        assert health.active_indices() == [0]
        assert health.quarantined_count() == 1
        assert health.quarantines == 1

        # cooldown is counted in completed queries
        health.on_query_complete()
        assert health.state(1) == "quarantined"
        health.on_query_complete()
        assert health.state(1) == "probation"
        assert health.available(1)
        assert health.probes == 1

        # a probation success readmits the slot
        health.record_success(1)
        assert health.state(1) == "healthy"
        assert health.readmissions == 1

    def test_probe_failure_requarantines(self):
        health = PoolHealth(2, threshold=1, cooldown=1, probe_budget=1)
        health.record_failure(0)
        assert health.state(0) == "quarantined"
        health.on_query_complete()
        assert health.state(0) == "probation"
        health.record_failure(0)  # probe budget exhausted
        assert health.state(0) == "quarantined"
        assert health.quarantines == 2

    def test_success_resets_consecutive_count(self):
        health = PoolHealth(1, threshold=2)
        health.record_failure(0)
        health.record_success(0)
        health.record_failure(0)
        assert health.state(0) == "suspect"  # never reached the threshold

    def test_all_quarantined_fails_open(self):
        health = PoolHealth(2, threshold=1)
        health.record_failure(0)
        health.record_failure(1)
        assert health.quarantined_count() == 2
        assert health.active_indices() == [0, 1]

    def test_threshold_zero_disables(self):
        health = PoolHealth(2, threshold=0)
        assert not health.enabled
        for _ in range(5):
            health.record_failure(1)
        health.on_query_complete()
        assert health.states() == {"dev0": "healthy", "dev1": "healthy"}
        assert health.quarantines == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolHealth(0)
        with pytest.raises(ValueError):
            PoolHealth(2, threshold=-1)
        with pytest.raises(ValueError):
            PoolHealth(2, cooldown=0)
        with pytest.raises(ValueError):
            PoolHealth(2, probe_budget=0)

    def test_witness_and_describe(self):
        health = PoolHealth(2, threshold=1)
        health.record_failure(1)
        counters = health.counters_dict()
        assert counters["quarantines"] == 1
        assert counters["states"]["dev1"] == "quarantined"
        assert health.describe() == ("dev1: quarantined",)
        assert set(health.states().values()) <= set(POOL_HEALTH_STATES)


# ---------------------------------------------------------------------------
# device_down faults
# ---------------------------------------------------------------------------


class TestDeviceDownFaults:
    def test_parse_and_takes_device(self):
        plan = FaultPlan.parse("device_down@dev1")
        injector = FaultInjector(plan)
        assert not injector.takes_device("dev0")
        assert injector.takes_device("dev1")
        assert not injector.takes_device("dev1")  # budget spent
        assert len(injector.fired) == 1

    def test_seeded_plans_never_draw_device_down(self):
        # device_down enters a plan only when spelled explicitly, so all
        # existing seeded schedules and baselines stay byte-stable.
        for seed in range(40):
            plan = FaultPlan.from_seed(seed, count=5)
            assert all(
                spec.kind is not FaultKind.DEVICE_LOST
                for spec in plan.faults
            )

    def test_fault_plans_length_validated_at_init(self, db):
        with pytest.raises(SchemaError, match="fault_plans sequence"):
            ShardedExecutor(
                db,
                DevicePool(2),
                fault_plans=[None, None, FaultPlan.parse("oom")],
            )


# ---------------------------------------------------------------------------
# shard relocation
# ---------------------------------------------------------------------------


class TestRelocation:
    @pytest.mark.parametrize("devices", (2, 4))
    def test_killed_shard_relocates_with_identical_rows(self, db, devices):
        spec = query_by_name("Q5")
        healthy = ShardedExecutor(db, DevicePool(devices))
        expected = _digest(healthy.execute(spec))

        executor = ShardedExecutor(db, DevicePool(devices))
        result = executor.execute(
            spec, fault_plan=FaultPlan.parse("device_down@dev1")
        )
        assert _digest(result) == expected
        report = result.shard
        assert report.relocations == 1
        (moved,) = report.relocated
        assert moved.relocated_from == "dev1"
        assert moved.device == "dev0"  # lowest healthy index
        assert report.device_faults_fired == 1
        # the killed slot is suspect, not yet quarantined
        assert executor.health.state(1) == "suspect"
        # the failed record and the relocated record both show up
        assert any(r.failed and r.device == "dev1" for r in report.records)
        assert "relocated from dev1" in report.describe()

    def test_relocation_budget_exhaustion_raises(self, db):
        executor = ShardedExecutor(db, DevicePool(2))
        with pytest.raises(DeviceLostError):
            executor.execute(
                query_by_name("Q5"),
                fault_plan=FaultPlan.parse(
                    "device_down@dev0; device_down@dev1"
                ),
            )

    def test_executor_wide_per_slot_plans_kill_once(self, db):
        plans = [None, FaultPlan.parse("device_down"), None, None]
        executor = ShardedExecutor(db, DevicePool(4), fault_plans=plans)
        spec = query_by_name("Q9")
        healthy = _digest(ShardedExecutor(db, DevicePool(4)).execute(spec))

        first = executor.execute(spec)
        assert _digest(first) == healthy
        assert first.shard.relocations == 1
        assert first.shard.device_faults_fired == 1

        second = executor.execute(spec)  # spec budget already spent
        assert _digest(second) == healthy
        assert second.shard.relocations == 0
        assert second.shard.device_faults_fired == 0


# ---------------------------------------------------------------------------
# degraded-pool scatter
# ---------------------------------------------------------------------------


class TestDegradedPool:
    def test_quarantine_lifecycle_through_the_executor(self, db):
        spec = query_by_name("Q5")
        healthy = _digest(ShardedExecutor(db, DevicePool(4)).execute(spec))
        executor = ShardedExecutor(db, DevicePool(4))
        kill = FaultPlan.parse("device_down@dev1")

        # two consecutive killed queries trip the quarantine
        for _ in range(2):
            result = executor.execute(spec, fault_plan=kill)
            assert _digest(result) == healthy
        assert executor.health.state(1) == "quarantined"

        # degraded scatter: 3-wide, dev1 skipped, same answer.  The
        # quarantining query already ticked one cooldown unit, so this
        # is the one fully-excluded query before probation opens.
        degraded = executor.execute(spec)
        assert _digest(degraded) == healthy
        assert degraded.shard.fanout == 3
        assert degraded.shard.quarantined_devices == ("dev1",)
        assert any(
            r.quarantined and r.skipped for r in degraded.shard.records
        )
        assert "dev1: quarantined" in degraded.shard.describe()

        # cooldown expired at the end of that query: probation, then a
        # clean query readmits the slot and the scatter is 4-wide again
        assert executor.health.state(1) == "probation"
        readmitted = executor.execute(spec)
        assert _digest(readmitted) == healthy
        assert readmitted.shard.fanout == 4
        assert executor.health.state(1) == "healthy"
        assert executor.health.probes == 1
        assert executor.health.readmissions == 1

    def test_empty_shards_run_on_lowest_active_device(self):
        # Satellite: the all-shards-empty fallback must pick the lowest
        # *active* device, not unconditionally slot 0.
        schema = TableSchema(
            (ColumnDef("k", DataType.INT64), ColumnDef("v", DataType.FLOAT64))
        )
        table = Table(
            schema,
            {
                "k": np.asarray([], dtype=np.int64),
                "v": np.asarray([], dtype=np.float64),
            },
        )
        empty_db = Database()
        empty_db.add("t", table)
        spec = QuerySpec(
            name="void",
            tables=(TableRef("t", "t"),),
            join_edges=(),
            fact="t",
            aggregates=(
                AggSpec("total", "sum", col("v")),
                AggSpec("n", "count", None),
            ),
        )

        executor = ShardedExecutor(empty_db, DevicePool(2))
        baseline = executor.execute(spec)
        (ran,) = [r for r in baseline.shard.records if not r.skipped]
        assert ran.device == "dev0"

        executor.health.record_failure(0)
        executor.health.record_failure(0)
        assert executor.health.state(0) == "quarantined"
        degraded = executor.execute(spec)
        (ran,) = [r for r in degraded.shard.records if not r.skipped]
        assert ran.device == "dev1"
        assert degraded.shard.merge_device == "dev1"
        assert _digest(degraded) == _digest(baseline)


# ---------------------------------------------------------------------------
# degraded-pool serving: the golden storm witness
# ---------------------------------------------------------------------------


class TestDegradedPoolServing:
    def _drain(self, db, storm):
        service = QueryService(db, device_by_name("amd"), pool=DevicePool(4))
        for ticket, name in enumerate(QUERIES * 2):
            plan = (
                FaultPlan.parse("device_down@dev1")
                if storm and ticket < 2
                else None
            )
            service.enqueue(query_by_name(name), fault_plan=plan)
        report = service.drain()
        checksums = tuple(
            _digest(service.result_for(r.index))
            for r in report.records
            if r.outcome == "ok"
        )
        return service, report, checksums

    def test_storm_drain_matches_healthy_checksums(self, db):
        _, healthy_report, healthy_sums = self._drain(db, storm=False)
        assert healthy_report.completed == healthy_report.num_queries

        service, report, checksums = self._drain(db, storm=True)
        # the golden witness: every query completes ok and every
        # checksum is byte-identical to the healthy-pool drain
        assert report.completed == report.num_queries
        assert checksums == healthy_sums
        assert report.relocations == 2
        assert report.pool_quarantines == 1
        assert report.pool_probes == 1
        assert report.pool_health["dev1"] in POOL_HEALTH_STATES

        # surfaced in text and metrics
        text = report.to_text()
        assert "pool: 2 relocations" in text
        assert "[relocated x1]" in text
        registry = service.registry
        assert registry.counter("shard_relocations_total").value() == 2.0
        assert registry.counter("pool_probe_total").value() == 1.0
        assert registry.gauge("pool_quarantined").value() == 0.0

    def test_healthy_drain_reports_no_pool_activity(self, db):
        _, report, _ = self._drain(db, storm=False)
        assert report.relocations == 0
        assert report.pool_quarantined == 0
        assert report.pool_quarantines == 0
        counters = report.counters_dict()
        assert counters["pool_quarantined"] == 0
        assert counters["relocations"] == 0


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------


class TestCLI:
    def test_flags_parsed_on_run_and_serve(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["run", "Q5"])
        assert args.max_relocations == 2
        assert args.quarantine_threshold == 2
        args = build_parser().parse_args(
            [
                "serve",
                "--queries",
                "Q5",
                "--max-relocations",
                "3",
                "--quarantine-threshold",
                "0",
            ]
        )
        assert args.max_relocations == 3
        assert args.quarantine_threshold == 0

    def test_run_relocates_through_the_cli(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "run",
                "Q5",
                "--scale",
                "0.002",
                "--devices",
                "2",
                "--inject-faults",
                "device_down@dev1",
                "--max-relocations",
                "2",
                "--quarantine-threshold",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "relocated from dev1" in out
