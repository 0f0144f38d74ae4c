"""Tests for the discrete-event pipelined (GPL-mode) simulation."""

import pytest

from repro.cancel import CancellationToken
from repro.errors import DeadlineExceededError, SimulationError
from repro.faults import FaultInjector, FaultPlan
from repro.gpu import (
    AMD_A10,
    NVIDIA_K40,
    ChannelConfig,
    DataLocation,
    KernelLaunch,
    KernelSpec,
    Simulator,
    StageSpec,
)
from repro.gpu import simulator as simulator_module
from repro.gpu.simulator import clear_simulation_memo, simulation_memo_stats
from repro.obs import Tracer, use_tracer


def spec(name, compute=10.0, memory=2.0):
    return KernelSpec(
        name=name,
        compute_instr=compute,
        memory_instr=memory,
        pm_per_workitem=32,
        lm_per_workitem=8,
    )


def stage(
    name,
    tuples,
    sel=1.0,
    wg=16,
    first=False,
    last=False,
    compute=10.0,
    memory=2.0,
    aux_reads=0.0,
    aux_ws=0.0,
):
    return StageSpec(
        launch=KernelLaunch(
            spec=spec(name, compute, memory),
            tuples=tuples,
            workgroups=wg,
            in_bytes_per_tuple=16,
            out_bytes_per_tuple=8,
            selectivity=sel,
            input_location=(
                DataLocation.GLOBAL if first else DataLocation.CHANNEL
            ),
            output_location=(
                DataLocation.GLOBAL if last else DataLocation.CHANNEL
            ),
            label=name,
        ),
        aux_reads_per_tuple=aux_reads,
        aux_working_set_bytes=aux_ws,
    )


def two_stage(tuples=100_000, sel=0.5, channel=None):
    stages = [
        stage("producer", tuples, sel=sel, first=True),
        stage("consumer", int(tuples * sel), sel=0.0, last=True),
    ]
    channels = [channel or ChannelConfig(depth_packets=8192)]
    return stages, channels


class TestBasics:
    def test_runs_and_is_positive(self):
        sim = Simulator(AMD_A10)
        stages, channels = two_stage()
        result = sim.run_pipeline(
            stages, channels, num_tiles=4, tile_tuples=25_000,
            tile_bytes=25_000 * 16,
        )
        assert result.elapsed_cycles > 0
        assert len(result.stage_stats) == 2

    def test_all_units_complete(self):
        sim = Simulator(AMD_A10)
        stages, channels = two_stage()
        result = sim.run_pipeline(
            stages, channels, num_tiles=4, tile_tuples=25_000,
            tile_bytes=25_000 * 16,
        )
        # consumer processed as many units as producer committed
        expected_units = 4 * stages[0].launch.workgroups
        assert result.stage_stats[0].tuples == pytest.approx(
            100_000, rel=0.02
        )
        assert result.peak_channel_packets[0] > 0
        assert result.channel_bytes > 0

    def test_empty_pipeline_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(AMD_A10).run_pipeline(
                [], [], num_tiles=1, tile_tuples=10, tile_bytes=100
            )

    def test_channel_count_mismatch(self):
        stages, _ = two_stage()
        with pytest.raises(SimulationError):
            Simulator(AMD_A10).run_pipeline(
                stages, [], num_tiles=1, tile_tuples=100, tile_bytes=1600
            )

    def test_zero_tiles_is_noop(self):
        sim = Simulator(AMD_A10)
        stages, channels = two_stage()
        result = sim.run_pipeline(
            stages, channels, num_tiles=0, tile_tuples=0, tile_bytes=0
        )
        assert result.elapsed_cycles == 0.0

    def test_single_stage_pipeline(self):
        sim = Simulator(AMD_A10)
        only = [stage("solo", 50_000, sel=1.0, first=True, last=True)]
        result = sim.run_pipeline(
            only, [], num_tiles=2, tile_tuples=25_000, tile_bytes=25_000 * 16
        )
        assert result.elapsed_cycles > 0

    def test_determinism(self):
        def run():
            stages, channels = two_stage()
            return Simulator(AMD_A10).run_pipeline(
                stages, channels, num_tiles=4, tile_tuples=25_000,
                tile_bytes=25_000 * 16,
            ).elapsed_cycles

        assert run() == run()


class TestResourceRules:
    def test_infeasible_segment_rejected(self):
        # Work-group counts violating Eq. 2 must be rejected.
        stages = [
            stage("a", 1000, first=True, wg=100),
            stage("b", 1000, last=True, wg=100),
        ]
        with pytest.raises(SimulationError):
            Simulator(AMD_A10).run_pipeline(
                stages, [ChannelConfig()], num_tiles=1, tile_tuples=1000,
                tile_bytes=16_000,
            )

    def test_elapsed_at_least_resource_floor(self):
        sim = Simulator(AMD_A10)
        stages, channels = two_stage()
        result = sim.run_pipeline(
            stages, channels, num_tiles=4, tile_tuples=25_000,
            tile_bytes=25_000 * 16,
        )
        total_compute = sum(s.compute_cycles for s in result.stage_stats)
        assert result.elapsed_cycles >= (
            total_compute / AMD_A10.num_cus * 0.999
        )

    def test_oversized_burst_rejected(self):
        # One work-group's output exceeding channel capacity deadlocks by
        # construction and must be diagnosed eagerly.
        stages = [
            stage("a", 1_000_000, sel=1.0, wg=2, first=True),
            stage("b", 1_000_000, sel=0.0, wg=2, last=True),
        ]
        tiny = ChannelConfig(num_channels=1, depth_packets=16)
        with pytest.raises(SimulationError):
            Simulator(AMD_A10).run_pipeline(
                stages, [tiny], num_tiles=1, tile_tuples=1_000_000,
                tile_bytes=16_000_000,
            )

    def test_contention_slows_pipeline(self):
        def run(factor):
            stages, channels = two_stage()
            return Simulator(AMD_A10).run_pipeline(
                stages, channels, num_tiles=4, tile_tuples=25_000,
                tile_bytes=25_000 * 16, contention_factor=factor,
            ).elapsed_cycles

        assert run(1.5) > run(1.0)


class TestPipelineDynamics:
    def test_concurrency_improves_elapsed(self):
        serial_device = AMD_A10.with_overrides(concurrency=1)

        def run(device):
            stages, channels = two_stage(tuples=400_000)
            return Simulator(device).run_pipeline(
                stages, channels, num_tiles=8, tile_tuples=50_000,
                tile_bytes=50_000 * 16,
            ).elapsed_cycles

        assert run(AMD_A10) <= run(serial_device)

    def test_delay_nonnegative(self):
        sim = Simulator(AMD_A10)
        stages, channels = two_stage()
        result = sim.run_pipeline(
            stages, channels, num_tiles=4, tile_tuples=25_000,
            tile_bytes=25_000 * 16,
        )
        assert result.delay_cycles >= 0.0

    def test_imbalanced_pipeline_has_more_delay(self):
        def run(consumer_compute):
            stages = [
                stage("p", 100_000, sel=1.0, first=True),
                stage(
                    "c", 100_000, sel=0.0, last=True,
                    compute=consumer_compute,
                ),
            ]
            return Simulator(AMD_A10).run_pipeline(
                stages, [ChannelConfig(depth_packets=8192)], num_tiles=4,
                tile_tuples=25_000, tile_bytes=25_000 * 16,
            )

        balanced = run(10.0)
        imbalanced = run(400.0)
        assert imbalanced.elapsed_cycles > balanced.elapsed_cycles

    def test_three_stage_chain(self):
        stages = [
            stage("s0", 100_000, sel=0.5, first=True),
            stage("s1", 50_000, sel=0.5),
            stage("s2", 25_000, sel=0.0, last=True),
        ]
        channels = [ChannelConfig(depth_packets=8192)] * 2
        result = Simulator(AMD_A10).run_pipeline(
            stages, channels, num_tiles=4, tile_tuples=25_000,
            tile_bytes=25_000 * 16,
        )
        assert result.elapsed_cycles > 0
        assert len(result.stage_stats) == 3
        # Selectivity shrinks traffic down the chain.
        assert (
            result.stage_stats[0].bytes_channel
            > result.stage_stats[1].bytes_channel
        )

    def test_exclusive_vs_single_stage_pipeline_consistency(self):
        """The two execution modes must agree on single-kernel workloads
        within a small factor — they share the same cost primitives and
        differ only in scheduling machinery."""
        launch = KernelLaunch(
            spec=spec("solo", compute=40, memory=3),
            tuples=200_000,
            workgroups=64,
            in_bytes_per_tuple=16,
            out_bytes_per_tuple=8,
            selectivity=0.5,
            output_location=DataLocation.GLOBAL,
            label="solo",
        )
        exclusive = Simulator(AMD_A10).run_exclusive(launch)
        pipelined = Simulator(AMD_A10).run_pipeline(
            [StageSpec(launch.with_workgroups(16))],
            [],
            num_tiles=4,
            tile_tuples=50_000,
            tile_bytes=50_000 * 16,
        )
        ratio = pipelined.elapsed_cycles / exclusive.elapsed_cycles
        assert 0.3 < ratio < 3.0

    def test_aux_reads_increase_cost(self):
        def run(aux_ws):
            stages = [
                stage("p", 100_000, sel=1.0, first=True),
                stage(
                    "probe", 100_000, sel=0.0, last=True,
                    aux_reads=3.0, aux_ws=aux_ws,
                ),
            ]
            return Simulator(AMD_A10).run_pipeline(
                stages, [ChannelConfig(depth_packets=8192)], num_tiles=4,
                tile_tuples=25_000, tile_bytes=25_000 * 16,
            ).elapsed_cycles

        assert run(512 * 1024 * 1024) > run(64 * 1024)


RUN = dict(num_tiles=4, tile_tuples=25_000, tile_bytes=25_000 * 16)


def run_two_stage(simulator=None, **overrides):
    stages, channels = two_stage()
    simulator = simulator or Simulator(AMD_A10)
    return simulator.run_pipeline(stages, channels, **{**RUN, **overrides})


class TestSimulationMemo:
    """A repeated request replays its outcome instead of re-simulating."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        clear_simulation_memo()
        yield
        clear_simulation_memo()

    def test_warm_call_equals_cold_call(self):
        def run(segment):
            simulator, tracer = Simulator(AMD_A10), Tracer()
            simulator.begin_segment(segment)
            with use_tracer(tracer):
                result = run_two_stage(simulator)
            return result, simulator.counters, tracer.to_json()

        cold, cold_counters, cold_json = run("first")
        warm, warm_counters, warm_json = run("second")
        assert simulation_memo_stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1,
            "limit": simulator_module.SIMULATION_MEMO_LIMIT,
        }
        assert warm == cold
        assert warm_counters == cold_counters
        # The segment id is not part of the key, yet each replay is
        # traced under its own.
        assert '"second"' in warm_json
        assert warm_json == cold_json.replace('"first"', '"second"')

    def test_hits_hand_out_fresh_stats(self):
        cold = run_two_stage()
        pristine = cold.stage_stats[0].compute_cycles
        cold.stage_stats[0].compute_cycles = -1.0
        cold.peak_channel_packets[0] = -1
        simulator = Simulator(AMD_A10)
        warm = run_two_stage(simulator)
        assert warm.stage_stats[0].compute_cycles == pristine
        assert warm.peak_channel_packets[0] > 0
        assert simulator.counters.kernel_stats[0] is warm.stage_stats[0]
        assert simulation_memo_stats()["hits"] == 1

    def test_key_covers_device_and_request(self):
        run_two_stage()
        run_two_stage(Simulator(NVIDIA_K40))
        run_two_stage(contention_factor=1.5)
        run_two_stage(num_tiles=5)
        stats = simulation_memo_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 4, 4)
        assert run_two_stage(
            Simulator(NVIDIA_K40)
        ).elapsed_cycles != run_two_stage().elapsed_cycles

    @pytest.mark.parametrize("warm_first", [False, True])
    def test_impure_runs_bypass_the_memo(self, warm_first):
        if warm_first:
            run_two_stage()
        before = simulation_memo_stats()
        clean = run_two_stage().elapsed_cycles
        after_clean = simulation_memo_stats()
        assert after_clean != before

        injector = FaultInjector(FaultPlan.parse("stall@other-seg:*"))
        assert run_two_stage(
            Simulator(AMD_A10, injector=injector)
        ).elapsed_cycles == clean
        armed = CancellationToken(1e12, query="Q")
        assert run_two_stage(
            Simulator(AMD_A10, cancellation=armed)
        ).elapsed_cycles == clean
        with use_tracer(Tracer(capture_kernels=True)):
            assert run_two_stage().elapsed_cycles == clean
        captured = run_two_stage(trace=True)
        assert len(captured.trace) == 2 * 4 * 16
        assert simulation_memo_stats() == after_clean

        # A token that can never fire is as good as none.
        run_two_stage(Simulator(AMD_A10, cancellation=CancellationToken()))
        assert simulation_memo_stats()["hits"] == after_clean["hits"] + 1

    def test_plain_traced_run_keeps_no_workgroup_events(self):
        with use_tracer(Tracer()) as tracer:
            result = run_two_stage()
        assert result.trace == []
        stage_spans = [s for s in tracer.walk() if s.name == "sim.stage"]
        assert [s.attrs["units"] for s in stage_spans] == [64, 64]

    def test_mid_segment_deadline_is_the_same_warm_or_cold(self):
        total = run_two_stage().elapsed_cycles
        clear_simulation_memo()

        def expire():
            token = CancellationToken(total / 8, query="Q")
            with pytest.raises(DeadlineExceededError) as info:
                run_two_stage(Simulator(AMD_A10, cancellation=token))
            return info.value.elapsed_cycles, token.checks

        cold = expire()
        assert simulation_memo_stats()["size"] == 0
        run_two_stage()
        assert expire() == cold
        assert total / 8 < cold[0] < total and cold[1] == 1

    def test_errors_are_never_stored(self):
        stages = [
            stage("a", 1_000_000, sel=1.0, wg=2, first=True),
            stage("b", 1_000_000, sel=0.0, wg=2, last=True),
        ]
        tiny = ChannelConfig(num_channels=1, depth_packets=16)
        for _ in range(2):
            with pytest.raises(SimulationError):
                Simulator(AMD_A10).run_pipeline(
                    stages, [tiny], num_tiles=1, tile_tuples=1_000_000,
                    tile_bytes=16_000_000,
                )
        stats = simulation_memo_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 2, 0)

    def test_lru_evicts_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(simulator_module._SIM_MEMO, "max_entries", 2)
        for tiles in (1, 2, 1, 3):  # 1 is refreshed, so 2 is the victim
            run_two_stage(num_tiles=tiles)
        stats = simulation_memo_stats()
        assert (stats["size"], stats["limit"], stats["evictions"]) == (2, 2, 1)
        run_two_stage(num_tiles=1)
        assert simulation_memo_stats()["hits"] == 2
        run_two_stage(num_tiles=2)
        assert simulation_memo_stats()["misses"] == 4
