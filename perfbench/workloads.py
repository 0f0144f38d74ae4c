"""The eight workloads: what each one asks of the program, and why.

A workload is a short, fixed *cycle* of operations plus the state they run
against.  ``--seed`` decides the generated data, the order of the cycle,
the Zipf draws and the pairing of fault plans with queries; the program
only ever sees the generated inputs.  Every cycle of a workload holds the
same multiset of operations in a seeded order, so two seeds do the same
amount of work and differ only in arrangement.

An end-to-end run repeats whole cycles until ``--seconds`` have passed; a
traced run makes a fixed number of cycles (sized from
``nominal_cycle_s``), so its counts repeat exactly.  All sizes are chosen
so that one run yields well over 120 latency samples in 8 s on two cores.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import adapter
from .verify import Rows, Verifier, canonical

__all__ = ["WORKLOADS", "Workload", "Op", "Answer", "derive_seed"]

TPCH = ("Q5", "Q7", "Q8", "Q9", "Q14")
MIB = 1024 * 1024


def derive_seed(seed: int, purpose: str) -> int:
    """An independent 31-bit seed for one purpose, stable across runs."""
    return random.Random(f"{seed}:{purpose}").randrange(1, 2**31)


@dataclass(frozen=True)
class Op:
    """One timed operation: a query, or a drain of several."""

    label: str
    #: Shape of each query the op asks, in the order answers come back.
    shapes: Tuple[str, ...]
    #: Anything else that defines the op (part of the sequence digest).
    detail: Tuple = ()
    payload: object = field(default=None, compare=False, repr=False)


class Answer(NamedTuple):
    result: Optional[object]  # None: the query failed
    executed: bool = True  # False: answered from a cache or a twin


def seeded_rounds(rng: random.Random, items: Sequence, rounds: int) -> List:
    """``rounds`` permutations of ``items``: a seeded round-robin."""
    out: List = []
    for _ in range(rounds):
        out.extend(rng.sample(list(items), len(items)))
    return out


class Workload:
    """Set-up state plus the op cycle; subclasses fill in :meth:`build`."""

    name = ""
    why = ""
    #: Seconds one cycle takes on the recording machine.  Sizes the traced
    #: pass (a quarter of a nominal run); never used for timing.
    nominal_cycle_s = 1.0

    def __init__(self, seed: int, trace: bool = False):
        self.seed = seed
        self.trace = trace
        self.rng = random.Random(f"{seed}:{self.name}")
        self.shapes: Dict[str, object] = {}
        self.references: Dict[str, Rows] = {}
        self.kbe_cycles: Dict[str, float] = {}
        self.cycle: List[Op] = []
        #: Ops run once, untimed, before the first timed op (``None``:
        #: one cycle).
        self.warmup: Optional[List[Op]] = None
        #: Counts the workload itself takes from what ops return.
        self.counts: Counter = Counter()
        #: The service whose public counters the traced pass reads.
        self.service = None
        #: Stated sizes, printed beside the results.
        self.sizes: Dict[str, object] = {}
        self.build()
        if self.warmup is None:
            self.warmup = list(self.cycle)

    # -- for subclasses ---------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def run_op(self, op: Op):
        """The timed call into the program; returns whatever it gave."""
        raise NotImplementedError

    def answers(self, op: Op, raw) -> List[Answer]:
        """One :class:`Answer` per shape of ``op`` (untimed)."""
        return [Answer(raw)]

    def begin_cycle(self) -> None:
        """Untimed hook before each cycle."""

    def audit(self, verifier: Verifier) -> None:
        """Untimed extra checks after the last op."""

    def extra_metrics(self) -> Dict[str, float]:
        """Traced runs only: numbers that need a pass of their own."""
        return {}

    def add_references(self, database, shapes: Dict[str, object]) -> None:
        """Reference rows (and KBE cycles) from a clean KBE engine."""
        engine = adapter.make_engine("kbe", database)
        for key, spec in shapes.items():
            result = adapter.execute(engine, spec)
            self.references[key] = canonical(adapter.rows(result))
            self.kbe_cycles[key] = adapter.sim_cycles(result)
        self.shapes.update(shapes)

    # -- for the harness --------------------------------------------------

    def ops_digest(self) -> str:
        """Digest of everything the seed decided."""
        payload = repr((self.name, sorted(self.sizes.items()), self.cycle,
                        self.warmup))
        return hashlib.sha1(payload.encode()).hexdigest()[:16]

    def _service_answers(self, report) -> List[Answer]:
        self.counts.update(adapter.report_counts(report))
        answers = [
            Answer(result, executed)
            for result, executed in adapter.batch_answers(self.service, report)
        ]
        adapter.release_results(self.service)
        return answers


# -- 1, 2: warm synchronous serving -------------------------------------------


class _WarmSubmit(Workload):
    """``QueryService.submit`` of a small fixed mix on a warm service."""

    rounds = 1

    def database(self):
        raise NotImplementedError

    def query_shapes(self) -> Dict[str, object]:
        raise NotImplementedError

    def build(self) -> None:
        database = self.database()
        self.add_references(database, self.query_shapes())
        self.service = adapter.make_service(database)
        self.cycle = [
            Op(key, (key,), payload=self.shapes[key])
            for key in seeded_rounds(self.rng, sorted(self.shapes), self.rounds)
        ]
        self.sizes.update(ops_per_cycle=len(self.cycle), queries_per_op=1)

    def run_op(self, op: Op):
        return adapter.submit(self.service, op.payload)

    def answers(self, op: Op, raw) -> List[Answer]:
        adapter.release_results(self.service)
        return [Answer(raw)]


class JoinSteady(_WarmSubmit):
    name = "join_steady"
    why = (
        "warm single-device submit of TPC-H Q5/Q7/Q8/Q9/Q14: planning is "
        "cached, so hash-join probe does most of the work"
    )
    nominal_cycle_s = 0.37
    scale = 0.1
    rounds = 2

    def database(self):
        self.sizes.update(tpch_scale=self.scale)
        return adapter.tpch_database(self.scale, derive_seed(self.seed, "tpch"))

    def query_shapes(self):
        return {name: adapter.tpch_query(name) for name in TPCH}


class ScanFilter(_WarmSubmit):
    name = "scan_filter"
    why = (
        "warm submit of SSB flight 1 (one join, three range predicates): "
        "the same operator layer, but filter-bound instead of probe-bound"
    )
    nominal_cycle_s = 0.37
    scale = 0.3
    rounds = 5

    def database(self):
        self.sizes.update(ssb_scale=self.scale)
        return adapter.ssb_database(self.scale, derive_seed(self.seed, "ssb"))

    def query_shapes(self):
        return {name: adapter.ssb_flight(name) for name in ("Q1.1", "Q1.2", "Q1.3")}


# -- 3: the paper's engine / tile-size comparison ---------------------------------


class SimSweep(Workload):
    name = "sim_sweep"
    why = (
        "direct Engine.execute over GPL at 16 KiB tiles on two devices, GPL "
        "w/o CE, KBE and Ocelot: small tiles make the simulator the cost"
    )
    nominal_cycle_s = 1.05
    scale = 0.02
    #: label -> (engine kind, device, tile KiB)
    CONFIGS = {
        "gpl-16k-amd": ("gpl", "amd", 16),
        "gpl-16k-nvidia": ("gpl", "nvidia", 16),
        "woce-64k": ("gpl-woce", "amd", 64),
        "kbe": ("kbe", "amd", None),
        "ocelot": ("ocelot", "amd", None),
    }

    def build(self) -> None:
        database = adapter.tpch_database(
            self.scale, derive_seed(self.seed, "tpch")
        )
        self.add_references(
            database, {name: adapter.tpch_query(name) for name in TPCH}
        )
        self.engines = {
            label: adapter.make_engine(kind, database, device, tile_kib)
            for label, (kind, device, tile_kib) in self.CONFIGS.items()
        }
        pairs = list(itertools.product(sorted(self.CONFIGS), TPCH))
        self.cycle = [
            Op(f"{config}:{query}", (query,), detail=(config,))
            for config, query in seeded_rounds(self.rng, pairs, 1)
        ]
        self.sizes.update(
            tpch_scale=self.scale, ops_per_cycle=len(self.cycle),
            queries_per_op=1,
        )

    def run_op(self, op: Op):
        return adapter.execute(
            self.engines[op.detail[0]], self.shapes[op.shapes[0]]
        )


# -- 4: first query of a new shape ----------------------------------------------


class PlanCold(Workload):
    name = "plan_cold"
    why = (
        "Fig 11's procedure per op: cold statistics and search memo, plan, "
        "cost, search, then run; planning outweighs the operators"
    )
    nominal_cycle_s = 0.75
    scale = 0.01
    Q14_SELECTIVITIES = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)
    SSB = ("Q1.1", "Q1.2", "Q1.3", "Q2.1", "Q2.2", "Q2.3", "Q3.1", "Q3.2",
           "Q3.3", "Q3.4", "Q4.1", "Q4.2", "Q4.3")
    AUDITED_SHAPES = 3

    def build(self) -> None:
        tpch = adapter.tpch_database(self.scale, derive_seed(self.seed, "tpch"))
        ssb = adapter.ssb_database(self.scale, derive_seed(self.seed, "ssb"))
        tpch_shapes = {name: adapter.tpch_query(name) for name in TPCH}
        tpch_shapes.update(
            (f"Q14@{sel}", adapter.q14_selectivity(sel))
            for sel in self.Q14_SELECTIVITIES
        )
        ssb_shapes = {f"SSB-{name}": adapter.ssb_flight(name) for name in self.SSB}
        self.add_references(tpch, tpch_shapes)
        self.add_references(ssb, ssb_shapes)
        self.databases = {key: tpch for key in tpch_shapes}
        self.databases.update((key, ssb) for key in ssb_shapes)
        pairs = list(itertools.product(sorted(self.shapes), sorted(adapter.DEVICES)))
        self.cycle = [
            Op(f"{shape}@{device}", (shape,), detail=(device,))
            for shape, device in seeded_rounds(self.rng, pairs, 1)
        ]
        self.audited = self.rng.sample(sorted(self.shapes), self.AUDITED_SHAPES)
        self.sizes.update(
            tpch_scale=self.scale, ssb_scale=self.scale,
            ops_per_cycle=len(self.cycle), queries_per_op=1,
        )

    def begin_cycle(self) -> None:
        # Γ is calibrated cold once per device per pass.
        adapter.forget_calibration()

    def run_op(self, op: Op):
        shape = op.shapes[0]
        return adapter.plan_cold(
            self.databases[shape], self.shapes[shape], op.detail[0]
        )

    def answers(self, op: Op, raw) -> List[Answer]:
        result, predicted = raw
        simulated = adapter.sim_cycles(result)
        if simulated > 0:
            self.counts["model.error_sum"] += abs(simulated - predicted) / simulated
            self.counts["model.predictions"] += 1
        return [Answer(result)]

    def audit(self, verifier: Verifier) -> None:
        """The row-at-a-time interpreter shares no operator with the
        engines; it is too slow for every shape in every run, so each seed
        audits a few and the seeds together cover them all."""
        for shape in self.audited:
            verifier.check(
                shape, adapter.interpret(self.shapes[shape], self.databases[shape])
            )


# -- 5, 6: batched serving through the result and segment caches ----------------------


def shape_universe(size: int) -> Dict[str, object]:
    """``size`` distinct shapes, most popular first: Q14 over a growing
    ship-date range, and every fourth a TPC-H join with its own row limit
    (joins share their build segments, so segment reuse has work to do)."""
    joins = ("Q5", "Q7", "Q8", "Q9")
    shapes: Dict[str, object] = {}
    for rank in range(size):
        if rank % 4 == 3:
            turn = rank // 4
            name, limit = joins[turn % 4], 1 + turn // 4
            shapes[f"{name}#limit{limit}"] = adapter.limited(
                adapter.tpch_query(name), limit
            )
        else:
            selectivity = round((rank + 1) / size, 6)
            shapes[f"Q14@{selectivity}"] = adapter.q14_selectivity(selectivity)
    return shapes


def zipf_ranks(rng: random.Random, size: int, exponent: float, draws: int) -> List[int]:
    """``draws`` ranks whose frequencies follow Zipf(``exponent``) as
    closely as whole numbers allow (largest remainders fill the tail), in
    the order ``rng`` gives them."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
    shares = [draws * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(size), key=lambda rank: (counts[rank] - shares[rank], rank)
    )
    for rank in by_remainder[:draws - sum(counts)]:
        counts[rank] += 1
    ranks = [rank for rank in range(size) for _ in range(counts[rank])]
    rng.shuffle(ranks)
    return ranks


class _CachedDrains(Workload):
    """``QueryService.run`` of Zipf(1.1)-distributed batches, dedupe on."""

    scale = 0.02
    universe = 64
    batch = 16
    drains = 50
    result_cache_bytes = 64 * MIB
    segment_cache_bytes = 256 * MIB
    prewarm = False

    def build(self) -> None:
        database = adapter.tpch_database(
            self.scale, derive_seed(self.seed, "tpch")
        )
        universe = shape_universe(self.universe)
        keys = list(universe)
        # One arrangement for every seed, which the seed only turns: how a
        # replayed cycle fares against an LRU cache depends on its order
        # (hit ratios move by tens of percent between shuffles), so another
        # shuffle would be another workload, not another sample of this one.
        ranks = zipf_ranks(
            random.Random(f"{self.name}:arrangement"), self.universe, 1.1,
            self.batch * self.drains,
        )
        turn = self.batch * self.rng.randrange(self.drains)
        ranks = ranks[turn:] + ranks[:turn]
        def drain(label: str, members: Sequence[str]) -> Op:
            return Op(label, tuple(members),
                      payload=[universe[key] for key in members])

        self.cycle = [
            drain("drain", [keys[rank] for rank in ranks[start:start + self.batch]])
            for start in range(0, len(ranks), self.batch)
        ]
        touched = sorted({key for op in self.cycle for key in op.shapes})
        if self.prewarm:
            touched = keys
            self.warmup = [drain("prewarm", keys)] + self.cycle
        self.add_references(database, {key: universe[key] for key in touched})
        self.service = adapter.make_service(
            database,
            result_cache_bytes=self.result_cache_bytes,
            segment_cache_bytes=self.segment_cache_bytes,
            batch_dedupe=True,
        )
        self.sizes.update(
            tpch_scale=self.scale, shape_universe=self.universe,
            shapes_touched=len(touched),
            result_working_set_bytes=sum(
                8 * len(rows) * len(rows[0])
                for rows in self.references.values() if rows
            ),
            result_cache_bytes=self.result_cache_bytes,
            segment_cache_bytes=self.segment_cache_bytes,
            ops_per_cycle=len(self.cycle), queries_per_op=self.batch,
        )

    def run_op(self, op: Op):
        return adapter.run_batch(self.service, op.payload)

    def answers(self, op: Op, raw) -> List[Answer]:
        return self._service_answers(raw)


class CacheHot(_CachedDrains):
    name = "cache_hot"
    why = (
        "64 pre-warmed shapes fit every cache, nothing executes: the "
        "latency is serve and cache bookkeeping alone"
    )
    nominal_cycle_s = 0.1
    prewarm = True


class CacheChurn(_CachedDrains):
    name = "cache_churn"
    why = (
        "256 shapes against a 256 B result cache and a 256 KiB segment cache: "
        "stores and evictions run beside lookups, dedupe and splicing work"
    )
    nominal_cycle_s = 0.75
    scale = 0.01
    universe = 256
    drains = 18
    result_cache_bytes = 256
    segment_cache_bytes = 256 * 1024


# -- 7: scatter-gather over four devices -----------------------------------------


class ShardScatter(Workload):
    name = "shard_scatter"
    why = (
        "ShardedExecutor over a 4-device pool, default arguments: the only "
        "path through partitioning, per-shard re-planning and the merge"
    )
    nominal_cycle_s = 0.3
    scale = 0.05
    rounds = 2
    devices = 4

    def build(self) -> None:
        self.database = adapter.tpch_database(
            self.scale, derive_seed(self.seed, "tpch")
        )
        self.add_references(
            self.database, {name: adapter.tpch_query(name) for name in TPCH}
        )
        self.executor = adapter.make_sharded(self.database, self.devices)
        self.cycle = [
            Op(name, (name,))
            for name in seeded_rounds(self.rng, TPCH, self.rounds)
        ]
        self.single_device_cycles: Dict[str, float] = {}
        if self.trace:
            engine = adapter.make_engine("gpl", self.database)
            self.single_device_cycles = {
                name: adapter.sim_cycles(adapter.execute(engine, spec))
                for name, spec in self.shapes.items()
            }
        self.sizes.update(
            tpch_scale=self.scale, devices=self.devices,
            ops_per_cycle=len(self.cycle), queries_per_op=1,
        )

    def run_op(self, op: Op):
        return adapter.execute(self.executor, self.shapes[op.shapes[0]])

    def answers(self, op: Op, raw) -> List[Answer]:
        if self.trace:
            self.counts["shard.single_device_cycles"] += (
                self.single_device_cycles[op.shapes[0]]
            )
            self.counts["shard.makespan_cycles"] += adapter.sim_cycles(raw)
        return [Answer(raw)]

    def extra_metrics(self) -> Dict[str, float]:
        """One warm cycle at ``workers=1`` and one at ``workers=2``; their
        ratio says whether host threads pay (0 if the keyword is gone)."""
        if not adapter.supports_workers():
            return {"core.parallel.scatter_speedup_w2": 0.0}
        def cycle_seconds(executor) -> float:
            start = time.perf_counter()
            for op in self.cycle:
                adapter.execute(executor, self.shapes[op.shapes[0]])
            return time.perf_counter() - start

        seconds = {}
        for workers in (1, 2):
            executor = adapter.make_sharded(self.database, self.devices, workers)
            cycle_seconds(executor)  # partitions the tables, warms the pool
            seconds[workers] = cycle_seconds(executor)
            adapter.close(executor)
        return {"core.parallel.scatter_speedup_w2": seconds[1] / seconds[2]}


# -- 8: recoverable faults on half the queries ----------------------------------------


class FaultStorm(Workload):
    name = "fault_storm"
    why = (
        "half the queries carry one or two injected stalls, overflows or "
        "OOMs: the only path through retries, fallbacks, resume and breakers"
    )
    nominal_cycle_s = 0.8
    scale = 0.02
    batch = 3
    #: Per shape and cycle: six clean queries and one of each fault plan.
    FAULTS = tuple(itertools.product(sorted(adapter.RECOVERABLE_FAULTS), (1, 2)))
    #: The shape whose breaker is tripped once per cycle (the cheapest).
    TRIPPED = "Q14"

    def build(self) -> None:
        database = adapter.tpch_database(
            self.scale, derive_seed(self.seed, "tpch")
        )
        self.add_references(
            database, {name: adapter.tpch_query(name) for name in TPCH}
        )
        self.service = adapter.make_service(database)
        # The drains hold the same queries for every seed (faulty and
        # clean alternate, shapes rotate); the seed orders the drains, and
        # the queries within each, so breakers see another history.
        queries = [
            (name, variant)
            for fault in self.FAULTS
            for name in TPCH
            for variant in (fault, None)
        ]
        # Three stalls in a row on one shape open its breaker; three clean
        # runs of it keep the faulty share at a half.
        queries += [(self.TRIPPED, ("stall", 1))] * self.batch
        queries += [(self.TRIPPED, None)] * self.batch
        drains = [
            self.rng.sample(queries[start:start + self.batch], self.batch)
            for start in range(0, len(queries), self.batch)
        ]
        self.rng.shuffle(drains)
        self.cycle = [
            Op(
                "drain",
                tuple(name for name, _ in members),
                detail=tuple(fault for _, fault in members),
                payload=[
                    (
                        self.shapes[name],
                        None if fault is None else adapter.fault_plan(
                            derive_seed(self.seed, f"fault{index}"),
                            count=fault[1], kind=fault[0],
                        ),
                    )
                    for name, fault in members
                ],
            )
            for index, members in enumerate(drains)
        ]
        self.sizes.update(
            tpch_scale=self.scale, ops_per_cycle=len(self.cycle),
            queries_per_op=self.batch, faulty_share=0.5,
        )

    def run_op(self, op: Op):
        return adapter.run_faulty_batch(self.service, op.payload)

    def answers(self, op: Op, raw) -> List[Answer]:
        return self._service_answers(raw)


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        JoinSteady, ScanFilter, SimSweep, PlanCold, CacheHot, CacheChurn,
        ShardScatter, FaultStorm,
    )
}
