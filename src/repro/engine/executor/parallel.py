"""Parallel query execution: the exchange operator.

SQL Server parallelises a hash aggregate by partitioning rows across
worker threads (Repartition Streams), running a *partial* aggregate per
worker, and gathering the results (Gather Streams) — the Figure 9 plan of
the paper. This module reproduces that plan shape over **real OS
processes**: the database owns a :class:`~repro.engine.workers.WorkerPool`
and the exchange operator ships partition sub-plans to it.

Two worker tiers, tried in order:

1. **Partitioned scan** — the child is a bare table scan whose storage
   engine splits itself into disjoint picklable slices (heap page ranges,
   columnstore segment ranges). Workers decode *and* aggregate their
   slice; the coordinator merges partial states in range order, which
   reproduces the serial hash aggregate's first-occurrence group order.
2. **Repartitioned rows** — the coordinator scans the child, hash-
   partitions rows on the group key, and ships each partition. A group
   never spans workers, so merge is concatenation and accumulation order
   matches serial execution bit for bit (this is the tier float SUM/AVG
   plans take — see :mod:`.exchange` for the reassociation argument).

The planner builds an exchange only when one of these tiers can run
(:func:`.exchange.worker_tier_blocker`); otherwise it plans the serial
aggregate MAXDOP 1 would. When the tiers fail at run time — the pool
raises :class:`~repro.engine.workers.WorkerPoolError`, or was disabled
after the plan was cached — the exchange runs
:class:`~.operators.HashAggregate`'s own row/batch code over the same
child: a parallel plan never surfaces a pool failure as a query error,
and the fallback is recorded in :attr:`ParallelStats.fallback_reason`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import tracing
from ..errors import ExecutionError
from ..workers import WorkerPool, WorkerPoolError
from .aggregates import AggregateSpec
from .exchange import (
    build_scan_tasks,
    rebuild_shippable_specs,
    scan_offload_blocker,
    worker_tier_blocker,
)
from .operators import ColumnStoreScan, HashAggregate
from .vector import batches_from_rows

RowFn = Callable[[Sequence[Any]], Any]

#: ParallelStats.mode values
MODE_SERIAL = "serial"
MODE_SCAN = "parallel scan"
MODE_ROWS = "parallel rows"


@dataclass
class ParallelStats:
    """Phase timings captured by one exchange execution (seconds)."""

    dop: int = 1
    scan_time: float = 0.0
    partition_time: float = 0.0
    partition_agg_times: List[float] = field(default_factory=list)
    gather_time: float = 0.0
    rows_in: int = 0
    rows_out: int = 0
    #: batches consumed from the child (repartitioning is batch-granular)
    batches_in: int = 0
    #: which execution tier ran (``MODE_*`` constants)
    mode: str = MODE_SERIAL
    #: why the worker tiers were skipped or abandoned ("" when one ran)
    fallback_reason: str = ""
    #: real wall clock of the whole compute when workers ran (0 otherwise)
    measured_parallel_wall: float = 0.0
    #: per-worker ``(worker_id, rows, seconds)`` when workers ran
    worker_breakdown: List[Tuple[int, int, float]] = field(
        default_factory=list
    )
    #: pickled task payload / result bytes (transport cost, measured)
    bytes_shipped: int = 0
    bytes_returned: int = 0

    @property
    def serial_wall(self) -> float:
        """Single-core cost: the sum of every phase. In worker tiers the
        per-task times come from in-worker clocks, so this estimates what
        one core doing all the work would have paid."""
        return (
            self.scan_time
            + self.partition_time
            + sum(self.partition_agg_times)
            + self.gather_time
        )

    @property
    def measured_speedup(self) -> float:
        """Real speedup: serial cost over the measured parallel wall
        clock. 1.0 until a worker tier has actually run."""
        measured = self.measured_parallel_wall
        serial = self.serial_wall
        if measured <= 0 or serial <= 0:
            return 1.0
        return serial / measured


class ParallelHashAggregate(HashAggregate):
    """Repartition Streams → per-worker Hash Aggregate → Gather Streams.

    Output is identical to :class:`HashAggregate` — including group
    order — whichever tier executes; the difference is the partitioned
    execution and the :class:`ParallelStats` it records. Aggregates must
    be parallel-safe (mergeable partial states). Without a usable
    ``pool`` the operator is the serial hash aggregate it subclasses.

    The exchange eligibility this operator re-derives at runtime
    (:func:`.exchange.worker_tier_blocker` /
    :func:`.exchange.scan_offload_blocker`) is proven statically by
    the plan sanitizer before execution — rules
    ``PLAN-EXCHANGE-MERGE`` / ``-DOP`` / ``-FLOAT-SUM`` / ``-SILENT``
    in :mod:`repro.engine.verify.plan_sanitizer` — and this module is
    one of the fork-safety analyser's default targets.
    """

    def __init__(
        self,
        child,
        group_fns: Sequence[RowFn],
        group_names: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        agg_names: Sequence[str],
        dop: int = 4,
        group_indexes: Optional[Sequence[int]] = None,
        pool: Optional[WorkerPool] = None,
    ):
        if dop < 1:
            raise ExecutionError("degree of parallelism must be >= 1")
        for spec in aggregates:
            if not spec.parallel_safe:
                raise ExecutionError(
                    f"aggregate {spec.name!r} is not parallel-safe"
                )
        super().__init__(
            child, group_fns, group_names, aggregates, agg_names,
            group_indexes=group_indexes,
        )
        self.dop = dop
        self.pool = pool
        self.stats = ParallelStats(dop=dop)

    def execute(self):
        output, pulled = self._run_on_workers()
        if output is not None:
            yield from output
        else:
            yield from self._aggregate_rows(
                self.child if pulled is None else chain.from_iterable(pulled)
            )

    def execute_batch(self):
        output, pulled = self._run_on_workers()
        if output is not None:
            yield from batches_from_rows(output)
        else:
            yield from self._aggregate_batches(
                self.child.iter_batches() if pulled is None else pulled
            )

    # -- tier dispatch -----------------------------------------------------------

    def _run_on_workers(self) -> Tuple[Optional[List], Optional[List]]:
        """``(output, None)`` when a worker tier ran, else ``(None,
        pulled)``: the serial aggregate must run, over ``pulled`` — the
        child batches a failed rows tier already consumed, so the child
        is never driven twice — or over the child when that is None."""
        stats = self.stats = ParallelStats(dop=self.dop)
        pulled = None
        reason = (
            "degree of parallelism is 1"
            if self.dop < 2
            else worker_tier_blocker(
                self.pool, self.aggregates, self.group_indexes
            )
        )
        if reason is None:
            ship = rebuild_shippable_specs(self.aggregates)
            try:
                if scan_offload_blocker(
                    self.child, self.aggregates, self.group_indexes
                ) is None:
                    output = self._compute_offload_scan(stats, ship)
                    if output is not None:
                        return output, None
                pulled = self._pull_child(stats)
                return self._compute_offload_rows(stats, ship, pulled), None
            except WorkerPoolError as exc:
                reason = str(exc)
        self.stats = ParallelStats(
            dop=self.dop, mode=MODE_SERIAL, fallback_reason=reason
        )
        return None, pulled

    def _record_run(self, stats: ParallelStats, results) -> None:
        """Fold one pool run's accounting into the stats block."""
        stats.partition_agg_times = [r.elapsed for r in results]
        run = self.pool.last_run
        if run is not None:
            stats.bytes_shipped += run.bytes_sent
            stats.bytes_returned += run.bytes_received
        per_worker: Dict[int, List[float]] = {}
        for result in results:
            acc = per_worker.setdefault(result.worker_id, [0, 0.0])
            acc[0] += result.rows
            acc[1] += result.elapsed
        stats.worker_breakdown = [
            (worker_id, int(rows), seconds)
            for worker_id, (rows, seconds) in sorted(per_worker.items())
        ]

    # -- tier 1: partitioned scan -------------------------------------------------

    def _compute_offload_scan(
        self, stats: ParallelStats, ship: List[AggregateSpec]
    ) -> Optional[List]:
        """Range-partition the child scan's storage across workers; None
        when the store declines (nothing stored, engine opt-out)."""
        wall_start = time.perf_counter()
        start = wall_start
        with tracing.span(
            "slice storage into partitions", category="exchange",
            wait_type="IO",
        ):
            built = build_scan_tasks(
                self.child, ship, self.group_indexes, self.dop
            )
        if built is None:
            return None
        tasks, weights = built
        stats.scan_time = time.perf_counter() - start
        stats.mode = MODE_SCAN
        if not tasks:
            # empty table: nothing to ship, nothing to aggregate
            stats.rows_out = 0
            stats.measured_parallel_wall = time.perf_counter() - wall_start
            self._bump_child_counters(0)
            return []
        with tracing.span(
            "parallel execute (scan tier)", category="exchange",
            tasks=len(tasks), dop=self.dop,
        ):
            results = self.pool.run(tasks, weights, workers=self.dop)
        stats.batches_in = len(tasks)
        self._record_run(stats, results)

        # gather: merge partial states partition-by-partition *in range
        # order* — an insertion-ordered dict then replays the serial
        # hash aggregate's first-occurrence group order exactly.
        start = time.perf_counter()
        with tracing.span(
            "gather merge", category="exchange", wait_type="AGG_MERGE"
        ):
            merged: Dict[Any, List[Any]] = {}
            rows_in = 0
            worker_io: Dict[str, int] = {}
            for result in results:
                value = result.value
                rows_in += value["rows"]
                for name, amount in value["io"].items():
                    worker_io[name] = worker_io.get(name, 0) + amount
                for key, states in value["groups"].items():
                    mine = merged.get(key)
                    if mine is None:
                        merged[key] = states
                    else:
                        for state, other in zip(mine, states):
                            state.merge(other)
            single = len(self.group_fns) == 1
            output = []
            for key, states in merged.items():
                group_values = (key,) if single else key
                output.append(
                    group_values + tuple(state.result() for state in states)
                )
        stats.gather_time = time.perf_counter() - start
        stats.rows_in = rows_in
        stats.rows_out = len(output)
        stats.measured_parallel_wall = time.perf_counter() - wall_start
        self._bump_child_counters(rows_in, worker_io)
        return output

    def _bump_child_counters(
        self, rows: int, worker_io: Optional[Dict[str, int]] = None
    ) -> None:
        """The scan tier never drives the child operator, but EXPLAIN
        ANALYZE must still report the scan's actual rows exactly once —
        the workers *did* read them."""
        child = self.child
        child.loops += 1
        child.loop_rows.append(rows)
        child.rows_out += rows
        if worker_io and isinstance(child, ColumnStoreScan):
            child.segments_read += worker_io.get("segments_read", 0)
            child.segments_skipped += worker_io.get("segments_skipped", 0)
            store_io = child.table.store.io
            for name, amount in worker_io.items():
                store_io.incr(name, amount)

    # -- tier 2: repartitioned rows -----------------------------------------------

    def _pull_child(self, stats: ParallelStats) -> List:
        """Scan the child once, batch-at-a-time, on the coordinator."""
        start = time.perf_counter()
        with tracing.span(
            "scan child", category="exchange", wait_type="IO"
        ):
            batches = list(self.child.iter_batches())
        stats.scan_time = time.perf_counter() - start
        stats.rows_in = sum(len(batch) for batch in batches)
        stats.batches_in = len(batches)
        return batches

    def _compute_offload_rows(
        self, stats: ParallelStats, ship: List[AggregateSpec], batches: List
    ) -> List:
        """Hash-partition the pulled batches; workers aggregate."""
        wall_start = time.perf_counter() - stats.scan_time
        group_indexes = self.group_indexes
        dop = self.dop

        # hash-partition, recording global first-occurrence key order so
        # the gather can emit groups in the serial aggregate's order
        start = time.perf_counter()
        with tracing.span(
            "hash partition rows", category="exchange", dop=dop
        ):
            partitions: List[List] = [[] for _ in range(dop)]
            order: Dict[Any, None] = {}
            setorder = order.setdefault
            if len(group_indexes) == 1:
                (index,) = group_indexes
                for batch in batches:
                    for row in batch:
                        key = row[index]
                        partitions[hash(key) % dop].append(row)
                        setorder(key)
            else:
                for batch in batches:
                    for row in batch:
                        key = tuple(row[i] for i in group_indexes)
                        partitions[hash(key) % dop].append(row)
                        setorder(key)
        stats.partition_time = time.perf_counter() - start

        tasks = []
        weights = []
        for partition in partitions:
            if not partition:
                continue
            tasks.append(
                (
                    "partial_agg",
                    {
                        "source": ("rows", {"rows": partition}),
                        "specs": ship,
                        "group_indexes": group_indexes,
                    },
                )
            )
            weights.append(float(len(partition)))
        del partitions

        merged: Dict[Any, List[Any]] = {}
        if tasks:
            with tracing.span(
                "parallel execute (rows tier)", category="exchange",
                tasks=len(tasks), dop=dop,
            ):
                results = self.pool.run(tasks, weights, workers=dop)
            self._record_run(stats, results)
            # hash partitioning keeps keys disjoint across partitions
            for result in results:
                merged.update(result.value["groups"])
        stats.mode = MODE_ROWS

        start = time.perf_counter()
        with tracing.span(
            "gather merge", category="exchange", wait_type="AGG_MERGE"
        ):
            single = len(group_indexes) == 1
            output = []
            for key in order:
                states = merged[key]
                group_values = (key,) if single else key
                output.append(
                    group_values + tuple(state.result() for state in states)
                )
        stats.gather_time = time.perf_counter() - start
        stats.rows_out = len(output)
        stats.measured_parallel_wall = time.perf_counter() - wall_start
        return output

    # -- plumbing ----------------------------------------------------------------

    def analyze_detail(self):
        stats = self.stats
        if stats.fallback_reason:
            return f"serial fallback: {stats.fallback_reason}"
        if not stats.partition_agg_times:
            return None
        worker_ms = sum(stats.partition_agg_times) * 1000.0
        parts = [
            f"workers={len(stats.partition_agg_times)}",
            f"worker time={worker_ms:.3f}ms",
            f"measured wall={stats.measured_parallel_wall * 1000.0:.3f}ms",
            f"mode={stats.mode}",
        ]
        for worker_id, rows, seconds in stats.worker_breakdown:
            parts.append(f"w{worker_id}={rows}r/{seconds * 1000.0:.3f}ms")
        return ", ".join(parts)

    def explain_node(self):
        aggs = ", ".join(spec.describe() for spec in self.aggregates)
        label = (
            f"Parallelism (Gather Streams)\n"
            f"  -> Hash Match (Partial Aggregate: {aggs}) [DOP={self.dop}]\n"
            f"  -> Parallelism (Repartition Streams, hash on group key)"
        )
        return label, (self.child,)
