"""The exchange operator: its worker tiers and its serial fallback."""

from operator import itemgetter

import pytest

from repro.engine.errors import ExecutionError
from repro.engine.executor import (
    AggregateSpec,
    HashAggregate,
    MaterializedResult,
    ParallelHashAggregate,
    collect_rows,
)
from repro.engine.udf import UserDefinedAggregate
from repro.engine.workers import (
    DISABLE_ENV,
    WorkerPool,
    WorkerPoolError,
    lpt_assign,
)


def c(i):
    return lambda row: row[i]


def rows_op(columns, rows):
    return MaterializedResult(columns, rows)


def exchange_node(op):
    if isinstance(op, ParallelHashAggregate):
        return op
    for child in op.children():
        found = exchange_node(child)
        if found is not None:
            return found
    return None


@pytest.fixture(scope="module")
def pool():
    workers = WorkerPool(max_workers=4)
    yield workers
    workers.close()


def lpt_makespan(weights, workers):
    """Makespan of the schedule the worker pool actually uses."""
    schedule = lpt_assign(weights, workers)
    return max(sum(weights[i] for i in tasks) for tasks in schedule)


class TestLptMakespan:
    def test_single_worker_sums(self):
        assert lpt_makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_perfect_split(self):
        assert lpt_makespan([3.0, 3.0], 2) == pytest.approx(3.0)

    def test_lpt_schedules_longest_first(self):
        # 5 -> w1, 4 -> w2, 3 -> w2 (7), 3 -> w1 (8), 3 -> w2 (10)
        assert lpt_makespan([5, 4, 3, 3, 3], 2) == pytest.approx(10.0)

    def test_empty(self):
        assert lpt_makespan([], 4) == 0.0

    def test_zero_workers_rejected(self):
        with pytest.raises(WorkerPoolError):
            lpt_makespan([1.0], 0)


class TestParallelHashAggregate:
    DATA = [(f"g{i % 7}", i) for i in range(500)]

    def run_plan(self, op_class, **kwargs):
        op = op_class(
            rows_op(["g", "v"], self.DATA),
            [c(0)],
            ["g"],
            [
                AggregateSpec("count", [], star=True),
                AggregateSpec("sum", [c(1)]),
            ],
            ["n", "s"],
            **kwargs,
        )
        return op, sorted(op)

    def test_matches_serial_hash_aggregate(self):
        _serial_op, serial = self.run_plan(HashAggregate)
        parallel_op, parallel = self.run_plan(ParallelHashAggregate, dop=4)
        assert parallel == serial

    def test_stats_populated(self, pool):
        # integer keys hash deterministically: 0..6 fill all 4 partitions
        op = ParallelHashAggregate(
            rows_op(["g", "v"], [(i % 7, i) for i in range(500)]),
            [c(0)],
            ["g"],
            [
                AggregateSpec("count", [], star=True),
                AggregateSpec("sum", [itemgetter(1)], arg_index=1),
            ],
            ["n", "s"],
            dop=4,
            group_indexes=(0,),
            pool=pool,
        )
        result = list(op)
        stats = op.stats
        assert stats.mode == "parallel rows"
        assert stats.fallback_reason == ""
        assert stats.rows_in == 500
        assert stats.rows_out == len(result) == 7
        assert len(stats.partition_agg_times) == 4
        assert stats.serial_wall > 0
        assert stats.measured_parallel_wall > 0

    def test_without_pool_runs_the_serial_aggregate(self):
        op, _ = self.run_plan(ParallelHashAggregate, dop=4)
        assert op.stats.mode == "serial"
        assert op.stats.fallback_reason == "no worker pool"
        assert op.stats.partition_agg_times == []

    def test_speedups_guard_zero_walls(self):
        from repro.engine.executor import ParallelStats

        stats = ParallelStats(dop=4)
        assert stats.measured_speedup == 1.0

    def test_group_order_matches_serial_first_occurrence(self, pool):
        serial_op = HashAggregate(
            rows_op(["g", "v"], self.DATA),
            [c(0)],
            ["g"],
            [AggregateSpec("count", [], star=True)],
            ["n"],
        )
        parallel_op = ParallelHashAggregate(
            rows_op(["g", "v"], self.DATA),
            [c(0)],
            ["g"],
            [AggregateSpec("count", [], star=True)],
            ["n"],
            dop=4,
            group_indexes=(0,),
            pool=pool,
        )
        assert list(parallel_op) == list(serial_op)
        assert parallel_op.stats.mode == "parallel rows"

    def test_dop_one_equals_serial_semantics(self):
        op, parallel = self.run_plan(ParallelHashAggregate, dop=1)
        _s, serial = self.run_plan(HashAggregate)
        assert parallel == serial

    def test_multi_column_group_key(self):
        data = [(i % 2, i % 3, 1) for i in range(60)]
        op = ParallelHashAggregate(
            rows_op(["a", "b", "v"], data),
            [c(0), c(1)],
            ["a", "b"],
            [AggregateSpec("count", [], star=True)],
            ["n"],
            dop=3,
        )
        assert sorted(op) == [
            (a, b, 10) for a in range(2) for b in range(3)
        ]

    def test_rejects_non_parallel_safe_uda(self):
        class Ordered(UserDefinedAggregate):
            name = "OrderedUda"
            parallel_safe = False

            def init(self):
                pass

            def accumulate(self, value):
                pass

            def merge(self, other):
                pass

            def terminate(self):
                return None

        with pytest.raises(ExecutionError):
            ParallelHashAggregate(
                rows_op(["g", "v"], self.DATA),
                [c(0)],
                ["g"],
                [AggregateSpec("OrderedUda", [c(1)], uda_class=Ordered)],
                ["x"],
                dop=4,
            )

    def test_explain_mentions_exchange(self):
        op, _ = self.run_plan(ParallelHashAggregate, dop=4)
        label, _kids = op.explain_node()
        assert "Repartition Streams" in label
        assert "Gather Streams" in label
        assert "DOP=4" in label


class TestExplainAnalyzeParallel:
    """EXPLAIN ANALYZE over exchange operators: worker fan-out must not
    double-count rows or time on any node of the plan."""

    # integer keys hash deterministically: 0..6 fill all 4 partitions
    DATA = [(i % 7, i) for i in range(500)]

    @pytest.fixture(autouse=True)
    def _pool(self, pool):
        self.pool = pool

    def build(self, dop=4):
        return ParallelHashAggregate(
            rows_op(["g", "v"], self.DATA),
            [c(0)],
            ["g"],
            [AggregateSpec("count", [], star=True)],
            ["n"],
            dop=dop,
            group_indexes=(0,),
            pool=self.pool,
        )

    def test_child_rows_counted_once(self):
        op = self.build(dop=4)
        op.enable_timing()
        groups = list(op)
        assert len(groups) == 7
        (child,) = op.children()
        # the exchange partitions one pass over the child; the per-worker
        # fan-out must not re-drive (and re-count) the input
        assert child.rows_out == len(self.DATA)
        assert child.loops == 1
        assert op.rows_out == 7
        assert op.loops == 1

    def test_analyze_text_reports_workers_once(self):
        op = self.build(dop=4)
        op.enable_timing()
        list(op)
        text = op.explain(analyze=True)
        assert "actual rows=7" in text
        assert f"actual rows={len(self.DATA)}" in text
        assert "workers=4" in text
        assert "loops=1" in text
        assert "loops=2" not in text

    def test_elapsed_is_wall_clock_not_worker_sum(self):
        op = self.build(dop=4)
        op.enable_timing()
        list(op)
        # operator elapsed is inclusive wall-clock of the pull loop; the
        # per-worker times live in analyze_detail, and their sum must
        # not leak into the node's own clock
        worker_total = sum(op.stats.partition_agg_times)
        assert op.elapsed <= op.stats.serial_wall * 1.5 + 0.05
        assert "worker time=" in (op.analyze_detail() or "")
        assert worker_total >= max(op.stats.partition_agg_times)

    def test_sql_explain_analyze_with_maxdop(self):
        from repro.engine import Database

        with Database() as db:
            db.execute(
                "CREATE TABLE m (id INT PRIMARY KEY, grp VARCHAR(5))"
            )
            db.execute(
                "INSERT INTO m VALUES "
                + ", ".join(f"({i}, 'g{i % 3}')" for i in range(60))
            )
            text = db.explain(
                "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM m "
                "GROUP BY grp OPTION (MAXDOP 4)"
            )
        assert "actual rows=3" in text
        assert "actual rows=60" in text  # the scan, counted exactly once
        assert "time=" in text
        assert "workers=" in text


class TestRealWorkerExecution:
    """Exchange tiers that actually cross a process boundary."""

    @pytest.fixture
    def db(self):
        from repro.engine import Database

        with Database() as database:
            database.execute("CREATE TABLE s (g VARCHAR(5), v INT, f FLOAT)")
            database.execute(
                "INSERT INTO s VALUES "
                + ", ".join(
                    f"('g{i % 7}', {i}, {i}.25)" for i in range(2000)
                )
            )
            yield database

    def _run(self, db, sql):
        plan = db.plan(sql)
        rows = collect_rows(plan)
        return rows, exchange_node(plan)

    def test_integer_aggregate_offloads_the_scan(self, db):
        rows, node = self._run(
            db,
            "SELECT g, SUM(v), COUNT(*) FROM s "
            "GROUP BY g OPTION (MAXDOP 4)",
        )
        assert node is not None
        assert node.stats.mode == "parallel scan"
        assert node.stats.measured_parallel_wall > 0
        assert node.stats.bytes_shipped > 0
        assert node.stats.bytes_returned > 0
        assert node.stats.worker_breakdown
        serial = db.execute(
            "SELECT g, SUM(v), COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 1)"
        )
        assert list(rows) == list(serial.rows)

    def test_float_sum_takes_the_row_shipping_tier(self, db):
        rows, node = self._run(
            db, "SELECT g, SUM(f) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        assert node.stats.mode == "parallel rows"
        serial = db.execute(
            "SELECT g, SUM(f) FROM s GROUP BY g OPTION (MAXDOP 1)"
        )
        # bit-identical: hash partitioning keeps each group's floats on
        # one worker in serial accumulation order
        assert list(rows) == list(serial.rows)

    def test_scan_offload_counts_child_rows_once(self, db):
        plan = db.plan(
            "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        collect_rows(plan)
        node = exchange_node(plan)
        assert node.stats.mode == "parallel scan"
        (child,) = node.children()
        assert child.rows_out == 2000
        assert child.loops == 1

    def test_env_kill_switch_plans_serial_aggregate(self, db, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        rows, node = self._run(
            db, "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        assert node is None
        serial = db.execute(
            "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 1)"
        )
        assert repr(list(rows)) == repr(list(serial.rows))
        # the plan is exactly the one MAXDOP 1 gets, plus its note
        def shape(dop):
            text = db.plan(
                f"SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP {dop})"
            ).explain()
            return [line for line in text.splitlines() if "note:" not in line]

        assert shape(4) == shape(1)

    def test_disabled_pool_noted_in_explain(self, db, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        text = db.explain(
            "EXPLAIN SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        assert "Parallelism" not in text
        assert (
            "note: serial aggregate planned, no worker tier — "
            f"{DISABLE_ENV} is set"
        ) in text

    def test_analyze_shows_measured_wall_and_mode(self, db):
        text = db.explain(
            "EXPLAIN ANALYZE SELECT g, SUM(v) FROM s "
            "GROUP BY g OPTION (MAXDOP 4)"
        )
        assert "measured wall=" in text
        assert "mode=parallel scan" in text
        assert "w0=" in text

    def test_set_max_dop_caps_hints(self, db):
        db.execute("SET MAX_DOP 1")
        plan = db.plan(
            "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        assert exchange_node(plan) is None
        db.execute("SET MAX_DOP 0")
        plan = db.plan(
            "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        assert exchange_node(plan) is not None

    def test_workers_dmv_populates_after_parallel_query(self, db):
        db.execute("SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 2)")
        rows = db.query(
            "SELECT worker_id, state, tasks_completed FROM sys_dm_os_workers"
        )
        assert rows
        assert all(state == "running" for _w, state, _t in rows)
        assert sum(tasks for _w, _s, tasks in rows) > 0

    def test_query_stats_record_last_dop(self, db):
        db.execute("SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 3)")
        rows = db.query(
            "SELECT query_text, last_dop FROM sys_dm_exec_query_stats"
        )
        from repro.engine.querystore import normalize_statement

        by_text = dict(rows)
        key = normalize_statement(
            "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 3)"
        )
        assert by_text[key] == 3

    def test_columnstore_scan_offloads_with_predicates(self):
        from repro.engine import Database

        with Database() as database:
            database.execute(
                "CREATE TABLE cs (g VARCHAR(5), v INT) "
                "WITH (STORAGE = COLUMN)"
            )
            database.execute(
                "INSERT INTO cs VALUES "
                + ", ".join(f"('g{i % 3}', {i})" for i in range(1200))
            )
            plan = database.plan(
                "SELECT g, SUM(v) FROM cs WHERE v >= 600 "
                "GROUP BY g OPTION (MAXDOP 4)"
            )
            rows = collect_rows(plan)
            serial = database.execute(
                "SELECT g, SUM(v) FROM cs WHERE v >= 600 "
                "GROUP BY g OPTION (MAXDOP 1)"
            )
            assert list(rows) == list(serial.rows)


class TestRuntimeFallback:
    """An exchange whose workers fail at run time runs the serial hash
    aggregate over the same child: rows identical to MAXDOP 1, the
    fallback recorded and shown, the child driven exactly once."""

    #: integer SUM partitions the scan; float SUM ships coordinator rows
    TIER_SQL = {
        "parallel scan": "SELECT g, SUM(v), COUNT(*) FROM s GROUP BY g",
        "parallel rows": "SELECT g, SUM(f), COUNT(*) FROM s GROUP BY g",
    }

    @pytest.fixture(params=["heap", "column"])
    def db(self, request):
        from repro.engine import Database

        storage = {"heap": "", "column": " WITH (STORAGE = COLUMN)"}
        with Database() as database:
            database.execute(
                "CREATE TABLE s (g VARCHAR(5), v INT, f FLOAT)"
                + storage[request.param]
            )
            database.execute(
                "INSERT INTO s VALUES "
                + ", ".join(f"('g{i % 7}', {i}, {i}.25)" for i in range(600))
            )
            yield database

    @staticmethod
    def _check_fallback(node, rows, serial_rows, loops_before):
        assert repr(list(rows)) == repr(list(serial_rows))
        assert node.stats.mode == "serial"
        assert node.stats.fallback_reason
        assert "serial fallback:" in node.explain(analyze=True)
        (child,) = node.children()
        assert child.loops - loops_before == 1

    @pytest.mark.parametrize("mode", ["auto", "row"])
    @pytest.mark.parametrize("tier", sorted(TIER_SQL))
    def test_worker_pool_error(self, db, mode, tier, monkeypatch):
        db.execution_mode = mode
        sql = self.TIER_SQL[tier]
        serial = db.execute(f"{sql} OPTION (MAXDOP 1)")
        plan = db.plan(f"{sql} OPTION (MAXDOP 4)")
        node = exchange_node(plan)
        collect_rows(plan)
        assert node.stats.mode == tier

        def broken_run(*_args, **_kwargs):
            raise WorkerPoolError("injected worker failure")

        monkeypatch.setattr(db.worker_pool, "run", broken_run)
        plan = db.plan(f"{sql} OPTION (MAXDOP 4)")
        node = exchange_node(plan)
        plan.enable_timing()
        rows = collect_rows(plan)
        self._check_fallback(node, rows, serial.rows, 0)
        assert node.stats.fallback_reason == "injected worker failure"
        text = plan.explain(analyze=True)
        assert "loops=2" not in text

    @pytest.mark.parametrize("mode", ["auto", "row"])
    def test_pool_disabled_after_plan_is_cached(self, db, mode, monkeypatch):
        db.execution_mode = mode
        sql = f"{self.TIER_SQL['parallel scan']} OPTION (MAXDOP 4)"
        serial = db.execute(
            f"{self.TIER_SQL['parallel scan']} OPTION (MAXDOP 1)"
        )
        db.execute(sql)
        cached = db._last_select_plan
        node = exchange_node(cached)
        assert node.stats.mode == "parallel scan"
        (child,) = node.children()
        loops_before = child.loops

        monkeypatch.setenv(DISABLE_ENV, "1")
        result = db.execute(sql)
        assert db._last_select_plan is cached
        self._check_fallback(node, result.rows, serial.rows, loops_before)
        assert DISABLE_ENV in node.stats.fallback_reason
