"""The observability layer: counters, spans, the metrics registry, the
DMV-style system views, and SET STATISTICS TIME/IO."""

import pytest

from repro.engine import Database
from repro.engine.errors import BindError
from repro.engine.metrics import Counters, MetricsRegistry, Span, SpanTimeline
from repro.engine.querystore import normalize_statement


class TestCounters:
    def test_missing_key_reads_zero(self):
        counters = Counters()
        assert counters["anything"] == 0
        assert "anything" not in counters  # reading must not materialise

    def test_incr(self):
        counters = Counters()
        counters.incr("pages_read")
        counters.incr("pages_read", 4)
        assert counters["pages_read"] == 5

    def test_merge_with_prefix(self):
        counters = Counters({"pages_read": 2})
        counters.merge({"seeks": 3, "node_visits": 7}, prefix="index_")
        assert counters["index_seeks"] == 3
        assert counters["index_node_visits"] == 7
        assert counters["pages_read"] == 2

    def test_snapshot_is_independent(self):
        counters = Counters({"a": 1})
        snap = counters.snapshot()
        counters.incr("a")
        assert snap["a"] == 1

    def test_delta_drops_zero_entries(self):
        before = Counters({"a": 1, "b": 5})
        after = Counters({"a": 3, "b": 5, "c": 2})
        delta = Counters.delta(after, before)
        assert delta == {"a": 2, "c": 2}


class TestSpans:
    def test_span_duration(self):
        assert Span("x", 1.0, 3.5).duration == pytest.approx(2.5)

    def test_timeline_normalises_origin(self):
        timeline = SpanTimeline("t")
        timeline.add_span("a", 10.0, 11.0)
        timeline.add_span("b", 11.0, 13.0)
        assert timeline.spans[0].start == pytest.approx(0.0)
        assert timeline.spans[1].end == pytest.approx(3.0)
        assert timeline.total_time == pytest.approx(3.0)

    def test_span_context_manager(self):
        timeline = SpanTimeline("t")
        with timeline.span("work", detail="x"):
            pass
        (span,) = timeline.spans
        assert span.name == "work"
        assert span.attrs["detail"] == "x"
        assert span.duration >= 0.0


class TestRegistry:
    def test_normalize_collapses_whitespace_and_masks_literals(self):
        # the registry keys on the query store's lexer-based
        # normalization: whitespace collapses AND literals mask to '?',
        # so parameterized repetitions share one stats row
        assert normalize_statement("SELECT  x\n  FROM   t") == (
            "SELECT x FROM t"
        )
        assert normalize_statement("SELECT x FROM t WHERE id = 3") == (
            normalize_statement("SELECT x FROM t WHERE id = 99")
        )

    def test_repeat_executions_aggregate(self):
        registry = MetricsRegistry()
        registry.record_statement("SELECT 1", "SELECT", 0.5, 1, {})
        registry.record_statement("SELECT  1", "SELECT", 0.25, 1, {})
        (stats,) = registry.queries()
        assert stats.execution_count == 2
        assert stats.total_elapsed == pytest.approx(0.75)

    def test_parameterized_repetitions_share_a_row(self):
        registry = MetricsRegistry()
        registry.record_statement("SELECT a FROM t WHERE id = 1", "SELECT", 0.5, 1, {})
        registry.record_statement("SELECT a FROM t WHERE id = 2", "SELECT", 0.25, 1, {})
        (stats,) = registry.queries()
        assert stats.execution_count == 2

    def test_retention_evicts_oldest(self):
        registry = MetricsRegistry(retain=2)
        registry.record_statement("SELECT a", "SELECT", 0.1, 1, {})
        registry.record_statement("SELECT b", "SELECT", 0.1, 1, {})
        registry.record_statement("SELECT c", "SELECT", 0.1, 1, {})
        texts = [q.query_text for q in registry.queries()]
        assert "SELECT a" not in texts
        assert texts == ["SELECT b", "SELECT c"]


@pytest.fixture
def db():
    with Database() as database:
        database.execute(
            """
            CREATE TABLE t (id INT PRIMARY KEY, grp VARCHAR(5));
            INSERT INTO t VALUES (1, 'a'), (2, 'a'), (3, 'b');
            """
        )
        yield database


class TestSystemViews:
    def test_query_stats_view(self, db):
        db.query("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        rows = db.query(
            "SELECT query_text, statement_kind, execution_count, total_rows"
            " FROM sys_dm_exec_query_stats"
        )
        by_text = {r[0]: r for r in rows}
        stats = by_text[
            normalize_statement("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        ]
        assert stats[1] == "SELECT"
        assert stats[2] == 1
        assert stats[3] == 2
        # the INSERT from the fixture is retained too
        assert any(kind == "INSERT" for _q, kind, _n, _r in rows)

    def test_index_stats_view(self, db):
        db.query("SELECT id FROM t WHERE id = 2")
        rows = db.query(
            "SELECT table_name, index_name, index_type, entry_count, seeks"
            " FROM sys_dm_db_index_stats"
        )
        (row,) = [r for r in rows if r[0] == "t"]
        assert row[1] == "PK_t"
        assert row[2] == "CLUSTERED"
        assert row[3] == 3
        assert row[4] >= 1  # at least the point lookup

    def test_io_stats_view(self, db):
        list(db.table("t").scan())
        io = dict(db.query("SELECT counter, value FROM sys_dm_io_stats"))
        assert io["rows_inserted"] == 3
        assert io["pages_written"] >= 1
        assert io["scans"] >= 1

    def test_io_stats_mixed_engines_no_counter_collision(self, db):
        # regression: heap PAGE compression and columnstore encoding once
        # shared compression_bytes_in/out, so a mixed-engine database
        # summed two unrelated ratios into one sys_dm_io_stats row
        db.execute(
            "CREATE TABLE ct (id INT, v INT) "
            "WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 4)"
        )
        db.execute(
            "INSERT INTO ct VALUES (1, 1), (2, 1), (3, 2), (4, 2), (5, 3)"
        )
        db.query("SELECT COUNT(*) FROM ct WHERE id > 2")
        io = dict(db.query("SELECT counter, value FROM sys_dm_io_stats"))
        # columnstore counters live in their own namespace...
        assert io["segments_written"] >= 1
        assert io["segment_bytes_in"] > 0
        assert io["segment_bytes_out"] > 0
        assert io["segments_read"] >= 1
        # ...and never leak into the heap's page/compression counters
        assert io.get("compression_bytes_in", 0) == 0
        heap_io = db.table("t").io_report()
        column_io = db.table("ct").io_report()
        assert "segments_written" not in heap_io
        assert "pages_written" not in column_io

    def test_query_stats_view_reports_segment_pruning(self, db):
        db.execute(
            "CREATE TABLE cq (id INT) "
            "WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 4)"
        )
        db.execute(
            "INSERT INTO cq VALUES (1), (2), (3), (4), (5), (6), (7), (8)"
        )
        db.query("SELECT COUNT(*) FROM cq WHERE id > 6")
        rows = db.query(
            "SELECT query_text, total_segments_read, total_segments_skipped "
            "FROM sys_dm_exec_query_stats WHERE total_segments_skipped > 0"
        )
        assert rows
        assert rows[0][0] == normalize_statement(
            "SELECT COUNT(*) FROM cq WHERE id > 6"
        )

    def test_views_are_read_only(self, db):
        with pytest.raises(BindError):
            db.execute("INSERT INTO sys_dm_io_stats VALUES ('x', 1)")
        with pytest.raises(BindError):
            db.execute("DELETE FROM sys_dm_exec_query_stats")

    def test_views_hidden_from_table_listing(self, db):
        assert "sys_dm_io_stats" not in db.catalog.table_names()
        assert db.catalog.has_table("sys_dm_io_stats")

    def test_source_sql_split_and_normalized_per_statement(self, db):
        db.execute(
            "SELECT COUNT(*) FROM t; SELECT grp FROM t WHERE id = 1"
        )
        texts = [
            q.query_text for q in db.metrics.queries()
        ]
        assert normalize_statement("SELECT COUNT(*) FROM t") in texts
        assert normalize_statement("SELECT grp FROM t WHERE id = 1") in texts


class TestSetStatistics:
    def test_statistics_io_messages(self, db):
        db.execute("SET STATISTICS IO ON")
        db.query("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        assert any(
            m.startswith("Table 't'. Scan count 1, logical reads ")
            for m in db.messages
        )
        db.execute("SET STATISTICS IO OFF")
        db.query("SELECT COUNT(*) FROM t")
        assert db.messages == []

    def test_statistics_time_messages(self, db):
        db.execute("SET STATISTICS TIME ON")
        db.query("SELECT COUNT(*) FROM t")
        assert any(
            m.startswith("Execution Times: elapsed time = ")
            for m in db.messages
        )

    def test_set_statistics_rejects_unknown_option(self, db):
        from repro.engine.errors import SqlSyntaxError

        with pytest.raises(SqlSyntaxError):
            db.execute("SET STATISTICS PROFILE ON")


class TestExplainAnalyze:
    def test_reports_time_and_loops(self, db):
        text = db.explain(
            "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM t GROUP BY grp"
        )
        assert "actual rows=2" in text
        assert "time=" in text
        assert "loops=1" in text

    def test_plain_explain_has_no_actuals(self, db):
        text = db.explain("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        assert "actual rows" not in text
        assert "time=" not in text

    def test_loops_counted_on_rescanned_inner(self, db):
        db.execute(
            """
            CREATE TABLE u (uid INT PRIMARY KEY, grp VARCHAR(5));
            INSERT INTO u VALUES (10, 'a'), (11, 'b'), (12, 'b');
            """
        )
        op = db.plan(
            "SELECT id, uid FROM t JOIN u ON (t.grp = u.grp)"
        )
        op.enable_timing()
        rows = list(op)
        assert len(rows) == 4  # a:2*1 + b:1*2
        text = op.explain(analyze=True)
        assert "actual rows=" in text
        # every node accounts for exactly the rows it emitted, summed
        # across loops
        def walk(node):
            yield node
            for child in node.children():
                yield from walk(child)

        for node in walk(op):
            assert node.rows_out == sum(node.loop_rows)
            assert node.loops == len(node.loop_rows)

    def test_untimed_execution_stays_cold(self, db):
        op = db.plan("SELECT COUNT(*) FROM t")
        list(op)
        assert op.rows_out == 1
        assert op.elapsed == 0.0  # the timed path is opt-in


class TestPrometheus:
    def test_exposition_text(self, db):
        db.query("SELECT COUNT(*) FROM t")
        text = db.metrics_prometheus()
        assert "# TYPE repro_engine_query_executions_total counter" in text
        label = normalize_statement("SELECT COUNT(*) FROM t")
        assert (
            f'repro_engine_query_executions_total{{query="{label}"}} 1'
            in text
        )
        assert 'repro_engine_io_total{counter="rows_inserted"} 3' in text
        assert 'repro_engine_plan_cache_total{event="misses"} 1' in text
