"""Engine-wide observability: counters, spans, and the metrics registry.

SQL Server exposes its execution telemetry through dynamic management
views (``sys.dm_exec_query_stats``, ``sys.dm_db_index_usage_stats``,
``sys.dm_io_virtual_file_stats``); the paper's evaluation leans on that
introspection for its perfmon profiles (Figures 7/8) and actual-row plan
screenshots (Figures 9/10).  This module is our equivalent:

- :class:`Counters` — a dict of monotonically increasing integer
  counters, cheap enough to stay always-on in the storage layer;
- :class:`Span` / :class:`SpanTimeline` — the wall-clock span model
  shared by operator timing, ``SET STATISTICS TIME``, and the
  script-vs-SQL resource traces in :mod:`repro.baselines.trace`;
- :class:`MetricsRegistry` — per-database retention of per-query
  execution stats, surfaced as virtual system tables
  (``sys_dm_exec_query_stats`` et al.) and as a Prometheus-style text
  dump for external scraping;
- :class:`VirtualTable` — a read-only table backed by a Python
  callable, so the system views flow through the ordinary
  planner/binder/scan machinery and observability is itself SQL.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import BindError
from .querystore import normalize_statement
from .schema import Column, TableSchema
from .types import float_type, int_type, varchar_type

# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


class Counters(dict):
    """Monotonic integer counters, keyed by name.

    A missing key reads as zero, so call sites never pre-declare the
    counters they bump and read sites never guard against absence."""

    def __missing__(self, key: str) -> int:
        return 0

    def incr(self, key: str, amount: int = 1) -> None:
        self[key] = self.get(key, 0) + amount

    def merge(self, other: Dict[str, int], prefix: str = "") -> None:
        for key, value in other.items():
            self.incr(prefix + key, value)

    def snapshot(self) -> "Counters":
        return Counters(self)

    @staticmethod
    def delta(after: Dict[str, int], before: Dict[str, int]) -> "Counters":
        """Counters accumulated between two snapshots (zeros dropped)."""
        out = Counters()
        for key, value in after.items():
            diff = value - before.get(key, 0)
            if diff:
                out[key] = diff
        return out


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One named wall-clock interval with free-form attributes."""

    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTimeline:
    """An ordered collection of spans sharing one time origin.

    The first recorded span pins the origin; later spans are normalised
    relative to it so timelines render from t=0 regardless of when the
    process started."""

    def __init__(self, label: str = ""):
        self.label = label
        self.spans: List[Span] = []
        self._origin: Optional[float] = None

    def add_span(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> Span:
        if self._origin is None:
            self._origin = start
        span = Span(name, start - self._origin, end - self._origin, dict(attrs))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        start = time.perf_counter()
        try:
            yield Span(name, 0.0, 0.0, dict(attrs))
        finally:
            self.add_span(name, start, time.perf_counter(), **attrs)

    @property
    def total_time(self) -> float:
        if not self.spans:
            return 0.0
        return max(span.end for span in self.spans)


# ---------------------------------------------------------------------------
# per-query stats retention
# ---------------------------------------------------------------------------


@dataclass
class QueryStats:
    """Aggregated execution statistics for one normalised query text."""

    query_text: str
    statement_kind: str
    execution_count: int = 0
    total_elapsed: float = 0.0
    last_elapsed: float = 0.0
    total_rows: int = 0
    total_logical_reads: int = 0
    total_pages_written: int = 0
    total_batch_reads: int = 0
    total_segments_read: int = 0
    total_segments_skipped: int = 0
    #: degree of parallelism of the most recent execution's plan (1 when
    #: the plan had no exchange operator)
    last_dop: int = 1

    def record(
        self, elapsed: float, rows: int, io: Dict[str, int], dop: int = 1
    ) -> None:
        self.execution_count += 1
        self.last_dop = dop
        self.total_elapsed += elapsed
        self.last_elapsed = elapsed
        self.total_rows += rows
        self.total_logical_reads += io.get("pages_read", 0) + io.get(
            "index_node_visits", 0
        )
        self.total_pages_written += io.get("pages_written", 0)
        self.total_batch_reads += io.get("batch_reads", 0)
        self.total_segments_read += io.get("segments_read", 0)
        self.total_segments_skipped += io.get("segments_skipped", 0)

    def snapshot(self) -> "QueryStats":
        """An immutable copy: the registry mutates its own entry in
        place on every re-execution, so anything that retains a stats
        row (the query store, the slow-query log) must hold a snapshot,
        never the live object."""
        return replace(self)


class MetricsRegistry:
    """Per-database retention of query, index, and IO statistics.

    The registry only stores aggregates keyed by normalised query text —
    the DMV model — so memory stays bounded by the number of distinct
    statements, not the number of executions."""

    def __init__(self, retain: int = 256):
        self.retain = retain
        self._queries: Dict[str, QueryStats] = {}

    def record_statement(
        self,
        sql: str,
        kind: str,
        elapsed: float,
        rows: int,
        io: Dict[str, int],
        dop: int = 1,
        normalized: Optional[str] = None,
    ) -> QueryStats:
        # callers that already hold the normalized text (the database
        # shares the query store's memoized normalization across the
        # metrics registry, the plan cache key, and query-store capture)
        # pass it in so one statement is tokenized once, not three times
        text = (
            normalized if normalized is not None else normalize_statement(sql)
        )
        stats = self._queries.get(text)
        if stats is None:
            if len(self._queries) >= self.retain:
                # DMV semantics: old entries age out; drop the oldest
                oldest = next(iter(self._queries))
                del self._queries[oldest]
            stats = QueryStats(query_text=text, statement_kind=kind)
            self._queries[text] = stats
        stats.record(elapsed, rows, io, dop=dop)
        # hand back a snapshot: callers that keep the row (query store,
        # slow-query log) must not see it mutate on the next execution
        return stats.snapshot()

    def clear(self) -> None:
        self._queries.clear()

    def queries(self) -> List[QueryStats]:
        return [stats.snapshot() for stats in self._queries.values()]

    # -- system-view row sources ------------------------------------------------

    def query_stats_rows(self) -> List[Tuple[Any, ...]]:
        rows = []
        for q in self._queries.values():
            avg = q.total_elapsed / q.execution_count if q.execution_count else 0.0
            rows.append(
                (
                    q.query_text,
                    q.statement_kind,
                    q.execution_count,
                    round(q.total_elapsed * 1000.0, 3),
                    round(avg * 1000.0, 3),
                    round(q.last_elapsed * 1000.0, 3),
                    q.total_rows,
                    q.total_logical_reads,
                    q.total_pages_written,
                    q.total_batch_reads,
                    q.total_segments_read,
                    q.total_segments_skipped,
                    q.last_dop,
                )
            )
        return rows

    def prometheus_text(
        self,
        io_totals: Dict[str, int],
        workers: Optional[Sequence[Tuple[Any, ...]]] = None,
        waits: Optional[Sequence[Tuple[Any, ...]]] = None,
        plan_cache: Optional[Dict[str, int]] = None,
    ) -> str:
        """Render the registry as Prometheus exposition-format text.

        ``workers`` takes ``sys_dm_os_workers`` rows, ``waits`` takes
        ``sys_dm_os_wait_stats`` rows, and ``plan_cache`` takes the
        plan cache's flat counter map, so pool utilisation, wait
        accounting, and cache effectiveness scrape alongside the
        per-query counters."""
        lines = [
            "# HELP repro_engine_query_executions_total "
            "Executions per normalised query text.",
            "# TYPE repro_engine_query_executions_total counter",
        ]
        for q in self._queries.values():
            label = q.query_text.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(
                f'repro_engine_query_executions_total{{query="{label}"}} '
                f"{q.execution_count}"
            )
        lines += [
            "# HELP repro_engine_query_elapsed_seconds_total "
            "Total wall-clock seconds per normalised query text.",
            "# TYPE repro_engine_query_elapsed_seconds_total counter",
        ]
        for q in self._queries.values():
            label = q.query_text.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(
                f'repro_engine_query_elapsed_seconds_total{{query="{label}"}} '
                f"{q.total_elapsed:.6f}"
            )
        lines += [
            "# HELP repro_engine_query_last_dop "
            "Degree of parallelism of each query's most recent plan.",
            "# TYPE repro_engine_query_last_dop gauge",
        ]
        for q in self._queries.values():
            label = q.query_text.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(
                f'repro_engine_query_last_dop{{query="{label}"}} {q.last_dop}'
            )
        lines += [
            "# HELP repro_engine_query_segments_total "
            "Columnstore segments read/skipped per normalised query text.",
            "# TYPE repro_engine_query_segments_total counter",
        ]
        for q in self._queries.values():
            label = q.query_text.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(
                f'repro_engine_query_segments_total{{query="{label}",'
                f'outcome="read"}} {q.total_segments_read}'
            )
            lines.append(
                f'repro_engine_query_segments_total{{query="{label}",'
                f'outcome="skipped"}} {q.total_segments_skipped}'
            )
        lines += [
            "# HELP repro_engine_io_total Storage-layer IO counters.",
            "# TYPE repro_engine_io_total counter",
        ]
        for key in sorted(io_totals):
            lines.append(
                f'repro_engine_io_total{{counter="{key}"}} {io_totals[key]}'
            )
        if workers is not None:
            lines += [
                "# HELP repro_engine_worker_tasks_completed_total "
                "Tasks completed per pool worker.",
                "# TYPE repro_engine_worker_tasks_completed_total counter",
                "# HELP repro_engine_worker_rows_processed_total "
                "Rows processed per pool worker.",
                "# TYPE repro_engine_worker_rows_processed_total counter",
                "# HELP repro_engine_worker_busy_seconds_total "
                "In-task wall-clock seconds per pool worker.",
                "# TYPE repro_engine_worker_busy_seconds_total counter",
            ]
            for worker_id, _pid, _state, tasks, rows, busy_ms, _last in (
                workers
            ):
                lines.append(
                    "repro_engine_worker_tasks_completed_total"
                    f'{{worker="{worker_id}"}} {tasks}'
                )
                lines.append(
                    "repro_engine_worker_rows_processed_total"
                    f'{{worker="{worker_id}"}} {rows}'
                )
                lines.append(
                    "repro_engine_worker_busy_seconds_total"
                    f'{{worker="{worker_id}"}} {busy_ms / 1000.0:.6f}'
                )
        if waits is not None:
            lines += [
                "# HELP repro_engine_wait_seconds_total "
                "Cumulative engine wait time by wait type.",
                "# TYPE repro_engine_wait_seconds_total counter",
                "# HELP repro_engine_waiting_tasks_total "
                "Cumulative waits observed by wait type.",
                "# TYPE repro_engine_waiting_tasks_total counter",
            ]
            for wait_type, count, wait_ms, _max_ms in waits:
                lines.append(
                    "repro_engine_wait_seconds_total"
                    f'{{wait_type="{wait_type}"}} {wait_ms / 1000.0:.6f}'
                )
                lines.append(
                    "repro_engine_waiting_tasks_total"
                    f'{{wait_type="{wait_type}"}} {count}'
                )
        if plan_cache is not None:
            lines += [
                "# HELP repro_engine_plan_cache_total "
                "Plan cache events (hits, misses, recompiles, "
                "evictions) and gauges (entries, unstable).",
                "# TYPE repro_engine_plan_cache_total counter",
            ]
            for key in sorted(plan_cache):
                lines.append(
                    f'repro_engine_plan_cache_total{{event="{key}"}} '
                    f"{plan_cache[key]}"
                )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# virtual system tables
# ---------------------------------------------------------------------------


class VirtualTable:
    """A read-only table whose rows come from a Python callable.

    Implements just enough of the :class:`~repro.engine.table.Table`
    surface (``schema``, ``row_count``, ``scan``, ``statistics``,
    ``secondary_indexes``) for the planner's access-path selection and
    the executor's TableScan to treat it like any heap."""

    def __init__(self, schema: TableSchema, rows_fn: Callable[[], Sequence[Tuple]]):
        self.schema = schema
        self._rows_fn = rows_fn
        self.statistics = None

    @property
    def row_count(self) -> int:
        return len(self._rows_fn())

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self._rows_fn())

    def secondary_indexes(self) -> Dict[str, Any]:
        return {}

    def _read_only(self, *_args: Any, **_kwargs: Any) -> Any:
        raise BindError(f"system view {self.schema.name!r} is read-only")

    insert = _read_only
    delete_where = _read_only
    update_where = _read_only


def _view_schema(name: str, columns: Sequence[Tuple[str, Any]]) -> TableSchema:
    return TableSchema(
        name,
        [Column(col_name, col_type) for col_name, col_type in columns],
    )


def make_system_views(db: "Any") -> Dict[str, VirtualTable]:
    """Build the DMV-style virtual tables bound to one database."""
    query_stats = VirtualTable(
        _view_schema(
            "sys_dm_exec_query_stats",
            [
                ("query_text", varchar_type(-1)),
                ("statement_kind", varchar_type(64)),
                ("execution_count", int_type()),
                ("total_elapsed_ms", float_type()),
                ("avg_elapsed_ms", float_type()),
                ("last_elapsed_ms", float_type()),
                ("total_rows", int_type()),
                ("total_logical_reads", int_type()),
                ("total_pages_written", int_type()),
                ("total_batch_reads", int_type()),
                ("total_segments_read", int_type()),
                ("total_segments_skipped", int_type()),
                ("last_dop", int_type()),
            ],
        ),
        lambda: db.metrics.query_stats_rows(),
    )

    os_workers = VirtualTable(
        _view_schema(
            "sys_dm_os_workers",
            [
                ("worker_id", int_type()),
                ("pid", int_type()),
                ("state", varchar_type(16)),
                ("tasks_completed", int_type()),
                ("rows_processed", int_type()),
                ("busy_ms", float_type()),
                ("last_task_ms", float_type()),
            ],
        ),
        lambda: db.worker_pool_rows(),
    )

    def index_stats_rows() -> List[Tuple[Any, ...]]:
        rows = []
        for table in db.catalog.tables():
            pk = getattr(table, "_pk_index", None)
            if pk is not None:
                rows.append(
                    (
                        table.schema.name,
                        "PK_" + table.schema.name,
                        "CLUSTERED",
                        pk.depth(),
                        len(pk),
                        pk.io.get("seeks", 0),
                        pk.io.get("node_visits", 0),
                    )
                )
            for index_name, (_cols, tree) in getattr(
                table, "_secondary", {}
            ).items():
                rows.append(
                    (
                        table.schema.name,
                        index_name,
                        "NONCLUSTERED",
                        tree.depth(),
                        len(tree),
                        tree.io.get("seeks", 0),
                        tree.io.get("node_visits", 0),
                    )
                )
        return rows

    index_stats = VirtualTable(
        _view_schema(
            "sys_dm_db_index_stats",
            [
                ("table_name", varchar_type(128)),
                ("index_name", varchar_type(128)),
                ("index_type", varchar_type(32)),
                ("depth", int_type()),
                ("entry_count", int_type()),
                ("seeks", int_type()),
                ("node_visits", int_type()),
            ],
        ),
        index_stats_rows,
    )

    io_stats = VirtualTable(
        _view_schema(
            "sys_dm_io_stats",
            [("counter", varchar_type(128)), ("value", int_type())],
        ),
        lambda: sorted(db._io_totals().items()),
    )

    def segment_stats_rows() -> List[Tuple[Any, ...]]:
        rows = []
        for table in db.catalog.tables():
            store = getattr(table, "store", None)
            if store is None:
                continue
            for entry in store.segment_report():
                rows.append(
                    (
                        table.schema.name,
                        entry["column_name"],
                        entry["segment_id"],
                        entry["encoding"],
                        entry["rows"],
                        entry["null_count"],
                        entry["n_distinct"],
                        repr(entry["min_value"]),
                        repr(entry["max_value"]),
                        entry["encoded_bytes"],
                    )
                )
        return rows

    segment_stats = VirtualTable(
        _view_schema(
            "sys_dm_db_segment_stats",
            [
                ("table_name", varchar_type(128)),
                ("column_name", varchar_type(128)),
                ("segment_id", int_type()),
                ("encoding", varchar_type(16)),
                ("row_count", int_type()),
                ("null_count", int_type()),
                ("n_distinct", int_type()),
                ("min_value", varchar_type(-1)),
                ("max_value", varchar_type(-1)),
                ("encoded_bytes", int_type()),
            ],
        ),
        segment_stats_rows,
    )

    def verify_rows() -> List[Tuple[Any, ...]]:
        rows = list(db.catalog.functions.verification_rows())
        rows.extend(db.lint_rows())
        return rows

    verify_results = VirtualTable(
        _view_schema(
            "sys_dm_verify_results",
            [
                ("object_type", varchar_type(32)),
                ("object_name", varchar_type(128)),
                ("rule", varchar_type(64)),
                ("severity", varchar_type(16)),
                ("message", varchar_type(-1)),
                # the originating statement (normalised SQL prefix) for
                # plan-level findings, or the registered object path for
                # UDx-level findings — so the two are distinguishable
                ("source", varchar_type(-1)),
            ],
        ),
        verify_rows,
    )

    query_store_query = VirtualTable(
        _view_schema(
            "sys_dm_query_store_query",
            [
                ("query_id", int_type()),
                ("query_text", varchar_type(-1)),
                ("statement_kind", varchar_type(64)),
                ("first_seen", varchar_type(32)),
                ("last_seen", varchar_type(32)),
                ("execution_count", int_type()),
                ("plan_count", int_type()),
            ],
        ),
        lambda: db.query_store.query_rows(),
    )

    query_store_plan = VirtualTable(
        _view_schema(
            "sys_dm_query_store_plan",
            [
                ("plan_id", int_type()),
                ("query_id", int_type()),
                ("plan_text", varchar_type(-1)),
                ("est_rows", int_type()),
                ("first_seen", varchar_type(32)),
                ("last_dop", int_type()),
                ("execution_count", int_type()),
            ],
        ),
        lambda: db.query_store.plan_rows(),
    )

    query_store_runtime = VirtualTable(
        _view_schema(
            "sys_dm_query_store_runtime_stats",
            [
                ("query_id", int_type()),
                ("plan_id", int_type()),
                ("interval_id", int_type()),
                ("interval_start", varchar_type(32)),
                ("executions", int_type()),
                ("total_elapsed_ms", float_type()),
                ("avg_elapsed_ms", float_type()),
                ("last_elapsed_ms", float_type()),
                ("total_rows", int_type()),
                ("last_est_rows", int_type()),
                ("last_actual_rows", int_type()),
                ("total_logical_reads", int_type()),
                ("total_batch_reads", int_type()),
                ("total_segments_read", int_type()),
                ("total_segments_skipped", int_type()),
                ("last_dop", int_type()),
            ],
        ),
        lambda: db.query_store.runtime_rows(),
    )

    wait_stats = VirtualTable(
        _view_schema(
            "sys_dm_os_wait_stats",
            [
                ("wait_type", varchar_type(32)),
                ("waiting_tasks_count", int_type()),
                ("wait_time_ms", float_type()),
                ("max_wait_time_ms", float_type()),
            ],
        ),
        lambda: db.tracer.wait_stats.rows(),
    )

    trace_spans = VirtualTable(
        _view_schema(
            "sys_dm_exec_trace_spans",
            [
                ("trace_id", int_type()),
                ("span_id", int_type()),
                ("parent_span_id", int_type()),
                ("name", varchar_type(-1)),
                ("category", varchar_type(32)),
                ("wait_type", varchar_type(32)),
                ("start_ms", float_type()),
                ("duration_ms", float_type()),
                ("pid", int_type()),
                ("worker", int_type()),
            ],
        ),
        lambda: db.tracer.span_rows(),
    )

    cached_plans = VirtualTable(
        _view_schema(
            "sys_dm_exec_cached_plans",
            [
                ("query_text", varchar_type(-1)),
                ("state", varchar_type(64)),
                ("hit_count", int_type()),
                ("recompile_count", int_type()),
                ("parameter_count", int_type()),
                ("guard_count", int_type()),
                ("created_at", int_type()),
                ("last_used_at", int_type()),
            ],
        ),
        lambda: db.plan_cache.entry_rows(),
    )

    plan_cache_stats = VirtualTable(
        _view_schema(
            "sys_dm_exec_plan_cache_stats",
            [("counter", varchar_type(128)), ("value", int_type())],
        ),
        lambda: db.plan_cache.stats_rows(),
    )

    slow_queries = VirtualTable(
        _view_schema(
            "sys_dm_exec_slow_queries",
            [
                ("query_text", varchar_type(-1)),
                ("statement_kind", varchar_type(64)),
                ("elapsed_ms", float_type()),
                ("threshold_ms", float_type()),
                ("row_count", int_type()),
                ("dop", int_type()),
                ("started_at", varchar_type(32)),
            ],
        ),
        lambda: db.slow_query_rows(),
    )

    return {
        "sys_dm_exec_query_stats": query_stats,
        "sys_dm_db_index_stats": index_stats,
        "sys_dm_io_stats": io_stats,
        "sys_dm_db_segment_stats": segment_stats,
        "sys_dm_verify_results": verify_results,
        "sys_dm_os_workers": os_workers,
        "sys_dm_query_store_query": query_store_query,
        "sys_dm_query_store_plan": query_store_plan,
        "sys_dm_query_store_runtime_stats": query_store_runtime,
        "sys_dm_os_wait_stats": wait_stats,
        "sys_dm_exec_trace_spans": trace_spans,
        "sys_dm_exec_slow_queries": slow_queries,
        "sys_dm_exec_cached_plans": cached_plans,
        "sys_dm_exec_plan_cache_stats": plan_cache_stats,
    }
