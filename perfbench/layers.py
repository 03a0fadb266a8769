"""The traced run: spans around each layer's public entry points, and the
per-layer metrics derived from them and from the engine's own counters.

Nothing inside the engine is instrumented. :func:`installed` swaps each
entry point in :data:`TARGETS` for a wrapper that records a span (name,
start, end, parent span, operation id) and restores the originals on
exit. A layer's self time is its span durations minus the time covered
by wrapped children. Spans are kept in memory and written as one Chrome
trace when the run ends.

The counts come from public accessors: ``Table.io_report()``,
``db.filestream.io``, ``plan_cache.stats_dict()`` and
``worker_pool_rows()``.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional

import repro.engine.database as database_module
from repro.core.warehouse import GenomicsWarehouse
from repro.core.workflow import SequencingWorkflow
from repro.engine.database import Database
from repro.engine.metrics import MetricsRegistry
from repro.engine.planner import Planner
from repro.engine.plancache import PlanCache
from repro.engine.querystore import QueryStore
from repro.engine.table import Table
from repro.engine.workers import WorkerPool
from repro.genomics.aligner import ShortReadAligner


def _statement_name(args) -> str:
    # the hybrid import's ETL statement is the FILESTREAM TVF scan
    sql = args[1] if len(args) > 1 else ""
    return "statement.tvf" if "ListShortReads(" in sql else "statement"


#: (owner, attribute, span name or a function of the call's arguments)
TARGETS: List[tuple] = [
    (SequencingWorkflow, "run_primary", "workflow.primary"),
    (SequencingWorkflow, "run_secondary", "workflow.secondary"),
    (SequencingWorkflow, "run_tertiary", "workflow.tertiary"),
    *(
        (GenomicsWarehouse, method, f"warehouse.{method}")
        for method in (
            "import_lane_relational",
            "import_lane_hybrid",
            "load_reads_from_filestream",
            "bin_unique_tags",
            "align_reads",
            "align_tags",
            "call_consensus",
            "compute_gene_expression",
        )
    ),
    (ShortReadAligner, "align", "aligner.align"),
    (Table, "insert", "table.insert"),
    (Table, "io_report", "bookkeeping.io_report"),
    (database_module, "parse_sql", "sql.parse"),
    (PlanCache, "fetch_text", "plancache.fetch_text"),
    (Planner, "plan_select", "planner.plan_select"),
    (Database, "execute", _statement_name),
    (MetricsRegistry, "record_statement", "bookkeeping.metrics_record"),
    (QueryStore, "record", "bookkeeping.querystore_record"),
    (WorkerPool, "run", "workers.run"),
]

#: spans whose non-None results are counted as hits
HIT_SPANS = ("aligner.align", "plancache.fetch_text")


class SpanRecorder:
    """In-memory spans plus running per-name totals.

    ``inclusive`` counts only the outermost span of a name (a recursive
    call is part of its caller); ``self_time`` is each span's duration
    minus its wrapped children; ``calls`` counts outermost calls."""

    def __init__(self, limit: int = 200_000):
        self.limit = limit
        self.spans: List[tuple] = []
        self.dropped = 0
        self.recording = True
        self.op_id = 0
        self._stack: List[list] = []
        self._next_id = 0
        self._depth: Counter = Counter()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()

    def open(self, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        span = [name, self._next_id, parent, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(span)
        self._depth[name] += 1
        return span

    def close(self, span: list) -> None:
        end = perf_counter()
        self._stack.pop()
        name, span_id, parent, start, children = span
        duration = end - start
        self._depth[name] -= 1
        self.self_time[name] += duration - children
        if not self._depth[name]:
            self.inclusive[name] += duration
            self.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += duration
        if len(self.spans) < self.limit:
            self.spans.append((name, span_id, parent, start, end, self.op_id))
        else:
            self.dropped += 1

    @contextmanager
    def operation(self, kind: str):
        """One benchmark operation (a set-up, a lane, a lookup...): its
        spans share an operation id under an ``op.<kind>`` root."""
        self.op_id += 1
        span = self.open(f"op.{kind}")
        try:
            yield
        finally:
            self.close(span)

    @contextmanager
    def paused(self):
        """Calls made by the benchmark itself (counter reads) are not
        spans of the program."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def totals(self) -> Dict[str, Dict[str, float]]:
        return {
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "hits": dict(self.hits),
        }

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "op": op},
            }
            for name, span_id, parent, start, end, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "droppedSpans": self.dropped})
        )


def _wrap(recorder: SpanRecorder, fn: Callable, name) -> Callable:
    counts_hits = name in HIT_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.recording:
            return fn(*args, **kwargs)
        span = recorder.open(name if isinstance(name, str) else name(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if counts_hits and result is not None:
            recorder.hits[span[0]] += 1
        return result

    return wrapper


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every entry point in :data:`TARGETS` for the duration."""
    originals = []
    try:
        for owner, attribute, name in TARGETS:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, original, name))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# counters and per-layer metrics
# ---------------------------------------------------------------------------


def io_totals(db) -> Counter:
    """Every table's ``io_report()`` summed."""
    totals: Counter = Counter()
    for table in db.catalog.tables():
        totals.update(table.io_report())
    return totals


def storage_totals(db) -> Dict[str, int]:
    """``storage_report()`` summed: in-row, uncompressed and FILESTREAM
    bytes."""
    out = {"data": 0, "uncompressed": 0, "filestream": 0}
    for row in db.storage_report():
        out["data"] += row["data_bytes"]
        out["uncompressed"] += row["uncompressed_bytes"]
        out["filestream"] += row["filestream_bytes"]
    return out


class Probe:
    """Counter reads of one traced iteration, taken around the load and
    around each read operation, outside every timed interval."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._start = recorder.totals()
        self.counts: Counter = Counter()
        self._load_io: Optional[Counter] = None
        self._load_storage: Optional[Dict[str, int]] = None

    def load_started(self, db) -> None:
        with self.recorder.paused():
            self._load_io = io_totals(db)
            self._load_storage = storage_totals(db)

    def load_finished(self, db) -> None:
        with self.recorder.paused():
            io = io_totals(db)
            storage = storage_totals(db)
        for key in ("pages_written", "bytes_written"):
            self.counts[key] += io[key] - self._load_io[key]
        for key in ("data", "uncompressed"):
            self.counts[f"storage_{key}"] += storage[key] - self._load_storage[key]

    @contextmanager
    def around(self, db, kind: str):
        with self.recorder.paused():
            before = io_totals(db)
        with self.recorder.operation(kind):
            yield
        with self.recorder.paused():
            after = io_totals(db)
        self.counts[f"{kind}_ops"] += 1
        self.counts[f"{kind}_node_visits"] += (
            after["index_node_visits"] - before["index_node_visits"]
        )
        self.counts[f"{kind}_pages_read"] += after["pages_read"] - before["pages_read"]

    def finish(self, db) -> Dict[str, float]:
        """The iteration's per-layer metrics; call before ``db.close()``."""
        with self.recorder.paused():
            io = io_totals(db)
            cache = db.plan_cache.stats_dict()
            workers = db.worker_pool_rows()
            fs = db.filestream.io
            end = self.recorder.totals()
        spans = {
            part: Counter(end[part]) - Counter(self._start[part])
            for part in end
        }
        out = layer_metrics(spans, self.counts, io, cache, workers, fs)
        # every span's self time, reported beside the declared metrics
        out.update({f"self_s.{name}": t for name, t in spans["self"].items()})
        return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, counts, io, cache, workers, fs) -> Dict[str, float]:
    inc, own = spans["inclusive"], spans["self"]
    calls, hits = spans["calls"], spans["hits"]
    statements = calls["statement"] + calls["statement.tvf"]
    statement_s = inc["statement"] + inc["statement.tvf"]
    bookkeeping = (
        inc["bookkeeping.io_report"]
        + inc["bookkeeping.metrics_record"]
        + inc["bookkeeping.querystore_record"]
    )
    spawned = len(workers)
    # sys_dm_os_workers: (id, pid, state, tasks, rows, busy_ms, last_ms)
    busy_s = sum(row[5] for row in workers) / 1000.0
    out = {
        "workflow.primary_s": inc["workflow.primary"],
        "workflow.secondary_s": inc["workflow.secondary"],
        "workflow.tertiary_s": inc["workflow.tertiary"],
    }
    for method in (
        "import_lane_relational",
        "import_lane_hybrid",
        "load_reads_from_filestream",
        "bin_unique_tags",
        "align_reads",
        "align_tags",
        "call_consensus",
        "compute_gene_expression",
    ):
        out[f"warehouse.{method}_s"] = inc[f"warehouse.{method}"]
    out.update(
        {
            "aligner.align_calls": calls["aligner.align"],
            "aligner.align_s": inc["aligner.align"],
            "aligner.hit_ratio": _ratio(hits["aligner.align"], calls["aligner.align"]),
            "table.insert_calls": calls["table.insert"],
            "table.insert_s": inc["table.insert"],
            "table.insert_us_per_row": 1e6 * _ratio(
                inc["table.insert"], calls["table.insert"]
            ),
            "storage.pages_written": counts["pages_written"],
            "storage.bytes_written": counts["bytes_written"],
            "storage.compression_ratio": _ratio(
                counts["storage_uncompressed"], counts["storage_data"]
            ),
            "storage.page_cache_misses": io["page_cache_misses"],
            "storage.pages_read_per_region": _ratio(
                counts["region_pages_read"], counts["region_ops"]
            ),
            "index.node_visits_per_lookup": _ratio(
                counts["lookup_node_visits"], counts["lookup_ops"]
            ),
            "index.node_visits_per_region": _ratio(
                counts["region_node_visits"], counts["region_ops"]
            ),
            "filestream.bytes_read": fs["bytes_read"],
            "filestream.chunk_reads": fs["chunk_reads"],
            "filestream.tvf_scan_s": inc["statement.tvf"],
            "sql.parse_calls": calls["sql.parse"],
            "sql.parse_s": inc["sql.parse"],
            "plancache.hit_ratio": _ratio(
                cache["hits"], cache["hits"] + cache["misses"]
            ),
            "plancache.text_hit_ratio": _ratio(
                hits["plancache.fetch_text"], statements
            ),
            "plancache.recompiles": cache["recompiles"],
            "planner.compiles": calls["planner.plan_select"],
            "planner.compile_s": inc["planner.plan_select"],
            "statement.calls": statements,
            "statement.self_s": own["statement"] + own["statement.tvf"],
            "bookkeeping.io_report_s": inc["bookkeeping.io_report"],
            "bookkeeping.metrics_record_s": inc["bookkeeping.metrics_record"],
            "bookkeeping.querystore_record_s": inc["bookkeeping.querystore_record"],
            "bookkeeping.share_of_statement": _ratio(bookkeeping, statement_s),
            "workers.spawned": spawned,
            "workers.tasks": sum(row[3] for row in workers),
            "workers.busy_s": busy_s,
            "workers.run_s": inc["workers.run"],
            "workers.utilization": _ratio(busy_s, inc["workers.run"] * spawned),
        }
    )
    return out


def summarize(
    iterations: List[Dict[str, float]], traced_s: List[float],
    plain_s: List[float],
) -> Dict[str, float]:
    """Per-layer metrics as the median over traced iterations, plus the
    tracing overhead: traced over untraced measured seconds, minus one."""
    names = sorted(set().union(*iterations))
    out = {
        name: float(median(it.get(name, 0.0) for it in iterations))
        for name in names
    }
    out["trace.overhead_share"] = (
        median(traced_s) / median(plain_s) - 1.0
    )
    return out
