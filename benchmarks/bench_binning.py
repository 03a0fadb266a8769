"""Experiments F7F8 + S532 — Figures 7/8 and Section 5.3.2:
sequential script vs declarative Query 1 for unique-read binning.

The paper: a 26-line Perl script took 10 minutes over a 500 MB lane;
SQL Query 1 finished in 44 s (13.6x) because SQL Server parallelised the
scan and aggregation over all four cores while the script used one.
Figure 7 shows the script's read→process profile at ~25 % CPU; Figure 8
shows the query keeping all cores busy.

Reports:
- ``benchmarks/results/binning_s532.txt`` — the runtime comparison;
- ``benchmarks/results/figure7_script_trace.txt`` — the script's phase
  trace (Figure 7);
- ``benchmarks/results/figure8_sql_trace.txt`` — the parallel plan's
  phase profile (Figure 8).

Both stacks are measured on this host: the script on one core, Query 1
at MAXDOP 4 on the worker pool, with the host's CPU count in the
report. The absolute script-vs-SQL gap compresses compared to the paper
because both stacks run in the same interpreter here, whereas the paper
compared interpreted Perl against a native-code engine.
"""

import os
import time

import pytest

from bench_common import save_bench_json, save_report
from repro.baselines.perl_binning import run_binning_script
from repro.baselines.trace import trace_from_parallel_stats
from repro.core import queries
from repro.engine.executor import ParallelHashAggregate


@pytest.fixture(scope="module")
def lane_file(tmp_path_factory, dge_reads):
    from repro.genomics.fastq import write_fastq

    path = tmp_path_factory.mktemp("binning") / "855_s_1.fastq"
    write_fastq(dge_reads, path)
    return path


def _find_exchange(op):
    if isinstance(op, ParallelHashAggregate):
        return op
    for child in op.children():
        found = _find_exchange(child)
        if found is not None:
            return found
    return None


def run_query1_with_stats(db, dop=4):
    """Execute Query 1 and return (rows, exchange stats, wall seconds)."""
    plan = db.plan(queries.query1_binning_sql(1, 1, 1, maxdop=dop))
    start = time.perf_counter()
    rows = list(plan)
    elapsed = time.perf_counter() - start
    return rows, _find_exchange(plan), elapsed


class TestBenchmarks:
    def test_bench_perl_script(self, benchmark, lane_file):
        ranked, _trace = benchmark.pedantic(
            run_binning_script, args=(lane_file,), rounds=3, iterations=1
        )
        assert len(ranked) > 0

    def test_bench_query1_serial(self, benchmark, dge_warehouse):
        rows = benchmark.pedantic(
            queries.execute_query1,
            args=(dge_warehouse.db, 1, 1, 1),
            kwargs={"maxdop": 1},
            rounds=3,
            iterations=1,
        )
        assert len(rows) > 0

    def test_bench_query1_parallel_plan(self, benchmark, dge_warehouse):
        rows = benchmark.pedantic(
            queries.execute_query1,
            args=(dge_warehouse.db, 1, 1, 1),
            kwargs={"maxdop": 4},
            rounds=3,
            iterations=1,
        )
        assert len(rows) > 0


def test_f7f8_s532_report(benchmark, lane_file, dge_warehouse, dge_reads):
    def run_comparison():
        script_ranked, script_trace = run_binning_script(lane_file, cores=4)
        sql_rows, exchange, sql_measured = run_query1_with_stats(
            dge_warehouse.db, dop=4
        )
        return script_ranked, script_trace, sql_rows, exchange, sql_measured

    (
        script_ranked,
        script_trace,
        sql_rows,
        exchange,
        sql_measured,
    ) = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    # the two approaches must produce the same binning
    script_map = {seq: count for _r, count, seq in script_ranked}
    sql_map = {seq: count for _r, count, seq in sql_rows}
    assert script_map == sql_map

    assert exchange is not None, "no worker tier: Query 1 planned serially"
    cpus = os.cpu_count() or 1
    stats = exchange.stats

    # Figure 7: the script's sequential trace
    save_report("figure7_script_trace.txt", script_trace.render())

    # Figure 8: the parallel plan's profile, straight from the exchange
    # operator's measured phase timings
    sql_trace = trace_from_parallel_stats(
        "SQL Query 1 (parallel plan)", stats, cores=4
    )
    save_report("figure8_sql_trace.txt", sql_trace.render())

    lines = [
        "Section 5.3.2 (reproduced): unique-read binning, "
        f"{len(dge_reads):,} reads, {len(sql_rows):,} unique tags",
        "=" * 72,
        f"{'Approach':<46}{'seconds':>12}",
        "-" * 72,
        f"{'Perl-style sequential script (1 core)':<46}"
        f"{script_trace.total_time:>12.3f}",
        f"{'SQL Query 1, MAXDOP 4 (%s), %d cpu(s)' % (stats.mode, cpus):<46}"
        f"{sql_measured:>12.3f}",
        "-" * 72,
        f"script / SQL ratio: {script_trace.total_time / sql_measured:.1f}x",
        f"paper: 600s script vs 44s SQL = 13.6x "
        "(native engine vs interpreted Perl; see EXPERIMENTS.md)",
        f"script mean CPU: {script_trace.mean_utilization() * 100:.0f}% of 4 cores "
        f"(paper Figure 7: ~25%)",
    ]
    save_report("binning_s532.txt", "\n".join(lines))
    save_bench_json(
        "binning_s532",
        wall_time=sql_measured,
        rows=len(sql_rows),
        counters={
            "rows_in": stats.rows_in,
            "rows_out": stats.rows_out,
            "scan_time_s": round(stats.scan_time, 6),
            "partition_time_s": round(stats.partition_time, 6),
            "gather_time_s": round(stats.gather_time, 6),
        },
        extra={
            "script_time_s": round(script_trace.total_time, 6),
            "cpus": cpus,
            "script_mean_cpu": round(script_trace.mean_utilization(), 4),
        },
    )

    # shape assertions: the parallel query beats the sequential script
    assert sql_measured < script_trace.total_time
    # and the script is stuck near one core
    assert script_trace.mean_utilization() <= 0.3
