"""The three workloads: two sequencing lanes and a warehouse query session.

Each workload repeats one *iteration* until ``--seconds`` have passed:

- a lane iteration builds a warehouse (the set-up), runs phases 1-3 of
  :class:`SequencingWorkflow` on the lane, and then runs a short
  quality-control session of read operations on it;
- a ``warehouse_queries`` iteration builds a warehouse, loads one
  resequencing sample and bins its tags (all set-up), warms the plan
  cache, and then runs a seeded mix of read operations in a closed
  loop with one client.

Every oracle runs at the end of the iteration, after all that is timed
or counted, so that its own table scans warm nothing that is measured.

In a traced run, iterations alternate untraced and traced; the traced
ones give the per-layer metrics (see :mod:`layers`).

The host's CPU speed changes by up to 1.7x, in phases from seconds to
minutes long, so every measured stretch (the set-up, the lane, the
warm-up, each chunk of operations) is scaled to one reference speed by
timing :func:`hostspeed.reference_s` just before and after it. Each
timing metric is the median over the run's iterations of one iteration's
value; for a latency metric, that is a percentile of the iteration's
scaled operation latencies, so a few iterations disturbed by a slow
phase of the host do not move it.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core import GenomicsWarehouse, SequencingWorkflow

from . import hostspeed, layers
from .inputs import Inputs, Sizes, make_inputs
from .oracles import (
    SAMPLE,
    AlignmentWindows,
    Op,
    consensus_match,
    lookup_ops,
    op_mix,
    query1_op,
    region_ops,
    warmup_ops,
)

#: the share of the simulated reference that ``reseq_lane``'s consensus
#: must call correctly (kept with the other oracles in spec.json)
CONSENSUS_MIN_MATCH: float = json.loads(
    (Path(__file__).parent / "spec.json").read_text()
)["oracles"]["consensus_min_match"]


@dataclass(frozen=True)
class Workload:
    kind: str  # the lane kind that is simulated and loaded
    compression: str
    hybrid: bool
    sizes: Sizes
    #: lookups are split equally over these tables (see spec.json)
    lookup_tables: Tuple[str, ...]
    lookups: int
    regions: int
    query1s: int
    #: a session workload times its operations as the headline; a lane
    #: times the lane and runs its operations as a quality check
    session: bool = False


WORKLOADS: Dict[str, Workload] = {
    "reseq_lane": Workload(
        "resequencing", "PAGE", hybrid=False, sizes=Sizes(2, 40_000, 30, 8_000),
        lookup_tables=("read",), lookups=1000, regions=100, query1s=5,
    ),
    "dge_lane": Workload(
        "dge", "NONE", hybrid=True, sizes=Sizes(2, 40_000, 30, 20_000),
        lookup_tables=("read", "tag"), lookups=1000, regions=100, query1s=5,
    ),
    "warehouse_queries": Workload(
        "resequencing", "NONE", hybrid=False, sizes=Sizes(2, 40_000, 30, 10_000),
        lookup_tables=("read", "gene", "tag"), lookups=1200, regions=100,
        query1s=8, session=True,
    ),
}

#: latency metric -> (operation kind, percentile within one iteration);
#: the counts above give each percentile at least ten samples beyond it
LATENCIES = {
    "lookup_p50_ms": ("lookup", 50),
    "lookup_p99_ms": ("lookup", 99),
    "region_p50_ms": ("region", 50),
    "region_p90_ms": ("region", 90),
    "query1_p50_ms": ("query1", 50),
}


#: operations between two readings of the host's speed: a tenth of a second
#: of the session or more
CHUNK = 100


class Run:
    """Samples, operation counts and per-layer rows of one benchmark run.

    ``samples`` holds one value per iteration for each metric;
    ``latencies`` the current iteration's scaled operation latencies (ms)
    by kind."""

    def __init__(self, trace: bool):
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.recorder = layers.SpanRecorder() if trace else None
        self.layer_rows: List[Dict[str, float]] = []
        #: each iteration's measured seconds, by whether it was traced
        self.measured: Dict[bool, List[float]] = {True: [], False: []}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"oracle failed: {what}", file=sys.stderr)

    def run_op(self, db, op: Op, probe) -> tuple:
        """Execute one operation; returns its wall seconds and its rows
        (None when it raised). Its oracle runs later, in :meth:`check_ops`."""
        try:
            with probe.around(db, op.kind) if probe else nullcontext():
                started = perf_counter()
                rows = db.query(op.sql)
                elapsed = perf_counter() - started
        except Exception:  # noqa: BLE001 - a failed operation is counted
            traceback.print_exc(file=sys.stderr)
            return 0.0, None
        return elapsed, rows

    def run_ops(self, db, ops: List[Op], probe, host: hostspeed.HostSpeed,
                results: List[tuple]) -> float:
        """Execute ``ops`` in chunks of :data:`CHUNK`, scaling each
        operation's latency by its chunk's host-speed factor; appends
        (op, rows) to ``results`` and returns the scaled seconds."""
        total = 0.0
        for start in range(0, len(ops), CHUNK):
            chunk = []
            for op in ops[start:start + CHUNK]:
                elapsed, rows = self.run_op(db, op, probe)
                if rows is not None:  # a failed operation has no latency
                    chunk.append((op.kind, elapsed))
                results.append((op, rows))
            factor = host.factor()
            for kind, elapsed in chunk:
                self.latencies[kind].append(elapsed * factor * 1e3)
                total += elapsed * factor
        return total

    def end_iteration(self) -> None:
        for name, (kind, p) in LATENCIES.items():
            if self.latencies[kind]:  # empty when every operation raised
                self.samples[name].append(_percentile(self.latencies[kind], p))
        self.latencies.clear()

    def check_ops(self, results: List[tuple]) -> None:
        for op, rows in results:
            ok = False
            if rows is not None:
                try:
                    ok = op.check(rows)
                except Exception:  # noqa: BLE001 - a failed oracle is counted
                    traceback.print_exc(file=sys.stderr)
            self.check(ok, op.sql.strip().splitlines()[0])


def build_warehouse(inputs: Inputs, compression: str):
    """The set-up shared by every workload: schema, reference, genes,
    sample registration and the aligner's index."""
    wh = GenomicsWarehouse(compression=compression)
    wh.load_reference(inputs.reference)
    wh.load_genes(inputs.genes)
    wh.register_experiment(SAMPLE[0], "bench", inputs.kind)
    wh.register_sample_group(*SAMPLE[:2], "group")
    wh.register_sample(*SAMPLE, "sample")
    wh.aligner  # builds the seed index
    return wh, SequencingWorkflow(wh)


def _operations(workload: Workload, inputs: Inputs, windows: AlignmentWindows,
                rng: random.Random, maxdop: int) -> List[Op]:
    return op_mix(
        lookup_ops(inputs, rng, workload.lookups, workload.lookup_tables),
        region_ops(inputs, windows, rng, workload.regions),
        query1_op(inputs, maxdop),
        workload.query1s,
        rng,
    )


def _timed(host: hostspeed.HostSpeed, step, *args, **kwargs) -> tuple:
    """Run ``step``, then read the host's speed; returns its result and
    its seconds scaled to the reference speed."""
    started = perf_counter()
    result = step(*args, **kwargs)
    elapsed = perf_counter() - started
    return result, elapsed * host.factor()


def iteration(run: Run, workload: Workload, inputs: Inputs,
              rng: random.Random, probe: Optional[layers.Probe]) -> float:
    """One lane or one session; returns the (scaled) seconds it measured.
    ``rng`` draws its operations: each iteration of a run reads other keys
    and windows, so that a run's percentiles rest on more than one draw.

    Every sample it adds is scaled to the reference host speed by the
    readings of :class:`hostspeed.HostSpeed` around its stretch."""
    stage = probe.recorder.operation if probe else (lambda _kind: nullcontext())
    run.latencies.clear()
    gc.collect()  # the previous iteration's warehouse is garbage now
    host = hostspeed.HostSpeed()
    with stage("setup"):
        (wh, workflow), setup_s = _timed(
            host, build_warehouse, inputs, workload.compression
        )
    db = wh.db
    try:
        before = layers.storage_totals(db)
        if probe:
            probe.load_started(db)
        # the host's speed is read between the phases, so that each is
        # scaled by the readings closest to it
        steps = [
            partial(workflow.run_primary, *SAMPLE, inputs.reads,
                    hybrid=workload.hybrid),
            partial(workflow.run_secondary, *SAMPLE, inputs.kind),
            partial(wh.bin_unique_tags, *SAMPLE) if workload.session
            else partial(workflow.run_tertiary, *SAMPLE, inputs.kind),
        ]
        lane_s = 0.0
        try:
            with stage("load" if workload.session else "lane"):
                for step in steps:
                    lane_s += _timed(host, step)[1]
        except Exception:  # noqa: BLE001 - a failed lane is counted
            traceback.print_exc(file=sys.stderr)
            run.check(False, "lane")
            return 0.0
        if probe:
            probe.load_finished(db)
        after = layers.storage_totals(db)
        stored = sum(after[k] - before[k] for k in ("data", "filestream"))
        run.samples["stored_bytes_per_input_byte"].append(
            stored / inputs.fastq_bytes
        )
        run.samples["reads_per_s"].append(len(inputs.reads) / lane_s)
        maxdop = min(2, len(os.sched_getaffinity(0))) if workload.session else 1
        windows = AlignmentWindows()
        ops = _operations(workload, inputs, windows, rng, maxdop)
        warmups = warmup_ops(ops)
        rows, warm_s = _timed(
            host, lambda: [run.run_op(db, op, None)[1] for op in warmups]
        )
        results = list(zip(warmups, rows))
        if workload.session:
            setup_s += lane_s + warm_s
        run.samples["setup_s"].append(setup_s)
        ops_s = run.run_ops(db, ops, probe, host, results)
        run.samples["host_factor"].append(
            hostspeed.REFERENCE_S / median(host.readings)
        )
        run.end_iteration()
        if probe:
            run.layer_rows.append(probe.finish(db))
        # the oracles, now that nothing more is timed or counted
        windows.load(db.table("Alignment").scan())
        run.check_ops(results)
        if workload.kind == "resequencing" and not workload.session:
            match = consensus_match(inputs, db.table("Consensus").scan())
            run.check(
                match >= CONSENSUS_MIN_MATCH,
                f"consensus matches the reference at {match:.4f}",
            )
        else:
            run.check(True, "lane")
    finally:
        wh.close()
    return setup_s + ops_s + (0.0 if workload.session else lane_s)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> tuple:
    """Run ``name`` for ``seconds``; returns (run, inputs)."""
    workload = WORKLOADS[name]
    inputs = make_inputs(workload.kind, workload.sizes.scaled(scale), seed)
    run = Run(trace)
    rng = random.Random(seed)
    deadline = perf_counter() + seconds
    done = 0
    while done < (2 if trace else 1) or perf_counter() < deadline:
        traced = trace and done % 2 == 1
        if traced:
            with layers.installed(run.recorder):
                seconds = iteration(run, workload, inputs, rng,
                                    layers.Probe(run.recorder))
        else:
            seconds = iteration(run, workload, inputs, rng, None)
        if seconds:
            run.measured[traced].append(seconds)
        done += 1
    return run, inputs


def _percentile(values: List[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=100)[p - 1]


def end_to_end(run: Run) -> Dict[str, float]:
    s = run.samples
    return {
        "setup_s": median(s["setup_s"]),
        "reads_per_s": median(s["reads_per_s"]),
        "stored_bytes_per_input_byte": median(s["stored_bytes_per_input_byte"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{name: median(s[name]) for name in LATENCIES},
    }


def sample_summary(run: Run) -> Dict[str, dict]:
    """Count, quartiles and median of every metric's per-iteration values,
    by the same (default, exclusive) method as compare.py."""
    out = {}
    for key, values in sorted(run.samples.items()):
        q1, q2, q3 = (
            quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        )
        out[key] = {"n": len(values), "q1": q1, "median": q2, "q3": q3}
    return out
