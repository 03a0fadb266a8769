"""The read operations of the benchmark, each paired with an oracle.

An :class:`Op` is one SQL statement plus a check of its rows against an
expectation computed from the simulated inputs (or, for ``Alignment``
windows, from ``Table.scan()``), never from another query through the
engine. The lanes run a few of them after the lane as a quality check;
``warehouse_queries`` runs a seeded mix of them as its session.

The checks run after every measured operation and counter read of an
iteration: a ``Table.scan()`` decodes every page of its table, so a scan
taken earlier would warm the engine's page cache for the operations it
checks (see :class:`AlignmentWindows`).
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.core import queries

from .inputs import Inputs

#: the one sample every workload loads
SAMPLE = (1, 1, 1)
#: width of an ``Alignment`` window, in bases
REGION_WIDTH = 2000


@dataclass(frozen=True)
class Op:
    kind: str  # "lookup", "region" or "query1"
    sql: str
    check: Callable[[List[tuple]], bool]


def _read_row(r_id: int, record) -> tuple:
    """The ``[Read]`` row a simulated record must come back as; the
    tile/x/y fields are cut from the Illumina name here, independently of
    the import's own parser."""
    _head, lane, tile, x, y = record.name.split(":")
    return (*SAMPLE, r_id, int(lane), int(tile), int(x), int(y),
            record.sequence, record.quality)


def lookup_ops(
    inputs: Inputs, rng: random.Random, count: int, tables: Sequence[str]
) -> List[Op]:
    """Point lookups on seeded keys, in equal shares over ``tables``
    (``"read"``, ``"gene"`` and, once Query 1 has been materialised,
    ``"tag"``)."""
    e, sg, s = SAMPLE
    rs_ids = {r.name: i for i, r in enumerate(inputs.reference, start=1)}
    freqs = sorted(inputs.tag_counts.values())
    n_tags = len(freqs)
    ops = []
    for i in range(count):
        table = tables[i % len(tables)]
        if table == "read":
            r_id = rng.randrange(1, len(inputs.reads) + 1)
            expected = [_read_row(r_id, inputs.reads[r_id - 1])]
            sql = (
                f"SELECT * FROM [Read] WHERE r_e_id = {e} AND r_sg_id = {sg}"
                f" AND r_s_id = {s} AND r_id = {r_id}"
            )
            ops.append(Op("lookup", sql, expected.__eq__))
        elif table == "gene":
            gene = rng.choice(inputs.genes)
            expected = [(gene.gene_id, rs_ids[gene.chromosome], gene.name,
                         gene.start, gene.end, gene.strand)]
            sql = f"SELECT * FROM Gene WHERE g_id = {gene.gene_id}"
            ops.append(Op("lookup", sql, expected.__eq__))
        else:
            t_id = rng.randrange(1, n_tags + 1)
            sql = (
                f"SELECT * FROM Tag WHERE t_e_id = {e} AND t_sg_id = {sg}"
                f" AND t_s_id = {s} AND t_id = {t_id}"
            )
            ops.append(Op("lookup", sql, _tag_check(inputs, freqs, t_id)))
    return ops


def _tag_check(inputs: Inputs, freqs: Sequence[int], t_id: int):
    """A ``Tag`` row holds a read sequence with its exact frequency, at a
    rank that frequency allows (ties may be ranked in any order)."""
    n = len(freqs)

    def check(rows: List[tuple]) -> bool:
        if len(rows) != 1 or rows[0][:4] != (*SAMPLE, t_id):
            return False
        sequence, frequency = rows[0][4], rows[0][5]
        if inputs.tag_counts.get(sequence) != frequency:
            return False
        higher = n - bisect_right(freqs, frequency)
        at_least = n - bisect_left(freqs, frequency)
        return higher < t_id <= at_least

    return check


class AlignmentWindows:
    """Expected ``Alignment`` window counts: a Python filter over the rows
    of ``Table.scan()``. The scan is handed to :meth:`load` only after the
    operations it checks have run, so it warms nothing they measure."""

    def __init__(self) -> None:
        self._positions: Dict[int, List[int]] = {}
        self._loaded = False

    def load(self, alignment_rows) -> None:
        for row in alignment_rows:
            if tuple(row[:3]) == SAMPLE:
                self._positions.setdefault(row[6], []).append(row[8])
        for values in self._positions.values():
            values.sort()
        self._loaded = True

    def count(self, rs_id: int, lo: int, hi: int) -> int:
        if not self._loaded:
            raise RuntimeError("Alignment scan not loaded yet")
        pos = self._positions.get(rs_id, [])
        return bisect_right(pos, hi) - bisect_left(pos, lo)


def region_ops(
    inputs: Inputs, windows: AlignmentWindows, rng: random.Random, count: int
) -> List[Op]:
    """``Alignment`` windows keyed by (e, sg, s, rs) with an ``a_pos``
    range; each expected count comes from ``windows`` once it is loaded."""
    e, sg, s = SAMPLE
    ops = []
    for _ in range(count):
        rs_id = rng.randrange(1, len(inputs.reference) + 1)
        length = len(inputs.reference[rs_id - 1].sequence)
        lo = rng.randrange(0, max(length - REGION_WIDTH, 1))
        hi = lo + REGION_WIDTH - 1
        sql = (
            f"SELECT COUNT(*) FROM Alignment WHERE a_e_id = {e}"
            f" AND a_sg_id = {sg} AND a_s_id = {s} AND a_rs_id = {rs_id}"
            f" AND a_pos BETWEEN {lo} AND {hi}"
        )
        ops.append(Op("region", sql, functools.partial(
            _window_check, windows, rs_id, lo, hi)))
    return ops


def _window_check(windows: AlignmentWindows, rs_id: int, lo: int, hi: int,
                  rows: List[tuple]) -> bool:
    return rows == [(windows.count(rs_id, lo, hi),)]


def query1_op(inputs: Inputs, maxdop: int) -> Op:
    """Query 1 must rank exactly the ``Counter`` of the simulated reads
    that contain no ``N``, most frequent first."""

    def check(rows: List[tuple]) -> bool:
        ranked = sorted(rows)
        if [r[0] for r in ranked] != list(range(1, len(ranked) + 1)):
            return False
        counts = [r[1] for r in ranked]
        if any(a < b for a, b in zip(counts, counts[1:])):
            return False
        return {r[2]: r[1] for r in ranked} == inputs.tag_counts and len(
            ranked
        ) == len(inputs.tag_counts)

    return Op("query1", queries.query1_binning_sql(*SAMPLE, maxdop=maxdop), check)


def consensus_match(inputs: Inputs, consensus_rows) -> float:
    """Share of the simulated reference's bases that the stored consensus
    calls correctly; an ``N`` (no-call) or an uncovered base counts as a
    miss."""
    agree = 0
    for row in consensus_rows:
        if tuple(row[:3]) != SAMPLE:
            continue
        rs_id, start, sequence = row[3], row[4], row[5]
        genome = inputs.reference[rs_id - 1].sequence
        agree += sum(
            base == truth
            for base, truth in zip(sequence, genome[start : start + len(sequence)])
        )
    return agree / sum(len(r.sequence) for r in inputs.reference)


def op_mix(
    lookups: List[Op], regions: List[Op], query1: Op, n_query1: int,
    rng: random.Random,
) -> List[Op]:
    """Interleave the operations in a seeded order."""
    ops = lookups + regions + [query1] * n_query1
    rng.shuffle(ops)
    return ops


def warmup_ops(ops: Sequence[Op]) -> List[Op]:
    """One operation of each statement shape, to compile and cache plans
    before anything is timed."""
    seen, out = set(), []
    for op in ops:
        shape = (op.kind, op.sql.split(" WHERE ")[0])
        if shape not in seen:
            seen.add(shape)
            out.append(op)
    return out
