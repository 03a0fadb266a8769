"""Exchange offload planning: can this parallel plan run on real cores?

The exchange operator family (:mod:`.parallel`) executes partition
sub-plans on the database's :class:`~repro.engine.workers.WorkerPool`
when the plan is *shippable* — expressible as picklable descriptors a
worker process can evaluate without the coordinator's compiled closures:

- **group keys** must be plain input columns (``group_indexes``);
- **aggregates** must be built-ins addressed by argument position, or
  picklable UDAs with plain-column arguments — their accessors are
  rebuilt worker-side as ``operator.itemgetter``;
- **partitioned scans** additionally need a child that is a bare table
  scan whose storage engine can split itself into disjoint picklable
  slices (heap page ranges / columnstore segment ranges), and — because
  range partitioning lets a group span partitions — SUM/AVG arguments
  of *exact* (integer) type, so coordinator-side merge reassociates
  nothing that floating point would notice. Float SUM/AVG plans still
  parallelise: they take the hash-partitioned row-shipping path, where
  a group never spans workers and accumulation order matches serial
  execution bit for bit.

The same eligibility logic drives the planner: with no worker tier it
plans the serial aggregate, and either way an EXPLAIN ``note:`` line
says why the plan is not a partitioned scan.
"""

from __future__ import annotations

import pickle
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..types import UDT
from .aggregates import AggregateSpec
from .operators import ColumnStoreScan, TableScan

#: aggregates whose merge is order-insensitive and exact for any input
#: type (counts are integers, MIN/MAX pick, sets union)
ORDER_SAFE_AGGREGATES = ("count", "count_big", "min", "max")
#: aggregates exact only over integer arguments when partial sums from
#: *range* partitions are re-added at merge time (the float-reassociation
#: gate the plan sanitizer re-proves independently, rule
#: PLAN-EXCHANGE-FLOAT-SUM)
SUM_LIKE_AGGREGATES = ("sum", "avg")


def rebuild_shippable_specs(
    specs: Sequence[AggregateSpec],
) -> Optional[List[AggregateSpec]]:
    """Clone aggregate specs with ``itemgetter`` argument accessors so
    they (and the states they build) survive pickling. None when any
    spec cannot ship."""
    shipped: List[AggregateSpec] = []
    for spec in specs:
        if not spec.star and spec.arg_index is None:
            return None  # expression argument: compiled closure only
        if spec.uda_class is not None:
            if not spec.parallel_safe:
                return None
            try:
                pickle.dumps(spec.uda_class)
            except Exception:  # noqa: BLE001 - locally scoped class
                return None
        arg_fns = (
            [] if spec.star else [itemgetter(spec.arg_index)]
        )
        shipped.append(
            AggregateSpec(
                spec.name,
                arg_fns,
                star=spec.star,
                distinct=spec.distinct,
                uda_class=spec.uda_class,
                arg_index=spec.arg_index,
            )
        )
    return shipped


def scan_schema_position(scan, output_index: int) -> int:
    """Map a scan output position back to the table schema position.

    Public because the plan sanitizer cross-checks this mapping against
    an independent by-name resolution (a corrupted position map is how
    the float-reassociation gate gets defeated)."""
    if isinstance(scan, ColumnStoreScan):
        return scan.out_positions[output_index]
    projection = scan.projection
    return projection[output_index] if projection is not None else output_index


def offloadable_scan(child) -> Optional[Any]:
    """The child scan when it is a bare partitionable table scan."""
    if isinstance(child, (TableScan, ColumnStoreScan)):
        store = getattr(child.table, "store", None)
        if store is not None and hasattr(store, "partition_payloads"):
            return child
    return None


def _has_udt_columns(schema) -> bool:
    return any(c.sql_type.kind == UDT for c in schema.columns)


def scan_offload_blocker(
    child,
    specs: Sequence[AggregateSpec],
    group_indexes: Optional[Sequence[int]],
) -> Optional[str]:
    """Why the partitioned-scan offload cannot run, or None when it can.

    Checked by the operator before building payloads and by the planner
    when phrasing EXPLAIN notes."""
    if group_indexes is None:
        return "group keys are computed expressions"
    scan = offloadable_scan(child)
    if scan is None:
        return "input is not a partitionable table scan"
    if _has_udt_columns(scan.table.schema):
        return "table has UDT columns (codecs do not ship)"
    for spec in specs:
        if not spec.star and spec.arg_index is None:
            return f"{spec.name.upper()} argument is a computed expression"
        if spec.uda_class is not None:
            continue  # parallel-safe UDAs merge by contract
        if spec.name in SUM_LIKE_AGGREGATES and not spec.distinct:
            schema_pos = scan_schema_position(scan, spec.arg_index)
            sql_type = scan.table.schema.columns[schema_pos].sql_type
            if not sql_type.is_integer:
                return (
                    f"{spec.name.upper()} over a non-integer column "
                    "(range partials would reassociate floats)"
                )
    return None


def rows_offload_blocker(
    specs: Sequence[AggregateSpec],
    group_indexes: Optional[Sequence[int]],
) -> Optional[str]:
    """Why the hash-partitioned row-shipping offload cannot run.

    Hash partitioning keeps every group on one worker, so accumulation
    order matches serial execution for any type — only descriptor
    expressibility matters here."""
    if group_indexes is None:
        return "group keys are computed expressions"
    for spec in specs:
        if not spec.star and spec.arg_index is None:
            return f"{spec.name.upper()} argument is a computed expression"
    return None


def worker_tier_blocker(
    pool,
    specs: Sequence[AggregateSpec],
    group_indexes: Optional[Sequence[int]],
) -> Optional[str]:
    """Why no worker tier can run an exchange, or None when one can.

    The planner asks at plan time and, on a reason, plans the serial
    aggregate instead; the operator asks again at run time, because a
    cached plan can outlive its pool. Every partitioned-scan plan can
    also take the row-shipping tier, so the rows tier decides."""
    if pool is None:
        return "no worker pool"
    if not pool.available():
        return pool.disabled_reason or "worker pool unavailable"
    if rebuild_shippable_specs(specs) is None:
        return "aggregate descriptors cannot ship to workers"
    return rows_offload_blocker(specs, group_indexes)


def build_scan_tasks(
    child,
    ship_specs: Sequence[AggregateSpec],
    group_indexes: Sequence[int],
    dop: int,
) -> Optional[Tuple[List[Tuple[str, Dict[str, Any]]], List[float]]]:
    """Partition the child scan's storage into ``dop`` disjoint slices
    and wrap each as a ``partial_agg`` worker task. None when the store
    declines to partition (nothing stored yet, or engine opt-out)."""
    scan = offloadable_scan(child)
    if scan is None:
        return None
    store = scan.table.store
    slices = store.partition_payloads(dop)
    if slices is None:
        return None
    if isinstance(scan, ColumnStoreScan):
        kind = "column"
        extra: Dict[str, Any] = {
            "predicates": list(scan.predicates),
            "out_positions": tuple(scan.out_positions),
        }
    else:
        kind = "heap"
        extra = {"out_positions": scan.projection}
    tasks: List[Tuple[str, Dict[str, Any]]] = []
    weights: List[float] = []
    for piece in slices:
        source = dict(piece)
        source.update(extra)
        tasks.append(
            (
                "partial_agg",
                {
                    "source": (kind, source),
                    "specs": list(ship_specs),
                    "group_indexes": tuple(group_indexes),
                },
            )
        )
        weights.append(float(piece.get("rows", 1)))
    return tasks, weights
