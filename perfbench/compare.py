"""Compare two sets of benchmark results: a parent commit and a change.

Run the pairs (each side from its own checkout, alternating which side
goes first, one seed per pair)::

    python3 perfbench/compare.py run --parent ../parent --change . \\
        --workload warehouse_queries --pairs 10 --out-dir results/

then report::

    python3 perfbench/compare.py report results/parent.jsonl results/change.jsonl

``show FILE...`` prints one set of results: every end-to-end metric of every
workload by name and unit, with median, quartiles and run count, and the
error rate (failed over attempted operations).

The report prints one row per workload and end-to-end metric: each
side's median, quartiles and run count, the change's wins over the
parent pair by pair, and a verdict:

- ``improved``: at least 10 pairs, the change wins at least 9/10 of them
  (ties count for neither side), and the medians differ by more than the
  parent's interquartile range;
- ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the metric's bound, unless every change run is
  better than every parent run (then ``better``);
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``within bound`` otherwise.

Each workload's rows are headed by both sides' error rates (failed over
attempted operations). A gain does not count when
the change is less correct than the parent: when any change run has
``correct`` false, or its error rate is above the parent's, every
``improved`` or ``better`` verdict of that workload reads ``refused``.

The exit status is 1 when any metric regressed or the change is less
correct than the parent on any workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import quantiles
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> Dict[str, List[dict]]:
    """Untraced results of a JSON-lines file, by workload, in file order."""
    out: Dict[str, List[dict]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["meta"]["trace"]:
                out[record["meta"]["workload"]].append(record)
    return out


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Dict[str, object]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    worse_by = -sign * (cm - pm) / abs(pm)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (cm - pm) > p3 - p1
    ):
        status = "improved"
    elif spread > bound:
        all_better = (
            min(change) > max(parent) if sign > 0 else max(change) < min(parent)
        )
        status = "better" if all_better else "unresolved"
    elif worse_by > bound:
        status = "regressed"
    else:
        status = "within bound"
    return {
        "parent": (pm, p1, p3, len(parent)),
        "change": (cm, c1, c3, len(change)),
        "wins": wins,
        "pairs": len(pairs),
        "spread": spread,
        "worse_by": worse_by,
        "status": status,
    }


def error_rate(records: List[dict]) -> tuple:
    """(failed, attempted, every run correct) over a set of runs."""
    failed = sum(r["result"]["failed"] for r in records)
    attempted = sum(r["result"]["attempted"] for r in records)
    return failed, attempted, all(r["result"]["correct"] for r in records)


def less_correct(parent: List[dict], change: List[dict]) -> bool:
    """The change failed an oracle, or fails more often than the parent."""
    p_failed, p_attempted, _ = error_rate(parent)
    c_failed, c_attempted, c_correct = error_rate(change)
    return not c_correct or c_failed / c_attempted > p_failed / p_attempted


def _errors(records: List[dict]) -> str:
    failed, attempted, _ = error_rate(records)
    return f"error_rate {failed}/{attempted}"


def report(parent_path: str, change_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(parent_path), load(change_path)
    header = (
        f"{'workload':18s} {'metric':28s} {'parent median [q1, q3] n':>34s}"
        f" {'change median [q1, q3] n':>34s} {'wins':>7s} {'worse':>7s}  verdict"
    )
    print(header)
    failing = False
    for workload in sorted(set(parent) & set(change)):
        refuse = less_correct(parent[workload], change[workload])
        failing |= refuse
        print(f"{workload:18s} parent {_errors(parent[workload])};"
              f" change {_errors(change[workload])}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["result"]["metrics"][name]["value"] for r in parent[workload]]
            c = [r["result"]["metrics"][name]["value"] for r in change[workload]]
            v = verdict(p, c, metric["better"], metric["bound"])
            if refuse and v["status"] in ("improved", "better"):
                v["status"] = "refused: the change is less correct"
            failing |= v["status"] == "regressed"
            side = "{:10.4g} [{:.4g}, {:.4g}] {:d}"
            print(
                f"{workload:18s} {name:28s} {side.format(*v['parent']):>34s}"
                f" {side.format(*v['change']):>34s}"
                f" {v['wins']:>3d}/{v['pairs']:<3d} {v['worse_by']:>+7.1%}"
                f"  {v['status']}"
            )
    return 1 if failing else 0


def show(paths: List[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results: Dict[str, List[dict]] = defaultdict(list)
    for path in paths:
        for workload, records in load(path).items():
            results[workload].extend(records)
    for workload, records in sorted(results.items()):
        failed, attempted, _ = error_rate(records)
        print(f"{workload}: {len(records)} runs")
        print(f"  {'error_rate':28s} {failed / attempted:12.5g} {'ratio':8s}"
              f" ({failed} failed of {attempted} attempted)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in records]
            q1, q2, q3 = _quartiles(values)
            print(f"  {name:28s} {q2:12.5g} {metric['unit']:8s}"
                  f" [{q1:.5g}, {q3:.5g}] n={len(values)}"
                  f" spread {(q3 - q1) / abs(q2):.3f} bound {metric['bound']}")
    return 0


def run_pairs(args) -> int:
    """Alternate parent and change runs, one seed per pair."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [("parent", Path(args.parent)), ("change", Path(args.change))]
    for i in range(args.pairs):
        order = sides if i % 2 == 0 else sides[::-1]
        for label, checkout in order:
            command = [
                *spec["command"], "--workload", args.workload,
                "--seed", str(args.first_seed + i),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
                "--out", str((out_dir / f"{label}.jsonl").resolve()),
            ]
            subprocess.run(command, cwd=checkout, check=True,
                           stdout=subprocess.DEVNULL)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", help="compare two result files")
    rep.add_argument("parent")
    rep.add_argument("change")
    one = sub.add_parser("show", help="summarize one set of results")
    one.add_argument("results", nargs="+")
    run = sub.add_parser("run", help="run alternating parent/change pairs")
    run.add_argument("--parent", required=True, help="parent checkout")
    run.add_argument("--change", required=True, help="change checkout")
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    if args.command == "report":
        return report(args.parent, args.change)
    if args.command == "show":
        return show(args.results)
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
