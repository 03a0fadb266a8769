"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload reseq_lane --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` the per-layer metrics, and writes the run's spans as a
Chrome trace under ``.perfbench/``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out FILE`` also appends the result, stamped with run metadata, as
one JSON line (the input of ``perfbench/compare.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    """HEAD's commit, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(args, inputs) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "inputs": inputs.sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size (self-check only)")
    parser.add_argument("--out", help="append the stamped result here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    # the engine's throwaway databases (and their FILESTREAM files) live
    # inside the checkout, not in the system temp directory
    tmp = SCRATCH / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    try:
        run, inputs = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = layers.summarize(
            run.layer_rows, run.measured[True], run.measured[False]
        )
        declared = spec["per_layer"]
        run.recorder.write_chrome(
            SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        )
    else:
        values = workloads.end_to_end(run)
        declared = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "meta": metadata(args, inputs),
        "samples": workloads.sample_summary(run),
        # every span's self time (traced runs only)
        "self_time": {k: v for k, v in values.items() if k.startswith("self_s.")},
        "result": result,
    }
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for key in ("self_time", "samples", "meta"):
        print(f"{key} {json.dumps(record[key])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
