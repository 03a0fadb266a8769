"""The host's speed, read from a fixed reference loop.

The benchmark runs on a shared virtual machine whose CPU speed changes by
up to 1.7x, in phases from seconds to many minutes long. Every timing the
benchmark reports is therefore scaled to one fixed host speed: the
reference loop below is timed just before and just after each measured
stretch, and the stretch's wall time is multiplied by
``REFERENCE_S / mean(before, after)`` (see :class:`HostSpeed`). The loop
calls nothing of the program, so a change to the program moves the
scaled times exactly as it moves the wall times.

Run as a script, it prints the loop's time second by second, to see how
much the host moves:

    python3 perfbench/hostspeed.py --seconds 40
"""

from __future__ import annotations

import argparse
import gc
from operator import itemgetter
from statistics import median
from time import perf_counter

#: the reference loop's seconds on the host speed every timing is scaled
#: to: its fast phases on the 2-CPU Xeon virtual machine (Python 3.11) the
#: baseline ran on. It only sets the scale of the reported figures.
REFERENCE_S = 0.003


def reference_s() -> float:
    """Seconds of one pass of the reference loop: small dicts of tuples
    built and sorted, like the engine's row handling, with the cyclic
    collector off so that the program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        for _ in range(4):
            table = {}
            for i in range(4_000):
                table[i] = (i, str(i))
            sorted(table.values(), key=itemgetter(1))
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Scales the wall time of consecutive measured stretches to
    ``REFERENCE_S``. Construct it right before the first stretch and call
    :meth:`factor` right after each one."""

    def __init__(self):
        self.last = reference_s()
        self.readings = [self.last]

    def factor(self) -> float:
        """Time the loop again; returns what the stretch since the last
        reading is multiplied by: ``REFERENCE_S`` over the mean of the two
        readings around it."""
        now = reference_s()
        self.readings.append(now)
        around = (self.last + now) / 2
        self.last = now
        return REFERENCE_S / around


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args(argv)
    per_second = []
    for _ in range(args.seconds):
        second = perf_counter() + 1.0
        samples = []
        while perf_counter() < second:
            samples.append(reference_s() * 1e3)
        per_second.append(median(samples))
    print("reference loop ms, median of each second:",
          " ".join(f"{ms:.2f}" for ms in per_second))
    print(f"range {min(per_second):.2f}-{max(per_second):.2f} ms,"
          f" max/min {max(per_second) / min(per_second):.2f};"
          f" timings are scaled to {REFERENCE_S * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
