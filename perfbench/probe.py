"""Core-speed probe, run by ``run.py`` on each CPU a measurement is pinned to.

Usage: ``python perfbench/probe.py CPU``. The probe pins itself to ``CPU``
and, until its standard input is closed, runs a fixed piece of Python
about every ``PERIOD_S`` seconds, recording when each piece started
(``time.perf_counter``, which is comparable across processes) and the CPU
time it took. It then prints the records as one JSON list
``[[start, cpu_s], ...]`` and exits.

The pieces measure how fast the core runs Python at that moment. On a
shared host that speed can swing by up to 2x within seconds, and the
measured process slows down with it;
``run.py`` divides each measured time by the probe's slowdown over the same
interval on the same CPU. The piece is interpreter-bound, like the program:
a variant that added lookups in a dict larger than the core's caches
tracked the program's slowdowns less closely. Sharing the core costs the
measured process about 4%, the same on every run.
"""

import json
import os
import select
import sys
import time

PERIOD_S = 0.01


def piece() -> int:
    """A fixed mix of bytecode, dict and string work, ~0.3 ms on an
    uncontended core."""
    total = 0
    table: dict[str, int] = {}
    for i in range(600):
        key = "p" + str(i & 63)
        table[key] = table.get(key, 0) + i * i % 7
        total += len(key)
    return total + sum(table.values())


def main(cpu: str) -> None:
    os.sched_setaffinity(0, {int(cpu)})
    records = []
    while True:
        start = time.perf_counter()
        cpu_start = time.thread_time()
        piece()
        records.append((start, time.thread_time() - cpu_start))
        if select.select([sys.stdin], [], [], PERIOD_S)[0] and not sys.stdin.read(1):
            break
    json.dump(records, sys.stdout)


if __name__ == "__main__":
    main(*sys.argv[1:])
