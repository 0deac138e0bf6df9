"""Times a fixed kernel for each line read from standard input.

    python3 perfbench/hostspeed.py

For each line it reads, it runs `kernel()` RUNS times and prints the
seconds the fastest run took: the first run after a pause pays for caches
other processes have taken over, which is not the host's speed.
run.py keeps one such process beside the program and asks it for a timing
between operations: the kernel does not touch cosetchar and runs in its own
process, so only the host's speed moves its time, not the program's code
nor the state of the benchmark process's heap.
"""

from __future__ import annotations

import gc
import sys
import time

RUNS = 3


def kernel() -> None:
    """Fixed pure-Python work over about 3 MB, more than a core's own caches
    hold: a list and a dict of 15000 tuples, read in a scattered order."""
    items = [(i, i * 7) for i in range(15000)]
    index = {x: i for i, x in enumerate(items)}
    total = 0
    for i in range(0, 15000, 7):
        total += index[items[(i * 7919) % 15000]]


def main() -> int:
    gc.disable()
    for _ in sys.stdin:
        best = float("inf")
        for _ in range(RUNS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        print(best, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
