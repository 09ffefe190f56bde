"""How fast the host runs right now, measured by a fixed reference kernel.

The host's speed swings by up to 2x with load that other machines put on
it, and it keeps one speed for tens of seconds to minutes, so a whole
30-second run can fall in a slow spell.  Taking the fastest pass does not
help then, and runs of the same code spread by 25-40%.

A reference kernel is benchmark code that never changes and never calls
the program.  It runs right before and right after each timed operation;
the operation's time divided by the kernel's slowdown (its time now over
its time on the quiet host) is the operation's time at the quiet host's
speed.  A change to the program moves the operation and not the kernel,
so it still shows in full.

Each workload picks the kernel that does its own kind of work, because
the swings do not slow every kind of work alike: a pure-Python loop for
the search, numpy vector work on fresh arrays for the graph core, and a
bare interpreter start for the CLI.  Over five minutes of recorded
swings, scaling by the matching kernel cut the spread of 20-second
medians from 36-42% to 5-7%; scaling by a kernel of another kind left
13-20%.
"""

from __future__ import annotations

import subprocess
import sys
import time

MASK64 = (1 << 64) - 1


def _interpreter() -> int:
    x, acc = 0x9E3779B97F4A7C15, 0
    for _ in range(30_000):
        x ^= (x << 13) & MASK64
        x ^= x >> 7
        x ^= (x << 17) & MASK64
        acc += (x & 0xFFFF).bit_count()
    return acc


def _vector() -> int:
    import numpy as np

    base = np.arange(40_000, dtype=np.uint64)
    acc = 0
    for i in range(200):
        hit = (base & np.uint64(i * 2654435761 % (1 << 20))) == 0
        acc += int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little").bit_count()
    return acc


def _process() -> int:
    return subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60).returncode


# kernel, and its time in seconds on the quiet host: the fastest seen in
# about ten minutes of runs on the machine in perfbench/README.md
KERNELS = {
    "interpreter": (_interpreter, 0.0085),
    "vector": (_vector, 0.0051),
    "process": (_process, 0.0089),
}


def slowdown(kernel: str) -> float:
    """The kernel's time now over its time on the quiet host."""
    run, quiet = KERNELS[kernel]
    start = time.perf_counter()
    run()
    return (time.perf_counter() - start) / quiet
