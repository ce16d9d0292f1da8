"""The speed reference that every benchmark time is divided by.

On the shared 2-core Xeon VM (2.1 GHz) the figures come from, the CPU speed
drifts by up to 50 % over tens of seconds while nothing in the container
changes.  The drift is most likely other tenants on the same cores.  A fixed
pure-Python loop that never touches wzdgraph is timed right before and right
after every operation, and after each set-up probe.  Each time is then
reported in *reference seconds*: measured seconds x REF_S / (loop seconds at
that moment).  Over five runs, this took the spread of the verify-numeric
pass time from 19 % to 1.3 %.  README.md has the figures.  The raw times are
kept in each run's summary.json.
"""

from __future__ import annotations

from time import perf_counter

#: the loop takes about 1 ms on a 2.1 GHz Xeon
ITERATIONS = 6000
#: the loop time that defines one reference second per second
REF_S = 1e-3


def loop_seconds() -> float:
    """Seconds taken by one run of the fixed loop."""
    start = perf_counter()
    acc, table = 0, {}
    for i in range(ITERATIONS):
        acc += i * i % 7
        table[i & 255] = acc
    return perf_counter() - start


def ready_loop_seconds() -> float:
    """Median of three loops, for a process that has just finished set-up."""
    return sorted(loop_seconds() for _ in range(3))[1]
