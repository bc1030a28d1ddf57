"""Keep one processor out of its idle state while the benchmark runs.

Usage (started by ``perfbench/run.py``, not by hand):

    python3 perfbench/keep_awake.py CPU PARENT_PID

On a virtual machine, a processor with nothing to run halts, and the next
wake-up (a reply arriving over loopback, a worker thread being handed a
request) waits until the host schedules that virtual processor again. On a
busy shared host that wait grows to several milliseconds and can double
the latency of a query that makes dozens of such hand-offs, so the numbers
track the host's load rather than the program's. This process binds itself
to one processor at the lowest scheduling priority and spins, so the
processor never halts; any runnable benchmark thread preempts it at once.

It exits when its parent exits, so a killed benchmark leaves nothing
running.
"""

from __future__ import annotations

import os
import sys


def main() -> None:
    cpu, parent = int(sys.argv[1]), int(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        os.nice(19)
    while os.getppid() == parent:
        for _ in range(100_000):
            pass


if __name__ == "__main__":
    main()
