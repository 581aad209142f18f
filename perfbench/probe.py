"""Set-up probe: interpreter start, ``import latlab`` and corpus generation.

Usage: python3 perfbench/probe.py WORKLOAD SEED

Prints ``time.monotonic_ns()`` at the point where the first item could
start.  run.py takes the time before it starts this process and reports the
difference as ``setup_s``; CLOCK_MONOTONIC is shared by both processes.
After that point the probe times calibrate.py's reference chunk and prints
the median CPU time of 8 chunks, the speed of the vCPU it ran on.
"""

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

workloads.corpus(sys.argv[1], int(sys.argv[2]))
ready = time.monotonic_ns()

import calibrate  # noqa: E402

times = []
for _ in range(8):
    c0 = time.process_time()
    calibrate.chunk()
    times.append(time.process_time() - c0)
print(ready, statistics.median(times))
