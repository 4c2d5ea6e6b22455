"""One set-up, as a fresh interpreter pays it: import diffdiss and generate
the workload's configs.  ``run.py`` times this script.

    python3 perfbench/setup_probe.py <workload> <seed> <config dir>

The last line of output is CLOCK_MONOTONIC at the end of set-up.  The clock
is shared by all processes, so the parent subtracts the time it started
this process without waiting on process exit.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import diffdiss  # noqa: E402,F401

import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
