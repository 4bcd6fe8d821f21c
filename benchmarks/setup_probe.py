"""One set-up of a workload, in a fresh process: import switchq, build one rep's inputs, exit.

Once the inputs are built it prints perf_counter() and its own CPU time
since process start.  run.py times several of these, by the wall clock
from spawn and by that CPU time, and reports the median scaled CPU time as
setup_s, so work that moves into import time or input construction shows
there.
Usage: python3 benchmarks/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from workloads import build_inputs  # noqa: E402  (imports every switchq module)

build_inputs(sys.argv[1], int(sys.argv[2]), 0)
print(repr(time.perf_counter()), repr(time.process_time()))
