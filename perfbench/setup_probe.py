"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is what a run does before its first solve: importing otclust (and so
numpy), drawing the workload's clouds and building their cost matrices. run.py
starts this script several times and reports the median as setup_s.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import time

started = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

workloads.generate(workloads.WORKLOADS[sys.argv[1]], HERE / "out")
print(repr(time.perf_counter() - started))
