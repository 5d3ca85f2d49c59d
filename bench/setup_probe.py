"""Time one fresh process's set-up: import dkimle and build the inputs.

    python bench/setup_probe.py WORKLOAD SEED WORKDIR VOXELS

Prints the seconds from before ``import dkimle`` until the inputs (and,
for the command line workload, their files) exist.  Run with
PYTHONPATH pointing at the checkout's src/.
"""

import sys
import time

T0 = time.perf_counter()

import dkimle  # noqa: E402,F401  (timed: part of set-up)
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main(name: str, seed: str, workdir: str, voxels: str) -> float:
    workloads.build_inputs(workloads.WORKLOADS[name], int(seed), Path(workdir), int(voxels))
    return time.perf_counter() - T0


if __name__ == "__main__":
    print(main(*sys.argv[1:5]))
