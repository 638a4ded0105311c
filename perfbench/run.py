"""Run one digseg benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload dag-greedy --seed 1 --seconds 30 --trace 0

Run from the repository root.  BLAS is pinned to one thread before numpy is
imported, so the numbers measure the program rather than the scheduler.
"""

import os
import sys

BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

if __name__ == "__main__":
    for var in BLAS_VARS:
        os.environ[var] = "1"
    from bench import main

    sys.exit(main())
