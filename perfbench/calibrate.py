"""Fixed reference work that measures how fast the machine runs right now.

On a shared machine the same solve can take twice as long from one minute to
the next (a busy sibling hyperthread, frequency changes).  The benchmark
times one calibration block before and one after every measured solve and
parse, and reports each time scaled by `REF_BLOCK_S / block`, with `block`
the mean of the two: seconds as they would read with the calibration block
taking REF_BLOCK_S.  The block mixes interpreter work with small numpy
calls, like digseg's inner loops, so both slow down alike.  It uses no
digseg code, so no change to digseg can move it.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

REF_BLOCK_S = 0.02  # one block on a quiet core of the machine the bench was tuned on
REPS = 5


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.random((64, 10))
        self.picks = rng.integers(0, 64, size=4000).tolist()
        self.head = np.asarray(self.picks[:500])
        self.last_block: Optional[float] = None

    def _task(self) -> float:
        acc = 0.0
        buckets: dict[int, int] = {}
        for t, i in enumerate(self.picks):
            row = self.rows[i]
            acc += float(row @ row)
            buckets[t & 255] = buckets.get(t & 255, 0) + i
        counts = np.cumsum(np.bincount(self.head, minlength=64))
        return acc + float(counts[-1]) + len(buckets)

    def block(self) -> float:
        """Seconds taken by one calibration block."""
        t0 = time.perf_counter()
        for _ in range(REPS):
            self._task()
        return time.perf_counter() - t0

    def timed(self, fn: Callable):
        """Run `fn` between two blocks; returns (its result, raw seconds, calibrated seconds, block).

        The block after one call doubles as the block before the next, so
        back-to-back measurements pay for one block each.  Call `forget()`
        after untimed work so a stale block is not reused.
        """
        before = self.last_block if self.last_block is not None else self.block()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        self.last_block = self.block()
        block = (before + self.last_block) / 2
        return result, raw, raw * REF_BLOCK_S / block, block

    def forget(self) -> None:
        self.last_block = None
