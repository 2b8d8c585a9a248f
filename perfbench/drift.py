"""Drift-corrected host time.

On a small shared machine the speed of pure-Python code drifts by tens of
percent within a minute.  Every timed operation is therefore bracketed by a
fixed pure-Python reference loop, and its wall time is scaled by the loop's
nominal time over the loop's measured time: a result reads the same whether
the machine was fast or slow while it ran.

The loop does float arithmetic, a math call and a function call per
iteration, like the simulator's inner loops, and allocates no container, so
the cyclic garbage collector never runs inside it.
"""
from __future__ import annotations

import math
import statistics
import time

REF_ITERATIONS = 20_000
# Time of one reference loop on the nominal host; corrected times are in
# units of that host.  A fixed constant: measuring it would undo the
# correction.
REF_NOMINAL_S = 0.002


def _step(x: float) -> float:
    return x * 0.999999 + 1e-6


def reference_loop() -> float:
    """Run the fixed loop once and return its wall time in seconds."""
    t0 = time.perf_counter()
    x = 0.5
    acc = 0.0
    for i in range(REF_ITERATIONS):
        x = _step(x)
        acc += math.sqrt(x) if i & 1 else x * 0.5
    t1 = time.perf_counter()
    if acc < 0.0:  # keeps the result live
        raise AssertionError(acc)
    return t1 - t0


def smooth(samples: list[float]) -> list[float]:
    """Running median of three: one interrupted reference loop is dropped."""
    if len(samples) < 3:
        return list(samples)
    inner = [statistics.median(samples[i - 1:i + 2])
             for i in range(1, len(samples) - 1)]
    return [samples[0], *inner, samples[-1]]


class Timeline:
    """Reference samples interleaved with timed operations in one round.

    `mark()` runs the reference loop; `op()` times one operation.  Every
    operation lies between two marks, and is scaled by the mean of their
    smoothed samples.  The round's own time is the sum of the gaps between
    marks, each scaled the same way, so time spent in reference loops never
    counts.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float, float]] = []  # (start, end, loop)
        self.ops: list[tuple[int, float, float]] = []  # (mark before, start, end)

    def mark(self) -> None:
        t0 = time.perf_counter()
        loop = reference_loop()
        self.marks.append((t0, time.perf_counter(), loop))

    def op(self, fn, *args, **kwargs):
        self.mark()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ops.append((len(self.marks) - 1, t0, time.perf_counter()))

    def _scales(self) -> list[float]:
        """Correction factor of the gap after each mark."""
        s = smooth([m[2] for m in self.marks])
        return [REF_NOMINAL_S / (0.5 * (s[i] + s[i + 1]))
                for i in range(len(s) - 1)]

    def round_times(self) -> tuple[float, float]:
        """(raw, corrected) seconds between the first and the last mark."""
        scales = self._scales()
        raw = corrected = 0.0
        for i, k in enumerate(scales):
            gap = self.marks[i + 1][0] - self.marks[i][1]
            raw += gap
            corrected += gap * k
        return raw, corrected

    def op_times(self) -> list[tuple[float, float]]:
        """(raw, corrected) seconds of every operation, in order."""
        scales = self._scales()
        return [(t1 - t0, (t1 - t0) * scales[i]) for i, t0, t1 in self.ops]
