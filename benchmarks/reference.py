"""A fixed reference job that uses nothing of switchq, for scaling timings to host speed.

The machine this benchmark runs on is shared: the speed of one process
drifts by up to 1.5x over tens of seconds, often for longer than a whole
run, and for seconds at a time the process is not scheduled at all.  The
workloads run single-threaded in one process, so run.py times them in
process CPU time, which leaves out the time they were not scheduled.  The
reference job mixes what the workloads spend their time on (a slot loop
over lists, many small function calls on floats and dicts, small numpy
ops, object allocation).  run.py times it between the operations of each
rep (SegmentTimer) and around each set-up probe, and reports CPU times
scaled by (NOMINAL_S / reference time at that moment) ** ELASTICITY, which
reads as seconds on the host at its nominal speed.  Never change this job
or these constants: scaled timings are comparable only while they stay
the same.
"""

import math
import statistics
import time

import numpy as np

# Median time of job() on a 2-vCPU Xeon at 2.0 GHz when the host is quiet.
NOMINAL_S = 0.0105
SAMPLES = 9
# Operations shorter than this share one segment, so that short commands
# are not outweighed by reference runs between them.
MIN_SEGMENT_S = 0.5
# Fitted on one ten-seed set of runs of all three workloads on that host
# (seeds 1-10) as the exponent, in steps of 0.05, with the smallest largest
# quartile spread of run medians (0.075; 0.16 at 0.4, 0.11 at 1.1); checked
# on two later ten-seed sets (benchmarks/README.md).  The workloads slow
# down less than the reference when the host is busy.
ELASTICITY = 0.85


def _corners(e: float):
    b2 = ((1 - e) * (3 - 2 * e) / (4 * (2 - e)), (3 - 2 * e) / (4 * (2 - e)))
    return [("b5", (0.5, 0.0)), ("b3", (b2[1], b2[0])), ("b2", b2), ("b0", (0.0, 0.5))]


def job() -> None:
    channel = [i & 1 for i in range(20_000)]
    q, m = 0, 1
    for t in range(20_000):
        if channel[t] and q > 0:
            q -= 1
        elif not channel[t]:
            m = 3 - m
        q += (t * 7) % 3 == 0
    acc = 0.0
    for k in range(3000):
        e = 0.001 + k * 1e-4
        pts = dict(_corners(e))
        acc += pts["b2"][0] + 1.5 * pts["b3"][1] + math.sqrt(e)
    a = np.arange(256)
    pos = np.ones(256, dtype=np.int64)
    for _ in range(300):
        pos = np.where(a[a & 7] == 1, pos, 3 - pos)
    [(float(i), float(-i)) for i in range(5000)]


def scale(raw: float, ref: float) -> float:
    """A raw time taken alongside reference time ref, at nominal host speed."""
    return raw * (NOMINAL_S / ref) ** ELASTICITY


def seconds() -> float:
    """Median time of SAMPLES runs of the reference job."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        job()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SegmentTimer:
    """Times work in segments, with the reference job timed between segments.

    Call lap() after each operation; a segment closes once it holds at
    least MIN_SEGMENT_S of work, and lap(final=True) closes the last one.
    raw sums the segments' wall-clock time and cpu their process CPU time;
    scaled sums each segment's CPU time scaled by the mean of the reference
    times taken just before and just after it.  Reference runs count in
    none of them.  segments lists (CPU time, reference time) per segment,
    so ELASTICITY can be refitted from run records.  ref is the latest
    reference time.
    """

    def __init__(self, ref: float):
        self.ref = ref
        self.raw = self.scaled = self.cpu = 0.0
        self.segments: list[tuple[float, float]] = []
        self._pending = self._pending_cpu = 0.0
        self._start, self._cpu_start = time.perf_counter(), time.process_time()

    def lap(self, final: bool = False) -> None:
        self._pending += time.perf_counter() - self._start
        self._pending_cpu += time.process_time() - self._cpu_start
        if final or self._pending >= MIN_SEGMENT_S:
            ref = seconds()
            mid = (self.ref + ref) / 2
            self.raw += self._pending
            self.scaled += scale(self._pending_cpu, mid)
            self.cpu += self._pending_cpu
            self.segments.append((self._pending_cpu, mid))
            self.ref, self._pending, self._pending_cpu = ref, 0.0, 0.0
        self._start, self._cpu_start = time.perf_counter(), time.process_time()
