"""Calibration kernel: a fixed piece of work whose run time tracks the
host's current speed.

The host this benchmark was written on drifts between speed states within
a second (a fixed loop's time moves by up to 40%), so raw wall times of
short runs cannot repeat.  The benchmark runs this kernel after every
request (about once per 4 ms of request) and reports each timing at
reference speed:

    calibrated = wall * NOMINAL_KERNEL_S / (mean kernel time around it)

The kernel is a pure-Python loop plus small numpy operations, the same mix
of work as the library, and calls no qopposition code.

To re-derive NOMINAL_KERNEL_S on another machine, run

    python3 perfbench/calib.py 60

and copy the mean it prints (the host's two speeds make the median jump
between them; the mean moves smoothly with the share of slow periods).  Changing the constant rescales every
timing the benchmark reports, so compare two commits only with the same
constant.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

# mean kernel time on the reference machine (2-vCPU Intel Xeon VM at
# 2.0 GHz, Python 3.11.7, numpy 2.4.6), from `python3 perfbench/calib.py 60`
NOMINAL_KERNEL_S = 0.00093

_RNG = np.random.default_rng(20140607)
_M = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_M /= np.linalg.norm(_M, 2)
_V = _RNG.standard_normal(4) + 1j * _RNG.standard_normal(4)


def kernel() -> int:
    acc = 0
    table = {}
    for i in range(3000):
        acc += (i * 7) % 13
        table[i & 63] = acc
    v = _V
    for _ in range(60):
        v = _M @ v
        v = v / np.linalg.norm(v)
        acc += abs(np.vdot(v, _V)) > 2.0
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def reps_after(wall: float) -> int:
    """Kernel runs after a request of `wall` seconds: about one per 4 ms of
    request, 1 to 40.  The host switches speed every few milliseconds, so
    the share of slow periods around a long request takes many samples to
    estimate."""
    return max(1, min(40, round(wall / 0.004)))


def sample(wall: float) -> tuple:
    """(sum, count) of the kernel times run after a request of `wall` s."""
    times = [time_kernel() for _ in range(reps_after(wall))]
    return sum(times), len(times)


def local_reference(samples: list, i: int, least: int = 20) -> float:
    """Mean kernel time around request i: the samples taken just before it
    (after request i-1) and just after it, widened to neighbouring requests
    until there are at least `least` samples.  `samples` holds one
    (sum, count) per request."""
    lo, hi = max(0, i - 1), i + 1
    total, count = 0.0, 0
    for s, c in samples[lo:hi]:
        total, count = total + s, count + c
    while count < least and (lo > 0 or hi < len(samples)):
        for j in (lo - 1, hi):
            if 0 <= j < len(samples):
                total, count = total + samples[j][0], count + samples[j][1]
        lo, hi = max(0, lo - 1), min(len(samples), hi + 1)
    return total / count


def main(argv) -> int:
    seconds = float(argv[1]) if len(argv) > 1 else 30.0
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # as run.py does
    end = time.perf_counter() + seconds
    samples = []
    while time.perf_counter() < end:
        samples.append(time_kernel())
    q1, med, q3 = statistics.quantiles(samples, n=4)
    print(f"kernel runs: {len(samples)}  mean: {statistics.fmean(samples):.6g} s  "
          f"median: {med:.6g} s  quartiles: {q1:.6g} .. {q3:.6g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
