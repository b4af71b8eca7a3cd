"""Item times scaled to a reference host speed.

On a shared 2-vCPU host the speed drifts by tens of percent
within seconds and minutes; the same report took 226 ms in one minute and
357 ms a few minutes later.  Process CPU time drifts with it, so the drift
is in how fast the host runs, not in time spent descheduled.  A fixed
pure-Python kernel, which never calls maxreg, measures the host's speed:
once before and once after each timed call, and every ``PERIOD_S`` during
it on a sampler thread.  The kernel stays well under the interpreter's
5 ms thread switch interval, so it runs without interruption while the
call waits; its time is taken out of the call's.  Each call's wall time is
then scaled by ``REFERENCE_S / harmonic mean kernel time``: the time it
would have taken on a host that runs the kernel in ``REFERENCE_S``.  The
samples are spread evenly in time and a sample's inverse is the host's
speed at that moment, so the mean of the inverses is the mean speed over
the call, and the work done is that speed times the call's time.  The
arithmetic mean would weigh slow moments too much; on a host whose kernel
time varied by 50% from sample to sample, it left twice the spread between
runs.
"""

from __future__ import annotations

import statistics
import threading
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0015        # kernel time defining the reference host
PERIOD_S = 0.05             # host-speed samples during a timed call


def kernel() -> tuple:
    """Small-denominator Fraction arithmetic, allocation, a dict, a sort and
    integer cross-multiplication: the mix maxreg's own code runs."""
    fracs = [Fraction(i % 97, i % 89 + 1) for i in range(1, 400)]
    total = Fraction(0)
    for i in range(400):
        total += fracs[i * 7919 % len(fracs)]
    ordered = sorted({i * 7919 % 10007: i for i in range(1000)})
    best_num, best_den = 0, 1
    for i in range(1, 1500):
        num, den = ordered[i % len(ordered)] - i, i
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return total, best_num, best_den


def kernel_time() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def timed(call):
    """``call()`` -> (result, wall seconds, reference seconds)."""
    samples = [kernel_time()]
    during: list[float] = []
    stop = threading.Event()

    def sample():
        while not stop.wait(PERIOD_S):
            during.append(kernel_time())

    sampler = threading.Thread(target=sample, daemon=True)
    t0 = perf_counter()
    sampler.start()
    try:
        out = call()
    finally:
        stop.set()
        sampler.join()
    wall = perf_counter() - t0 - sum(during)
    samples += during
    samples.append(kernel_time())
    return out, wall, wall * REFERENCE_S / statistics.harmonic_mean(samples)
