"""Host-speed calibration: a fixed pure-Python kernel timed between jobs.

The benchmark shares a few cores of a host with other tenants.  Whatever
runs beside it (on the other hyperthread of a core, or on the same cache)
slows every instruction stream at once, by up to 1.7x, in bursts from
milliseconds to minutes long.  Wall time alone therefore measures the
neighbours as much as the library.

A ``sample()`` times one run of a kernel that never changes: big-integer
modular arithmetic, Fractions and a small dict, the kinds of work the
library's p-adic and rational code does.  ``run.py`` takes one sample
before every job and after the last.  A job's *reference time* is its wall
time times ``C_REF`` over the median of the four samples nearest it (two
before, two after): the time the job would take on the host at the speed
where the kernel takes ``C_REF`` seconds.  On a quiet host the two agree.
Over repeated passes of one job list on a 2-core host whose wall time per
pass varied by 13-18 % (coefficient of variation), reference time per pass
varied by 1-3 %.  A kernel that also streamed through a megabyte of
memory tracked the jobs worse, and so did one speed figure per pass
instead of one per job.

The kernel uses nothing from ``sigma_nabla``, so no change to the library
can move it; the garbage collector is off while it runs, so that the
library's heap cannot either.
"""

import gc
import random
import statistics
from fractions import Fraction
from time import perf_counter

# The reference speed is the one at which the kernel takes C_REF seconds,
# a round figure near its time on a quiet 2-core x86-64 host under Python
# 3.11.7 (0.33-0.6 ms).
C_REF = 0.0005

_M = 3 ** 40
_rng = random.Random(20151211)
_KEYS = [(_rng.randrange(-40, 40), _rng.randrange(3 ** 12))
         for _ in range(600)]


def _kernel():
    x = 12345
    for i in range(300):
        x = (x * x + i) % _M
    f = Fraction(1, 3)
    for i in range(30):
        f = (f * Fraction(i + 2, i + 1) + 1) / 3
    d = {}
    for e, c in _KEYS:
        d[e] = (d.get(e, 0) + c * c) % _M
    return x, f, sorted(d.items())


def sample():
    """Wall seconds of one kernel run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_time(seconds, samples):
    """``seconds`` of wall time at the speed the calibration ``samples``
    taken during or around it show, in reference seconds."""
    return seconds * C_REF / statistics.median(samples)


def reference_times(times, samples):
    """Reference times of consecutive intervals; ``samples[i]`` was taken
    just before interval ``i`` and ``samples[-1]`` after the last one."""
    if len(samples) != len(times) + 1:
        raise ValueError("need one calibration sample around each interval")
    return [reference_time(t, samples[max(0, i - 1):i + 3])
            for i, t in enumerate(times)]
