"""Host-speed calibration for timings taken on a shared host.

On a few cores of a shared machine the speed of the same code swings by up
to about 2x in episodes of seconds to minutes, as neighbours load the host.
A timed run of half a minute can sit wholly inside a slow or a fast episode,
so raw wall-clock medians of separate runs disagree by more than any useful
regression bound.

The benchmark therefore times a fixed pure-Python kernel right before and
right after each timed interval and rescales the interval to a host on which
the kernel takes ``NOMINAL_S``: ``reference_s = wall_s * NOMINAL_S /
kernel_s``. The kernel does not touch the package, so a change to the
package moves the rescaled time exactly as it moves the wall time on a host
of steady speed. Wall-clock figures are printed and saved beside the rescaled
ones.
"""

from __future__ import annotations

import time

ITERATIONS = 25_000
REPEATS = 3
#: Kernel time the timings are rescaled to. A fixed scale, close to the
#: kernel's time on an idle core of a 2-vCPU x86-64 virtual machine.
NOMINAL_S = 2.5e-3


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel (integer and dict work)."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(ITERATIONS):
        acc += i * 3 % 7
        table[i & 255] = acc
    return time.perf_counter() - start


def calibrate(repeats: int = REPEATS) -> float:
    """Shortest of a few kernel runs, so a single preemption does not count."""
    return min(kernel_s() for _ in range(repeats))


def speed(before_s: float, after_s: float) -> float:
    """Factor from wall time to reference time for an interval between two
    calibrations."""
    return NOMINAL_S / ((before_s + after_s) / 2.0)
