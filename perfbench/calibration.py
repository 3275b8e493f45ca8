"""Host-speed calibration.

Identical work on a shared machine took 1.0x to 2.2x its uncontended time,
in slow spells from under a second to minutes, so raw seconds mostly
measure the neighbours.  A fixed pure-Python kernel timed right before and
after a measurement gives the machine's speed at that moment, and the
measurement is scaled by CALIBRATION_REF_S / (kernel time): reported times
are seconds on a machine where the kernel takes CALIBRATION_REF_S, about
its uncontended time on a 2.0 GHz x86-64 core.  Plain Python only: the
set-up probe imports this module before it imports ogm.
"""

import math
import time

CALIBRATION_REF_S = 0.018
CALIBRATION_ITERATIONS = 60_000


def calibration_s() -> float:
    """Seconds the calibration kernel takes now."""
    t = time.perf_counter()
    acc = 0.0
    slots = {}
    for i in range(CALIBRATION_ITERATIONS):
        x = (1.0000001, 0.5 + 1e-9 * i, 0.25)
        acc += math.sqrt(x[0] * x[0] + x[1] * x[1]) - math.cosh(0.001 * (i % 100))
        slots[i % 64] = x
    return time.perf_counter() - t


def speed_scale(before_s: float, after_s: float) -> float:
    """Factor from measured seconds to reference seconds."""
    return 2.0 * CALIBRATION_REF_S / (before_s + after_s)
