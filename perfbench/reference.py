"""Host-speed reference for the timing metrics.

The machine this benchmark was written on (2 shared cores) runs a fixed
piece of Python code up to 45% slower in one 10-second window than in
another, and the slow phases last minutes.  No statistic taken over the
program's own timings removes that.  So the benchmark also times a fixed
reference computation right after each item.  scale_after() turns those
reference times into the factor

    REFERENCE_S / (mean time of one reference unit right after the item)

and run.py scales an item's time by the mean of that factor and the one
taken before it (after the previous item).  Timings are hence given in seconds at the host speed at which one
reference unit takes REFERENCE_S.  Over 25-40 s windows this brought the
spread of a 0.2 s and a 2 s export from 21-27% down to 3-7%.

The reference is small complex numpy arithmetic in a Python loop, the
same mix as spheremin's quadrature, and it never calls spheremin, so a
change to the program cannot change it.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0025    # one unit on the reference host
SHARE = 0.1             # reference time per unit of item time
MIN_UNITS = 2


def reference_unit() -> complex:
    import numpy as np

    z = np.linspace(0.1, 1.0, 15) * (1.0 + 0.5j)
    w = np.cos(np.linspace(0.0, 3.0, 15))
    acc = 0j
    for i in range(200):
        u = z * (1.0 + 0.01 * i)
        v = (u ** 3 - 4.0) ** -2 * np.exp(1j * u)
        acc += complex(v @ w)
        acc += sum(abs(x) for x in (u[0], u[7], u[14]))
    return acc


def scale_after(seconds: float) -> float:
    """Run reference units for SHARE of `seconds` (at least MIN_UNITS)
    and return the factor from measured to reference-host seconds."""
    times = []
    while len(times) < MIN_UNITS or sum(times) < SHARE * seconds:
        t0 = time.perf_counter()
        reference_unit()
        times.append(time.perf_counter() - t0)
    return REFERENCE_S / statistics.fmean(times)
