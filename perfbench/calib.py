"""Machine-speed calibration for a shared, noisy host.

The 2-CPU host this benchmark was tuned on changes speed by up to
1.7x for tens of seconds at a time. CPU time and wall time change
alike, so the slowdown is in the CPU the process gets, not in waiting.
Raw wall-clock figures from two runs a minute apart then differ by more
than any bound worth setting.

So the benchmark times a fixed reference kernel before every request
and scales each measured time by NOMINAL_S / (the kernel's median time
around that request). The kernel is benchmark code, not subcss code, so
a change to the program leaves it alone, and scaled figures still
compare two versions of the program. Scaled figures are in
"nominal-speed" seconds: the time the work would take on that host in a
phase where the kernel runs in NOMINAL_S. Unscaled figures are printed
beside them.

Slow phases do not slow all code alike: interpreter-bound work (many
small numpy calls, Python objects) and array-bound work (row updates of
large matrices) each follow their own factor, and requests mix the two.
The kernel does both kinds for about the same time each; on the host it
was tuned on, this tracked small and large requests better than either
kind alone.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median kernel time on the host the benchmark was tuned on.
NOMINAL_S = 0.00085
# Kernel samples within this many seconds of a request calibrate it.
WINDOW_S = 2.0

_SMALL = np.random.default_rng(12345).integers(0, 3, size=(16, 40))
_MEDIUM = np.random.default_rng(54321).integers(0, 2, size=(60, 120))


def _small() -> int:
    """An echelon loop of small numpy calls and Python objects, like
    decoding one error or building one coset state. Kept apart from
    checks._rref: the kernel must stay the same when the checks change."""
    m = _SMALL.copy()
    r = 0
    for c in range(m.shape[1]):
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, 3)) % 3
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % 3
        r += 1
        if r == m.shape[0]:
            break
    return len({tuple(row) for row in m.tolist()})


def _medium() -> int:
    """Row updates of a medium-size matrix, like one echelon of a large code."""
    big = _MEDIUM.copy()
    for c in range(5):
        big = (big - np.outer(big[:, c], big[c])) % 2
    return int(big[0, 0])


def sample() -> tuple[float, float]:
    """(time taken, midpoint) of one run of the kernel."""
    t0 = time.perf_counter()
    _small()
    _medium()
    t1 = time.perf_counter()
    return t1 - t0, (t0 + t1) / 2


def factor_now(samples: int = 15) -> float:
    """Scale factor to nominal speed from kernel runs taken right now."""
    return NOMINAL_S / statistics.median(sample()[0] for _ in range(samples))


class Speed:
    """Kernel samples taken through a run."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        took, at = sample()
        self.at.append(at)
        self.took.append(took)

    def factor(self, t0: float, t1: float) -> float:
        """Scale factor to nominal speed for a time measured over [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        return NOMINAL_S / statistics.median(self.took[lo:hi])
