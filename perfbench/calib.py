"""Machine-speed calibration for the reported times.

The benchmark runs on shared machines whose per-core speed drifts by tens
of percent over minutes, which swamps the changes the benchmark is meant to
show (README.md gives raw and scaled spreads).  The times of the
in-process workloads are therefore scaled to a reference machine speed: a fixed kernel shaped like
the program's work (scalar complex arithmetic in Python, numpy on short
arrays as in the Euler-Maclaurin kernel, numpy on a long array as in the
prime-power sums) is timed between the operations, and a time t is reported
as t * REF_S / c, with c the median of the NEAREST samples closest in time
to it.  One kernel pass jitters by about 30%, so a single sample is never
used on its own; the window still follows drift over tens of seconds.

The kernel runs in a helper process of its own (this file run as a script),
so nothing the program leaves behind in the measured process (tables,
caches, heap) changes the kernel's time; the caller waits while the helper
runs it.
"""
from __future__ import annotations

import cmath
import math
import statistics
import subprocess
import sys
import time

import numpy as np

REF_S = 0.015        # kernel time that defines the reference speed
EVERY_S = 0.5        # take a sample after this much measured work
NEAREST = 5          # samples whose median scales one measured time

_SHORT = np.arange(1.0, 48.0) + 0.5
_LONG = np.linspace(1.0, 2.0, 50_000)


def measure() -> float:
    """Wall seconds of one pass of the calibration kernel."""
    t0 = time.perf_counter()
    acc = 0j
    for k in range(1, 6000):
        acc += cmath.exp(-complex(0.5, k) * math.log(k))
    for k in range(500):
        acc += complex(np.exp(-(0.5 + 1j * k) * np.log(_SHORT)).sum())
    for k in range(2):
        acc += complex(np.exp(-(1.3 + 1j * k) * np.log(_LONG)).sum())
    return time.perf_counter() - t0


class Kernel:
    """The helper process; sample() has it run one kernel pass."""

    def __init__(self):
        self.p = subprocess.Popen([sys.executable, __file__],
                                  stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True)
        self.sample()      # the first pass also warms the helper up

    def sample(self) -> float:
        self.p.stdin.write("\n")
        self.p.stdin.flush()
        return float(self.p.stdout.readline())

    def stamp(self) -> tuple[float, float]:
        """(perf_counter() at the pass, its duration)."""
        return time.perf_counter(), self.sample()

    def close(self) -> None:
        self.p.stdin.close()
        self.p.wait()


def factor(stamps: list[tuple[float, float]], t: float) -> float:
    """Scale factor for a time measured around perf_counter() = t."""
    near = sorted(stamps, key=lambda s: abs(s[0] - t))[:NEAREST]
    return REF_S / statistics.median(c for _, c in near)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(measure()), flush=True)
