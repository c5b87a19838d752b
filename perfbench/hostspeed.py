"""Host speed probe: scales measured times to a reference host speed.

On a shared machine the speed of one vCPU drifts by 20-30% over tens of
seconds as neighbours come and go, and a drift often lasts longer than a
whole benchmark run.  Raw pass times then spread between runs by as much
as a real regression would move them.  A fixed pure-Python loop that
never touches ncgb, timed right before and right after every pass, tracks
that drift: the benchmark reports each time multiplied by
``REFERENCE_S / probe time``, i.e. the time the pass would have taken
while the probe ran at its reference speed.  The probe's loop mixes the
operations ncgb spends its time on (bytes keys in dicts, ``Fraction``
arithmetic, sorting by a translated key).  The garbage collector is off
during the probe, so heap left behind by the program does not slow it.
The probe never runs inside a pass: sampled from a timer while ncgb ran,
the same loop took 10-30% longer than just before or after, so the scale
would depend on the program's own cache footprint.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Probe time (min of REPEATS) on an unloaded Intel Xeon 2.1 GHz vCPU,
# Python 3.11; fixed so that scaled times stay comparable between commits.
REFERENCE_S = 0.0175
REPEATS = 3
_TABLE = bytes(range(255, -1, -1))


def _loop():
    d = {}
    x = Fraction(1, 3)
    for k in range(7000):
        w = (k * 2654435761 % 1000003).to_bytes(4, "little")
        d[w] = d.get(w, 0) + x
        if k % 7 == 0:
            x = x * Fraction(3, 2) - 1 if abs(x) < 100 else Fraction(1, 3)
    sorted(d, key=lambda b: (len(b), b.translate(_TABLE)))


def probe() -> float:
    """Seconds the fixed loop takes now (the fastest of a few tries)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into reference time."""
    return REFERENCE_S / ((before + after) / 2)
