"""Wall time rescaled to a fixed machine speed.

The 2-vCPU machine this benchmark was built on shares its cores with other
tenants, and its speed drifts by up to a factor of two over seconds to
minutes.  A fixed piece of interpreter work, the probe, is timed every
``PROBE_EVERY_S`` seconds of the run; each measured interval is multiplied
by ``REFERENCE_PROBE_S / probe time``, i.e. reported as it would have taken
on a machine where the probe takes ``REFERENCE_PROBE_S``.  A change to
unicipher moves its own times and not the probe's, so it still shows in
full; a slower or faster moment of the machine moves both and cancels.
The probe mixes what unicipher spends its time on: ``Fraction`` arithmetic,
big-integer products, decimal strings, small containers and JSON.
"""

from __future__ import annotations

import json
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

# About the median probe time on the machine the benchmark was built on.  It
# is a fixed constant: it only sets the unit reference times are given in.
REFERENCE_PROBE_S = 0.00135
PROBE_EVERY_S = 0.05
# Operands of the size of coding-matrix entries at n = 500.
_BIG_A, _BIG_B = 7**600, 11**500


def probe_seconds() -> float:
    """Wall time of one run of the fixed probe work."""
    start = perf_counter()
    acc = 0
    for i in range(80):
        f = Fraction(i + 1, 7) + Fraction(3, i + 2)
        acc += len(str(f.numerator * 12345678901234567**3))
        d = {"c": [str(i), str(i * 12345678901234)], "k": i}
        acc += len(json.loads(json.dumps(d))["c"])
        if i % 4 == 0:
            acc += len(str(_BIG_A + i)) + (_BIG_A * _BIG_B).bit_length()
    return perf_counter() - start


class Gauge:
    """The current wall-to-reference scale, re-probed every ``PROBE_EVERY_S``.

    The scale uses the median of the last three probes, so one probe caught
    in a short burst does not skew the next interval.
    """

    def __init__(self):
        self.scale = 1.0
        self._recent: deque[float] = deque(maxlen=3)
        self._next = 0.0

    def refresh(self, force: bool = False) -> float:
        if force or perf_counter() >= self._next:
            self._recent.append(probe_seconds())
            self.scale = REFERENCE_PROBE_S / statistics.median(self._recent)
            self._next = perf_counter() + PROBE_EVERY_S
        return self.scale
