"""Machine-speed probe for the benchmark's time metrics.

On a shared host the interpreter's speed drifts: here it switches between
two states about 1.3-1.6x apart, sometimes within a second and sometimes
after minutes, so identical code moves by 20-35 % between runs.  The probe
times a fixed pure-Python reference loop (tuples, a dict, integer
arithmetic; no pbent code) BRACKET times right before and right after every
timed interval, and every INTERVAL_S seconds from a SIGALRM handler, which
interrupts pbent between bytecodes, for the intervals that last longer.
An interval's speed factor is REFERENCE_S over the median loop time among
the samples taken within it and next to it; multiplying the interval's
duration by the factor gives its duration on a machine where the loop
takes REFERENCE_S.  The loop's time tracks pbent's command times
(correlation 0.89 over 150 n = 8 analyze commands here), so the factor
removes most of the drift; the raw times are kept beside it.  Sampling
every 0.05 s rather than every 0.2 s matters for commands under a second:
over 108 alternating commands the coefficient of variation of n = 4
--certify latencies fell from 0.16 raw to 0.11 (0.17 at 0.2 s), and of
n = 8 trinomial analyze latencies from 0.16 to 0.07 (0.13 at 0.2 s).  The
loop then costs about 2 % of the time.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 1e-3
INTERVAL_S = 0.05
BRACKET = 3
MARGIN_S = 0.05     # bracket samples this close to an interval belong to it


def median(xs) -> float:
    s = sorted(xs)
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2


def reference_loop() -> int:
    pairs = [(i, 3 * i) for i in range(2000)]
    table = {i: (a + b, a - b) for i, (a, b) in enumerate(pairs)}
    return sum(v[0] % 7 for v in table.values())


class SpeedProbe:
    """Reference-loop samples (end time, duration) while entered."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def bracket(self) -> None:
        """Samples between two timed intervals; call before the first and
        after each one."""
        for _ in range(BRACKET):
            self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median loop time around [start, end]."""
        near = [d for t, d in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        return REFERENCE_S / median(near or [d for _t, d in self.samples])
