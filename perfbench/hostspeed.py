"""Host-speed probe: rescales measured host seconds to a reference speed.

The benchmark's host shares its physical cores with other tenants, and
the speed of the same single-threaded Python code drifts with them: by
up to 1.8x, in phases that last from seconds to minutes, with no steal
time to show for it.  A median over one run cannot remove a phase that
outlasts the run, so runs taken minutes apart disagree by more than any
useful bound.

``SpeedProbe`` measures that drift while the benchmark runs.  A timer
signal runs a small fixed kernel every ``PERIOD_S`` seconds of the timed
run (also in the middle of a paper-level call: the handler runs between
two bytecodes of whatever is executing), and records how long it took.
The kernel mixes a pure-Python arithmetic loop with a pointer chase
through a list of about 9 MB, in equal parts of its time: the mix that
tracked the simulator's own slowdowns best (see README.md, "Host-speed
probe").  ``rescale`` turns the wall seconds of an interval into the
seconds it would have taken on a host where one probe takes
``REFERENCE_S``: the interval's wall time, less the probes that ran
inside it, divided by the median probe time around it over
``REFERENCE_S``.

The probe costs about 2% of the run's wall time, which ``rescale``
takes back out.  It runs only in the timed run, never during a traced
one.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from time import perf_counter
from typing import Any, List

#: Seconds between two probes.
PERIOD_S = 0.05
#: Median seconds of one probe on the host described in README.md
#: ("Host"); it only fixes the unit of rescaled seconds.
REFERENCE_S = 8.0e-4
#: Fewest probes a speed estimate uses; an interval with fewer probes
#: inside it borrows those within ``WINDOW_S`` seconds either side.
MIN_PROBES = 5
WINDOW_S = 1.0

#: The loop and the chase take about the same time on the host above.
_LOOP = 4500
_CHASE = 1000
_CHAIN = 256_000


def _chain(size: int, seed: int) -> List[int]:
    """A random single cycle through ``range(size)``: ``i = nxt[i]``."""
    order = list(range(size))
    random.Random(seed).shuffle(order)
    nxt = [0] * size
    for a, b in zip(order, order[1:] + order[:1]):
        nxt[a] = b
    return nxt


class SpeedProbe:
    """Samples host speed on a timer signal while in a ``with`` block."""

    def __init__(self) -> None:
        self._next = _chain(_CHAIN, 1)
        self._pos = 0
        self._previous: Any = None
        #: End time (``perf_counter``) and duration of every probe.
        self.at: List[float] = []
        self.took: List[float] = []

    def probe(self) -> None:
        t0 = perf_counter()
        x = 0
        for i in range(_LOOP):
            x += i * i % 7
        nxt, j = self._next, self._pos
        for _ in range(_CHASE):
            j = nxt[j]
        self._pos = j
        t1 = perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def _on_signal(self, _signum: int, _frame: Any) -> None:
        self.probe()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _span(self, t0: float, t1: float) -> range:
        return range(bisect.bisect_left(self.at, t0),
                     bisect.bisect_right(self.at, t1))

    def slowdown(self, t0: float, t1: float) -> float:
        """Median probe time around ``[t0, t1]`` over ``REFERENCE_S``:
        above 1 when the host ran slower than the reference."""
        span = self._span(t0, t1)
        if len(span) < MIN_PROBES:
            span = self._span(t0 - WINDOW_S, t1 + WINDOW_S)
        if len(span) < MIN_PROBES:
            # Too short a run for the timer: probe now, outside [t0, t1].
            start = len(self.at)
            for _ in range(MIN_PROBES):
                self.probe()
            span = range(start, len(self.at))
        return statistics.median(self.took[i] for i in span) / REFERENCE_S

    def rescale(self, t0: float, t1: float) -> float:
        """Seconds ``[t0, t1]`` would take at the reference host speed."""
        inside = sum(self.took[i] for i in self._span(t0, t1))
        return (t1 - t0 - inside) / self.slowdown(t0, t1)
