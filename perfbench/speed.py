"""Machine-speed probes, for timings that hold still on a shared host.

The host lends this benchmark a few cores of a shared machine, and their
speed drifts, in phases that last from under a second to minutes, on each
CPU on its own.  Over ten minutes of a 2-core VM, the best time of a fixed
job in each 40 s window ranged from 0.17 s to 0.29 s.  Wall time alone then
measures the neighbours as much as the program.

The probe is a fixed pure-Python workload that is independent of the
program but does the kind of work it does: it builds tuple terms, matches
patterns against them recursively with dict environments, renders them to
text and adds Fractions.  A `Speedometer` runs the full probe (about 8 ms)
between jobs, and a short one (about 1 ms, no Fractions) every TICK_S
during a job, from a timer signal.  Each run of a probe gives a speed: its
reference time over its time now.  A job's time is then reported in
reference seconds:

    seconds = (wall - time spent in ticks) * mean speed over the job

where the mean is over the probes just before and just after the job and
the ticks during it.  The probes must run on the CPU that runs the job, so
the benchmark pins its process to one CPU.  The reference times are the probes' median times on
the machine the benchmark was tuned on (a 2-core VM, Python 3.11.7).  A slow
phase stretches job and probes alike, so it cancels; a slower or faster
program changes the job and not the probes, so it shows in full.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from time import perf_counter
from typing import Any, Optional

REFERENCE_S = 0.0084  # median of the full probe: 5,280 runs over nine minutes
# The short probe ran 7.92x faster than the full one (medians of 2,487 and
# 1,120 runs in and around corpus jobs), so this is the same reference speed.
TICK_REFERENCE_S = REFERENCE_S / 7.92
TICK_S = 0.05  # interval of the short probe during a job

_PATTERNS = (
    ("a", ("X",), ("0",)),
    ("b", ("X",), ("0",)),
    ("c", ("b", ("X",), ("0",)), ("0",)),
)


def _term(depth: int, rng: random.Random) -> tuple:
    if depth == 0:
        return ("0",)
    right = _term(depth - 1, rng) if rng.random() < 0.3 else ("0",)
    return (rng.choice("abc"), _term(depth - 1, rng), right)


def _match(pattern: tuple, term: tuple, env: dict) -> bool:
    if pattern[0] == "X":
        if "X" in env:
            return env["X"] == term
        env["X"] = term
        return True
    if pattern[0] != term[0] or len(pattern) != len(term):
        return False
    return all(_match(p, t, env) for p, t in zip(pattern[1:], term[1:]))


def _matches(count: int) -> int:
    rng = random.Random(5)
    terms = [_term(6, rng) for _ in range(count)]
    hits = 0
    for term in terms:
        stack = [term]
        while stack:
            sub = stack.pop()
            hits += sum(_match(p, sub, {}) for p in _PATTERNS)
            stack.extend(sub[1:])
    return hits + len(str(terms[-1]))


def _work() -> int:
    total = sum((Fraction(1, i) for i in range(1, 200)), Fraction(0))
    return _matches(60) + total.denominator % 7


def probe() -> float:
    """Wall seconds of one run of the full probe."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


class Speedometer:
    """The speeds measured around and during one job.

    Call `probe()` before the job and after it, and run the job inside
    `with meter:`, which adds a tick every TICK_S.  The probe after one job
    may serve as the probe before the next.
    """

    def __init__(self, speeds: Optional[list[float]] = None) -> None:
        self.speeds = list(speeds or [])
        self.spent = 0.0  # wall seconds spent in ticks

    def probe(self) -> None:
        self.speeds.append(REFERENCE_S / probe())

    def _tick(self, signum: int, frame: Any) -> None:
        t0 = perf_counter()
        _matches(8)
        dt = perf_counter() - t0
        self.spent += dt
        self.speeds.append(TICK_REFERENCE_S / dt)

    def __enter__(self) -> "Speedometer":
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def scaled(self, wall_s: float) -> float:
        """`wall_s`, less the ticks, in reference seconds."""
        return (wall_s - self.spent) * sum(self.speeds) / len(self.speeds)
