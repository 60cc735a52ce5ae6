"""Host speed, sampled while the program runs, to turn seconds into reference seconds.

On a shared host the speed of a CPU drifts: on the 2-vCPU VM this benchmark
was written on, a fixed pure-Python loop swings by up to ~1.8x, in phases
that last from under a second to several minutes, with CPU time tracking
wall time.  No estimator inside one run removes a phase longer than the
run, so two runs of the same code can differ by more than any useful bound.

So, while a round runs, a fixed pure-Python ``kernel`` (words spliced into
words, with small rational coefficients summed in a dict keyed by tuples:
the kind of work the program's own inner loops do) is timed every
``INTERVAL`` seconds from a ``SIGALRM`` handler in the one thread.  Each sample gives the host's speed at that
moment, relative to a reference host on which the kernel takes
``REF_KERNEL_S``.  An interval of program time is scaled by the mean speed
of the samples taken inside it, which gives *reference seconds*: the time
the same work would take at the reference speed.  The kernel's own time is
taken off the intervals it interrupts.  A change to the program moves its
reference seconds as it moves its seconds; a change in host speed moves
both the program and the kernel, and cancels.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.1
# fewest samples a speed is taken from
MIN_SAMPLES = 5
# the kernel's time at the reference speed; about its time on the host above
REF_KERNEL_S = 0.005
WORDS = [tuple((i * 7 + j) % 5 for j in range(1 + i % 5)) for i in range(48)]
COEFFS = [Fraction(n, d) for n in (-2, -1, 1, 3) for d in (1, 2, 3)]


def kernel() -> Fraction:
    """Fixed work: insert words into words, summing small rational coefficients by word."""
    total: dict[tuple, Fraction] = {}
    for i, u in enumerate(WORDS):
        for j, v in enumerate(WORDS[i % 6 :: 6]):
            c = COEFFS[(i + j) % len(COEFFS)]
            for k in range(len(u) + 1):
                w = u[:k] + v + u[k:]
                value = total.get(w, 0) + c
                if value:
                    total[w] = value
                else:
                    del total[w]
    return sum(total.values(), Fraction(0))


def sample() -> tuple[float, float]:
    """Time the kernel once: (start, seconds)."""
    start = perf_counter()
    kernel()
    return start, perf_counter() - start


class RefClock:
    """Samples the kernel on a timer while started; gives program time and host speed over an interval."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(sample())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def within(self, start: float, end: float) -> list[float]:
        """The kernel samples that started in ``[start, end)``."""
        return [dt for t, dt in self.samples if start <= t < end]

    def busy(self, start: float, end: float) -> float:
        """Program seconds in ``[start, end)``: its length less the kernel's time in it."""
        return end - start - sum(self.within(start, end))

    def speed(self, start: float, end: float) -> float:
        """Mean speed over the samples in ``[start, end)``, or the ``MIN_SAMPLES`` nearest if fewer.

        An interval shorter than ``MIN_SAMPLES * INTERVAL`` has too few
        samples of its own; ``top_up`` leaves enough just after it.
        """
        inside = self.within(start, end)
        if len(inside) >= MIN_SAMPLES:
            return speed(inside)
        middle = (start + end) / 2
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
        return speed([dt for _, dt in nearest])

    def top_up(self) -> None:
        self.samples.extend(sample() for _ in range(MIN_SAMPLES))


def speed(durations: list[float]) -> float:
    """The mean speed of these kernel samples, relative to the reference host."""
    if not durations:
        raise ValueError("no speed samples in the interval")
    return sum(REF_KERNEL_S / d for d in durations) / len(durations)


def bracketed(fn):
    """Run ``fn()`` between ``MIN_SAMPLES`` kernel samples before and after it.

    Returns (result, seconds, reference seconds), for intervals too short
    for the timer to sample.
    """
    before = [sample()[1] for _ in range(MIN_SAMPLES)]
    start = perf_counter()
    result = fn()
    seconds = perf_counter() - start
    after = [sample()[1] for _ in range(MIN_SAMPLES)]
    return result, seconds, seconds * speed(before + after)
