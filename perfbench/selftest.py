"""Self-test of the benchmark's own machinery; run from the checkout root:

    python3 perfbench/selftest.py

Checks that clearing leaves every lyndonbar cache with ``currsize == 0``
after real work filled them, that the tracer reaches a function at every
name it is bound to and puts the originals back, and that a traced call
records spans, solver sizes and fallbacks, and that the reference clock
samples while started, takes its samples off the program's time and leaves
no timer behind.
"""

from __future__ import annotations

import signal
import sys
from time import perf_counter

from program import Program
from refclock import RefClock
from spans import Tracer


def main() -> int:
    program = Program()
    lifts, bar = program.layers["lifts"], program.layers["bar"]
    assert "lyndonbar.bar._hain_word" in program.caches
    assert "lyndonbar.dgcore.model_x" in program.caches

    lifts.lift_LB("00101", "plain")
    assert any(c.cache_info().currsize for c in program.caches.values())
    program.clear_caches()
    full = [n for n, c in program.caches.items() if c.cache_info().currsize]
    assert not full, full

    tracer = Tracer(program)
    originals = (lifts.solve_affine, lifts.hain_projector, bar.hain_projector, lifts.VARIANTS["plain"])
    tracer.install()
    assert lifts.solve_affine is not originals[0]
    assert lifts.hain_projector is bar.hain_projector is not originals[2]
    assert lifts.VARIANTS["plain"].model is program.layers["dgcore"].model_x
    assert not tracer.unwrapped_bindings()
    tracer.request = 0
    _, report = lifts.lift_LB("001011", "one")
    tracer.request = None
    tracer.uninstall()
    restored = (lifts.solve_affine, lifts.hain_projector, bar.hain_projector, lifts.VARIANTS["plain"])
    assert all(a is b for a, b in zip(originals, restored))

    assert report.all_ok and report.method == "oracle"
    assert tracer.fallbacks == 1
    assert [s[3] for s in tracer.solves] == [False, True]  # infeasible probe, then the lift
    assert tracer.spans and tracer.spans[-1][3] == "lifts.lift_LB"
    assert all(s[1] is None for s in tracer.spans if s[3] == "lifts.lift_LB")
    clock = RefClock()
    clock.start()
    try:
        start = perf_counter()
        while perf_counter() - start < 0.35:
            pass
        end = perf_counter()
    finally:
        clock.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.within(start, end)) >= 2
    assert 0 < clock.busy(start, end) < end - start and clock.speed(start, end) > 0
    clock.top_up()
    assert clock.speed(end, end + 1e-3) > 0  # too short for the timer: the nearest samples
    print("perfbench self-test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
