"""The reference speed that end-to-end times are scaled to.

The shared host this benchmark was built on runs a guest at speeds that
differ by up to 1.9 times for a minute or more.  Those stretches outlast
a run, so no statistic over the passes of one run removes them.  They
slow a fixed pure-Python loop about as much as they slow the program.
So each timed call is followed by a short stretch of that loop, and the
call's time is scaled by how fast the loop ran next to it:

    scaled time = time * REF_LOOP_S / (measured time of one loop)

A scaled time estimates the time on a host that runs one loop in
``REF_LOOP_S``: the reference box in its fast state.  It moves with the
program's own speed and much less with the host's.
"""

from __future__ import annotations

import time

# One reference loop on the reference box (Intel Xeon, Python 3.11.7) in
# its fast state.  Any fixed value serves: it only sets the scale.
REF_LOOP_S = 4.8e-5
# The loop runs for this share of the call it follows, and at least
# REF_MIN_S, so that it samples the host state the call ran in.
REF_SHARE = 0.1
REF_MIN_S = 0.01


def _loop():
    sum(range(3000))


def reference(seconds: float) -> tuple[float, int]:
    """Run the reference loop for about ``seconds``; returns the wall
    time taken and the loop count."""
    n = 0
    t0 = time.perf_counter()
    while True:
        _loop()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed, n


def after(call_s: float) -> tuple[float, int]:
    """The reference stretch that follows a call of ``call_s`` seconds."""
    return reference(max(REF_MIN_S, REF_SHARE * call_s))


def scale(ref_s: float, ref_loops: int) -> float:
    """Factor from measured to scaled time, given the reference stretches
    run next to the measured calls."""
    return REF_LOOP_S * ref_loops / ref_s
