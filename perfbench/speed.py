"""The speed probe: a fixed pure-Python DP fill timed next to a measurement.

On a shared box the same call can run 35% slower for tens of seconds
while neighbours are busy, and CPU time slows as much as wall time.
Dividing a wall time by the probe's time measured at the same moment
cancels that drift. PROBE_REF_S, the probe's time in the usual slow phase
of a 2-core Intel Xeon with Python 3.11, scales the result back to
seconds. This module imports nothing from promsa, so a fresh interpreter
can run the probe before it times ``import promsa``.
"""

from time import perf_counter_ns

PROBE_ROWS, PROBE_COLS = 200, 300
PROBE_REF_S = 0.0136


def speed_probe() -> float:
    """Wall seconds of a fixed DP fill in pure Python."""
    t0 = perf_counter_ns()
    prev = list(range(PROBE_COLS))
    for i in range(PROBE_ROWS):
        cur = [i] * PROBE_COLS
        for j in range(1, PROBE_COLS):
            best = prev[j - 1] + (3 if (i ^ j) & 3 == 0 else 0)
            up = prev[j] - 1
            if up > best:
                best = up
            left = cur[j - 1] - 1
            if left > best:
                best = left
            cur[j] = best
        prev = cur
    return (perf_counter_ns() - t0) / 1e9


def scaled(wall_s: float, probe_s: float) -> float:
    """A wall time converted to seconds at the reference probe speed."""
    return wall_s * PROBE_REF_S / probe_s
