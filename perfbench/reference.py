"""Host-speed reference: a fixed pure-Python loop timed next to the ops.

On a shared host the speed of one and the same op swings by up to 2x over
5-20 s windows, CPU time included (co-tenants, frequency changes), and the
swings outlast a run.  The benchmark times this loop (about 1 ms) before
and after every op and scales the op time by NOMINAL_S over the mean of the
two.  Over a 2 min probe on a 2 vCPU host, a 512-point certify ranged
11.8-20.4 ms per 5 s window while its ratio to this loop stayed within
1.68-2.02 (mostly 1.82-1.88).

The loop allocates no container per iteration, so it triggers no cyclic
garbage collection and does not slow down when the program keeps a larger
heap; it is independent of hardykit.
"""

import math
import time

# loop time on the uncontended host the probe above ran on
NOMINAL_S = 0.0013


def _loop() -> float:
    d = {}
    acc = 0.0
    xs = []
    for i in range(4000):
        x = (i % 97) * 0.013 + 1.0
        acc += math.sqrt(x) * math.log(x) / (1.0 + x * x)
        d[i & 255] = acc
        xs.append(x)
        if len(xs) > 64:
            xs.clear()
    return acc


def loop_seconds() -> float:
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
