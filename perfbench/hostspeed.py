"""Host-speed probe: op times stated at a fixed reference speed of the host.

On a shared 2-vCPU virtual machine, the same pure-Python loop runs at one
speed for a few seconds, then 1.7 to 2 times slower, and back. CPU time
tracks wall time, so this is not steal time but a core shared with other
guests. Over a 25-second run the slow share drifts: over ten runs of the
same code, the median op wall time spread by 10 to 40 % (IQR over median)
and the fastest op by 10 to 30 %.

So the benchmark times this fixed loop, which does not call the program,
before the first op and after each op, and states each op's time at the
speed at which the loop takes ``REFERENCE_S``: op seconds times
``REFERENCE_S`` over the mean of the probe just before and just after it.
On the same machine, the median of these normalised times spread by 2 to
6 %. A change to the program moves them as it moves wall time; a change
of the host's speed mostly cancels. Raw wall times are printed beside
them.
"""

from __future__ import annotations

import gc
import time

# the probe's time at the reference speed. On the 2-vCPU machine the
# benchmark was defined on, the probe took about 0.062 s when the host was
# fast and 0.11 s when it was slow, so normalised times there read as wall
# times on the slow host, 1.6 times those on the fast one
REFERENCE_S = 0.1


def probe() -> float:
    """Wall seconds of a fixed loop of dict, string, tuple and sort work,
    the kinds of work the pipeline does, on a working set of a few hundred
    kB so that it sets no peak of memory, after a collection so that the
    garbage of the op before does not land in it."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(30):
        counts: dict[str, int] = {}
        parts = []
        for i in range(3000):
            key = "e%d" % (i * 7919 % 3000)
            counts[key] = counts.get(key, 0) + 1
            parts.append((key, i))
        parts.sort(key=lambda p: p[0])
        " ".join(p[0] for p in parts)
    return time.perf_counter() - start


def scales(probes: list[float]) -> list[float]:
    """Factor for the i-th timed span between ``probes[i]`` and
    ``probes[i + 1]``: a time times it is the time at the reference speed."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(probes, probes[1:])]
