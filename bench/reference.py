"""Host-speed reference for the benchmark's end-to-end times.

The benchmark runs on shared machines whose speed changes under it.  On a
shared 2-vCPU Intel Xeon VM, the same job list ran in 2.5 s for a whole
30 s run and in 4.4 s in another run a few minutes later, with CPU time
tracking wall time: the processor itself ran slower, for longer than a run,
so repetition inside one run cannot cancel it.  Within a run the speed
also switches, every few seconds, between two levels about 1.6x apart.

``reference_s()`` times a fixed computation that does not involve cofrig:
exact elimination of degree-2 cofactor rows over GF(2^61 - 1) (the
checker's own code), the kind of big-integer modular arithmetic in Python
that dominates the workloads.  Each worker times it right after start-up,
between jobs once at least a second of jobs has run since the last sample,
and after its last job.  A start-up time is rescaled by the sample right
after it, a pass time by the mean of the samples taken during the pass, to a
host on which the computation takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / reference time

A change to cofrig moves the scaled time in proportion to the measured one;
a change of host speed moves the measurement and the reference together and
cancels.  Raw times stay in every run report.
"""

from __future__ import annotations

import random
import time

from checker import Elimination

REFERENCE_S = 0.1  # reference_s() on the VM above, in a quiet period
_N, _EDGES, _REPEATS = 30, 84, 4


def _eliminate(edges) -> int:
    elim = Elimination(_N, seed=1)
    for e in edges:
        elim.add(e)
    return elim.rank


def reference_s() -> float:
    """Seconds taken by the fixed computation (about 0.1 s)."""
    rng = random.Random("reference")
    edges = rng.sample([(u, v) for u in range(_N) for v in range(u + 1, _N)], _EDGES)
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        _eliminate(edges)
    return time.perf_counter() - t0
