"""Host-speed reference: fixed work timed beside the program.

The machines this benchmark runs on are shared, and their speed drifts:
on a 2-vCPU x86 container the same requests ran 30-80% slower for some
minutes and then faster again, with no CPU time stolen from the process,
so wall time and CPU time drift together.  Run-to-run spread of raw host
times then measures the host, not the program.

:func:`slice_s` times one *slice*, about 3 ms of fixed work that belongs
to the benchmark, never to the program: a heap, a dict and random reads
from an array far larger than the CPU caches, the kinds of work the
simulator's rank-level simulation and its large trace and cost arrays do.
The measured worker times one slice right after each request, so every
request lies between two slices, and ``run.py`` rescales each request by
``REFERENCE_S`` over the slices around it: the time as it would read on
a host where one slice takes ``REFERENCE_S``.  The slices allocate
nothing that outlives them.  A change to the program leaves the slices
alone, so it moves the rescaled times by the same share as the raw ones;
a change in host speed moves slices and program together and cancels
out.

Start-up times (set-up, restart) are single fresh processes, dominated by
interpreter start and imports, which slices inside the timed process
track poorly.  They are rescaled instead by a *reference process*: this
script run as ``python3 perfbench/calibrate.py`` starts an interpreter,
imports numpy, makes the slice's arrays and times ``PROCESS_SLICES``
slices, so that, like a start-up, it is part start and import and part
work; it never touches the program.  ``run.py`` times such a process
right before and right after each start-up and rescales by
``REFERENCE_PROCESS_S`` over their mean.

Both constants only set the unit; they must not change between two runs
that are compared.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Seconds one slice is taken to last on the reference host (about the
#: median slice on the 2-vCPU x86 container this benchmark was built on).
REFERENCE_S = 0.003
#: Seconds one reference process (start to exit) is taken to last on the
#: same reference host.
REFERENCE_PROCESS_S = 0.3
#: Slices one reference process times.
PROCESS_SLICES = 30

#: Arrays of the memory reads, made by :func:`prepare`: a 64 MB array read
#: at random places, beyond any CPU cache, so these reads wait on memory
#: the way the simulator's large trace and cost arrays do.
_ARRAYS: dict = {}


def prepare() -> float:
    """Allocate and touch the arrays the slices read; return their size in
    MB, which stays resident from now on (a caller measuring its peak
    memory subtracts it)."""
    if not _ARRAYS:
        large = np.arange(8 << 20, dtype=np.float64)
        places = np.random.default_rng(0).integers(0, large.size, 40000)
        _ARRAYS.update(large=large, places=places,
                       out=np.zeros(places.size))
        # The first pass through the slice's code runs slower (cold caches,
        # the interpreter specialising its bytecode); keep it untimed.
        _work()
    return sum(a.nbytes for a in _ARRAYS.values()) / 2 ** 20


def _work() -> None:
    heap = []
    for i in range(3000):
        heapq.heappush(heap, (i * 7919) % 10007)
    while heap:
        heapq.heappop(heap)
    table = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
    np.take(_ARRAYS["large"], _ARRAYS["places"], out=_ARRAYS["out"])


def slice_s() -> float:
    """Host seconds one slice of the fixed work takes now."""
    prepare()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(sorted(slice_s() for _ in range(PROCESS_SLICES))[
        PROCESS_SLICES // 2])
