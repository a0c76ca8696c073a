"""Host-speed reference: a fixed piece of work timed between commands.

The machines this benchmark runs on are shared virtual machines whose speed
drifts with other tenants' load: over one hour on a 2-vCPU VM, the same
command took up to 1.5 times as long from one ten-minute stretch to the
next, import time included.  Timing this fixed work next to the commands
measures that drift, and the benchmark divides it out (see ``scale``).
Like every command, the work runs in a fresh process
(``python3 hostspeed.py`` prints its seconds), so the allocator state of
the caller cannot change what it measures.

The work mixes what renewalsim spends its time on: interpreter-bound
loops over small numpy arrays (the birth-trace jump path, the flat metric),
vector arithmetic on snapshot-sized grids (the diagnostic sweep), and
faulting in fresh pages (every cold CLI process).  It never imports the
program under test.
"""
from __future__ import annotations

import time

import numpy as np

# reference time of ``reference()`` that normalised seconds are quoted at
NOMINAL_S = 0.25


def reference() -> float:
    """Seconds taken by the fixed reference work."""
    start = time.perf_counter()
    acc = 0.0
    a = np.arange(64.0)
    for i in range(15000):
        k = i % 32 + 1
        b = np.concatenate([a[:k] - 1.0, a[k - 1:] + 1.0])
        acc += float(np.interp(7.5, b, b))
    x = np.linspace(0.0, 1.0, 48001)
    for i in range(120):
        acc += float(np.sum(np.exp(-x * (1.0 + 1e-3 * i)) * x))
    for _ in range(2):
        # 40 MB, above glibc's largest mmap threshold: always fresh pages
        acc += float(np.ones(5_000_000).sum())
    if not acc > 0.0:
        raise RuntimeError("reference work produced no result")
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor that turns measured seconds into seconds at nominal speed."""
    return NOMINAL_S / float(np.median(samples))


if __name__ == "__main__":
    print(repr(reference()))
