"""A fixed reference kernel that gauges the machine's current speed.

On a shared machine the CPU speed a process gets drifts by up to 1.7x over
minutes, and its CPU time drifts with it, so raw seconds from two runs of
the same code can differ by more than any useful bound. The benchmark
therefore runs this kernel, which touches no ``cbiou`` code, before and after
every timed unit, and reports the unit in reference seconds:

    elapsed * NOMINAL_S / mean(kernel time before, kernel time after)

that is, the time the unit would take on a machine where the kernel takes
``NOMINAL_S``. A change to ``cbiou`` moves the unit's time and not the
kernel's, so it shows in full; a slow spell of the machine moves both.
The kernel is interpreter work: a loop over floats and a dict, and sorting
tuples. It tracks the speed of the ``cbiou`` workloads better than a kernel
with numpy matrix products does: over 90 s of ``run_compare`` units on a
noisy machine, 30-unit medians ranged 0.84-1.56x in raw seconds and
0.96-1.07x in reference seconds, against 0.92-1.18x when normalized by
matrix products alone.
"""

from __future__ import annotations

import time

# About the kernel's time on a 2-CPU x86-64 virtual machine (Python 3.11);
# it only fixes the scale of reported seconds.
NOMINAL_S = 0.02

_VALUES = [(i * 7919) % 1009 for i in range(3000)]


def kernel() -> float:
    total = 0.0
    table = {}
    for i in range(60000):
        total += (i % 7) * 0.5
        table[i & 255] = total
    for k in range(6):
        pairs = sorted(((v, i) for i, v in enumerate(_VALUES)), reverse=bool(k & 1))
        total += sum(v for v, _i in pairs[:100]) + len(set(pairs))
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Clock:
    """Gives each timed unit the factor that turns its seconds into reference
    seconds, from the kernel runs on either side of it."""

    def __init__(self):
        self.before = kernel_seconds()
        self.kernel_times = [self.before]

    def scale(self) -> float:
        """Call right after a unit ends; the next unit shares this kernel run."""
        after = kernel_seconds()
        self.kernel_times.append(after)
        factor = NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return factor
