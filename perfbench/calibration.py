"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared machines whose speed drifts by 10-25% over
minutes and switches between a fast and a slow speed within seconds, so
that wall times of identical runs spread more than any useful bound.  A
fixed stdlib kernel (delimited parse, float conversion, dict updates and
float formatting, the mix disclim itself runs) is timed just before and
just after each timed section, and the sections are kept under half a second.
The end-to-end metrics report each section at the reference speed:

    wall time * REFERENCE_S / kernel time measured around it

REFERENCE_S is a constant near the kernel's typical time on the machine
the baseline was taken on (2 cores, Python 3.11.7), so reported times read
close to wall times there.  The printed block shows the raw wall times
beside them.

The kernel runs with the garbage collector off.  Its objects are freed by
reference counting, so it neither pays for collections that the section
before it owes nor leaves any for the section after it, and its time does
not depend on how many objects the program under test keeps alive.
"""

from __future__ import annotations

import csv
import gc
import io
from time import perf_counter

REFERENCE_S = 0.0250
ROWS = 7000
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median

_TEXT = "\n".join(
    ",".join(f"{(row * 7919 + col * 104729) % 100003 / 97.0:.6f}" for col in range(6))
    for row in range(ROWS)
)


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        totals: dict[str, float] = {}
        out = []
        for row in csv.reader(io.StringIO(_TEXT)):
            values = [float(cell) for cell in row]
            key = row[0][:2]
            totals[key] = totals.get(key, 0.0) + sum(values)
            out.append(repr(values[1] - values[2]))
        elapsed = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if len(out) != ROWS or not totals:
        raise RuntimeError("calibration kernel lost rows")
    return elapsed


class Steps:
    """Times consecutive sections, running the kernel before the first and after each.

    ``record[name]`` is a section's wall seconds and ``record[name + "_cal"]``
    the mean kernel seconds just before and just after it.
    """

    def __init__(self):
        self.record: dict[str, float] = {}
        self._before = kernel_seconds()

    def run(self, name: str, section):
        t0 = perf_counter()
        result = section()
        self.record[name] = perf_counter() - t0
        after = kernel_seconds()
        self.record[name + "_cal"] = (self._before + after) / 2
        self._before = after
        return result


def closed_loop(seconds: float, iteration) -> list:
    """Call ``iteration(i)`` for i = 0, 1, ... one at a time until *seconds*
    have passed, at least once; return the results in order."""
    results = []
    deadline = perf_counter() + seconds
    while not results or perf_counter() < deadline:
        results.append(iteration(len(results)))
    return results
