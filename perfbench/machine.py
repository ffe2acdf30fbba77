"""Machine-speed calibration.

The cores this benchmark shares can change speed by tens of percent, and
up to twice, over a minute, which swamps any change worth measuring.  So
every timed pass is bracketed by a fixed calibration task, and its times
are reported scaled to a reference speed at which that task takes
REFERENCE_S: scaled = raw * REFERENCE_S / calibration time.

The task is a fresh isolated interpreter importing a few standard modules.
It tracked the CLI workloads and the in-process loop far better than a
pure-Python loop did: starting processes and importing is what slows most
when the machine is busy.  It imports nothing from this repository and runs
between passes, never during one, so the program under test cannot move
it.  Raw figures and the scales are kept in the run details.  The
in-process roundtrip loop is calibrated by `spin_s` instead, between
blocks of operations.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

TASK = ("import argparse, dataclasses, decimal, enum, fractions, itertools, "
        "json, pathlib, typing")
REFERENCE_S = 0.075


def calibration_s(runs: int) -> float:
    """Median wall time of `runs` runs of the calibration task."""
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        # No timeout: with one, waiting polls in sleeps of up to 50 ms,
        # which would quantise the very time being measured.
        subprocess.run([sys.executable, "-I", "-c", TASK], stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


# In-process work is better tracked by a short loop in the same process,
# run between blocks of operations.
SPIN_LOOPS = 10_000
SPIN_REFERENCE_S = 0.0008


def spin_s() -> float:
    """Median of three timings of a short pure-Python loop in this
    process; the median shrugs off one preemption."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(SPIN_LOOPS):
            total += i * i
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def scale(before: float, after: float, reference: float = REFERENCE_S) -> float:
    """Factor from raw times to reference-speed times for work done
    between two calibrations."""
    return reference / ((before + after) / 2)
