"""Host-speed correction of the benchmark's end-to-end timings.

The machines the benchmark runs on are shared.  Their speed drifts by
20-45% over spells of seconds to minutes, for every kind of work alike:
on a 2-core x86-64 container, each of the 17 cli-paths steps moved its
per-run median by 21-34% (IQR/median) across runs of the same code.  A
median over a run cannot average out a spell that lasts longer than the
run, so raw wall times do not repeat from run to run.

The correction times a fixed reference job next to the work: at most
every ``EVERY_S`` seconds, before an operation, a fresh interpreter runs
pure-Python dict and tuple work of a fixed size, the kind of work
decompspace does.  An operation's wall time is then scaled by
``NOMINAL_S / r``, where ``r`` is the mean of the reference times just
before and just after it, so it reads as it would on a host on which the
reference job takes ``NOMINAL_S`` seconds.  A set-up is scaled by the
reference time just before it.  On the container above this cut the
run-to-run spread of every operation timing from 0.15-0.28 to
0.03-0.07.

The reference job does not import decompspace, so a change to the
program moves the corrected timings as it moves the raw ones.  Its
resident memory stays near 17 MB, below any CLI step's.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

JOB = "d = {}\nfor i in range(150000):\n    k = (i % 4099, i & 7)\n    d[k] = d.get(k, 0) + 1\n"
# The reference job's wall time at a typical moment of the container above.
NOMINAL_S = 0.15
EVERY_S = 0.3


class HostSpeed:
    """Reference times, and the raw operation times noted between them."""

    def __init__(self):
        self.reference: list[float] = []
        self.raw: list[float] = []
        self._before: list[int] = []  # index of the reference before each raw time
        self._at = float("-inf")

    def probe(self, force: bool = False) -> None:
        """Time the reference job, unless it ran less than EVERY_S ago."""
        if not force and time.perf_counter() - self._at < EVERY_S:
            return
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", JOB], check=True, timeout=60)
        elapsed = time.perf_counter() - start
        self.reference.append(elapsed)
        self._at = time.perf_counter()

    @property
    def scale(self) -> float:
        """The correction for work done now, after a probe."""
        return NOMINAL_S / self.reference[-1]

    def note(self, seconds: float) -> None:
        """Note the wall time of an operation that just ran, after a probe."""
        self.raw.append(seconds)
        self._before.append(len(self.reference) - 1)

    def corrected(self) -> list[float]:
        """The noted times, each scaled by the references around it."""
        ref = self.reference
        return [
            seconds * NOMINAL_S / statistics.fmean(ref[i:i + 2])
            for seconds, i in zip(self.raw, self._before)
        ]

    def factor(self) -> float:
        """Median reference time over the nominal one: above 1 is slow."""
        return statistics.median(self.reference) / NOMINAL_S
