"""Host-speed calibration: time a fixed reference task next to the program.

On a shared host the speed of a core drifts by a third or more within a
minute, and a slow phase can outlast a run, so wall-clock figures of two
runs of the same code disagree by more than any useful bound. The
benchmark therefore interleaves short rounds of a fixed reference task
with the operations it times and scales every timing by how fast the
reference ran around it:

    scaled seconds = measured seconds * REFERENCE_ROUND_S / round seconds nearby

A scaled figure is what the timing would have read had the host run the
reference at its reference speed. The reference does not depend on the
program, so a faster program still reads faster, while a host that slows
both down reads the same. The measured (unscaled) figures stay in the
run's report.

One round runs three kernels that stand for the kinds of work the program
does: interpreter-bound dictionary and string work, a regular expression,
and an SQLite aggregation. Its time is the geometric mean of the three, so
each kind weighs the same. (A numpy matrix-vector kernel was tried too; it
followed the program's timings less closely than any of these three.)

The scale is not perfect: on this kind of host the reference swings more
than the program does, and rounds run next to a workload with a large heap
run a little slower than next to a small one, so a change that shrinks
the program's memory a lot can move its scaled figures by a few percent.
"""

from __future__ import annotations

import bisect
import math
import re
import sqlite3
import statistics
from time import perf_counter

# typical round time (geometric mean of the three kernels) on the host the
# baseline was taken on: 2 vCPUs of a shared x86-64 host, Python 3.11,
# SQLite 3 in memory; the median round of a run there took 0.36 to 0.62 ms
REFERENCE_ROUND_S = 0.5e-3
SHARE = 0.1          # calibration time kept at this share of timed time
GROUP = 5            # rounds run back to back after one unrecorded round,
                     # so that they find the same warm caches every time
BURST = 10           # rounds before and after each set-up
PAD_S = 0.5          # rounds within max(PAD_S, WIDTH * its length) of a
WIDTH = 2.0          # timing are used to scale it
MIN_ROUNDS = 5

_TEXT = " ".join(f"w{i % 997} x{i % 13}" for i in range(1000))
_PATTERN = re.compile(r"w(\d+)7 ")


def _words() -> None:
    counts: dict[str, int] = {}
    for token in _TEXT.split():
        counts[token] = counts.get(token, 0) + 1
    sorted(counts.items())


def _regex() -> None:
    _PATTERN.findall(_TEXT * 3)


class Calibrator:
    """Rounds of the reference task, and the scale factor they give."""

    def __init__(self):
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        self._db.executemany("INSERT INTO t VALUES (?, ?)",
                             [(i % 97, i) for i in range(3000)])
        self._kernels = (_words, _regex, self._sqlite)
        self.times: list[float] = []      # middle of each round, sorted
        self.rounds: list[float] = []     # geometric mean kernel seconds
        self.spent = 0.0                  # seconds spent calibrating
        self.burst()                      # warm caches and the first factors

    def _sqlite(self) -> None:
        self._db.execute("SELECT a, sum(b) FROM t GROUP BY a").fetchall()

    def round(self, record: bool = True) -> None:
        start = perf_counter()
        log_sum = 0.0
        for kernel in self._kernels:
            t = perf_counter()
            kernel()
            log_sum += math.log(perf_counter() - t)
        end = perf_counter()
        self.spent += end - start
        if record:
            self.times.append((start + end) / 2.0)
            self.rounds.append(math.exp(log_sum / len(self._kernels)))

    def burst(self, rounds: int = BURST) -> None:
        self.round(record=False)
        for _ in range(rounds):
            self.round()

    def keep_up(self, timed_s: float) -> None:
        """Run groups of rounds until calibration has taken SHARE of the
        timed time. Rounds always run in groups of GROUP, so their cache
        state, and with it the scale, does not depend on how long the
        timed operations are."""
        while self.spent < SHARE * timed_s:
            self.burst(GROUP)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_ROUND_S over the median round near [start, end].

        Near means within max(PAD_S, WIDTH * (end - start)): rounds run
        only between timings, so a long timing (a publish cycle, a set-up)
        takes rounds from further around it. The window widens until it
        holds MIN_ROUNDS."""
        pad = max(PAD_S, WIDTH * (end - start))
        while True:
            lo = bisect.bisect_left(self.times, start - pad)
            hi = bisect.bisect_right(self.times, end + pad)
            if hi - lo >= MIN_ROUNDS or hi - lo == len(self.times):
                return REFERENCE_ROUND_S / statistics.median(self.rounds[lo:hi])
            pad *= 2.0

    def close(self) -> None:
        self._db.close()
