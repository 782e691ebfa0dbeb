"""Timing corrected for the speed of the host.

On a shared machine the same pass can take 1.5 times longer for
minutes at a time, because the CPU itself runs slower: CPU time grows
with wall time, so measuring CPU time alone does not help.  A
`SpeedClock` therefore samples the host's speed while the program runs.
Every PERIOD_S an alarm signal runs `unit`, a fixed piece of
pure-Python work like the program's own, and records its CPU time;
explicit samples are taken between operations too.  (A CPU-time timer,
ITIMER_PROF, would be the natural choice, but while one is armed Linux
reads the process's CPU clock only to the scheduler tick, 4 ms.)  An operation's
cost is its CPU time, less the samples taken inside it, scaled by
UNIT_REF_S over the mean sample around it: the CPU seconds it would
take on a host that runs `unit` in UNIT_REF_S.

UNIT_REF_S is `unit`'s CPU time on the reference machine of the README,
so the scaled figures read as seconds there.  It is fixed: a change to
it, or to `unit`, changes every scaled figure.
"""

from __future__ import annotations

import signal
import statistics
from time import process_time

UNIT_REF_S = 3.0e-4
PERIOD_S = 0.01
WINDOW = 2          # samples on either side of an operation's own


def unit() -> int:
    # int keys: nothing it allocates is tracked by the cyclic collector,
    # so a collection of the program's heap never lands inside it
    d: dict = {}
    for i in range(1500):
        k = (i * 7) % 31 * 16 + i % 13
        d[k] = (d.get(k, 0) + i * 3) % 7
    return len(d)


class SpeedClock:
    def __init__(self):
        self.samples: list = []    # CPU seconds of each unit(), in order
        self.spent = 0.0           # CPU seconds spent in unit() so far
        self.busy = False
        self.marks: list = []      # (first sample, end sample, seconds)

    def sample(self) -> None:
        if self.busy:
            return
        self.busy = True
        t = process_time()
        unit()
        dt = process_time() - t
        self.samples.append(dt)
        self.spent += dt
        self.busy = False

    def _on_signal(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_signal)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """CPU seconds of this process, less those spent in unit()."""
        while True:
            spent = self.spent
            t = process_time()
            if spent == self.spent:
                return t - spent

    # -- timing a stretch of work -----------------------------------------

    def begin(self) -> float:
        self.sample()
        self._first = len(self.samples) - 1
        return self.now()

    def end(self, t0: float) -> float:
        """Close the stretch opened by `begin`; return its raw seconds."""
        dt = self.now() - t0
        self.marks.append((self._first, len(self.samples), dt))
        return dt

    def scaled(self) -> list:
        """Each stretch's seconds at the reference speed.  Call after a
        last `sample()`, so every stretch has a sample after it."""
        out = []
        for first, end, dt in self.marks:
            around = self.samples[max(0, first - WINDOW):end + 1 + WINDOW]
            out.append(dt * UNIT_REF_S / statistics.fmean(around))
        return out
