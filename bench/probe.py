"""A sampler of the machine's speed, for times that compare across runs.

On a shared host the speed of a process can drift by a third or more within
minutes, and swing within seconds, so seconds measured in one run do not
compare with seconds measured a few minutes later.  While the timed passes
run, a SIGALRM handler times a fixed pure-Python loop every PERIOD seconds.
`SpeedProbe.measure` times one item in seconds and also in units of that
loop: each stretch between two samples counts its seconds divided by the
loop's time there, so a slow stretch and the loop slow down together and
the drift cancels.

Sampling time is kept out of every figure: `clock()` is perf_counter minus
the time spent sampling.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.1
LOOP_ROUNDS = 12_000


def _loop() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(LOOP_ROUNDS):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.perf_counter() - start


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []    # (clock() when taken, loop seconds)
        self.spent = 0.0                                 # seconds spent sampling
        self._sampling = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # the timer fired during a sample taken by hand
            return
        self._sampling = True
        start = time.perf_counter()
        self.samples.append((start - self.spent, _loop()))
        self.spent += time.perf_counter() - start
        self._sampling = False

    def measure(self, fn, *args):
        """Call fn(*args).  Returns (its result, or the exception it raised;
        seconds; cost in loop units)."""
        first = len(self.samples)
        self.sample()
        start = self.clock()
        try:
            result = fn(*args)
        except Exception as exc:  # the caller counts and lists every failure
            result = exc
        seconds = self.clock() - start
        self.sample()
        points = self.samples[first:]
        # the loop's time at each sample: median with its neighbours, so one
        # preempted sample does not skew its stretch
        loops = [
            statistics.median(loop for _, loop in points[max(0, i - 1) : i + 2]) for i in range(len(points))
        ]
        cost = sum(
            (t1 - t0) * 2 / (l0 + l1)
            for (t0, _), (t1, _), l0, l1 in zip(points, points[1:], loops, loops[1:])
        )
        return result, seconds, cost

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
