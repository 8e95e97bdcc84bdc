"""The speed reference that job latencies are scaled to.

The 2-vCPU virtual machine the benchmark was built on runs each vCPU at
one of two speeds about 1.4x apart, switching every few hundred
milliseconds, and the share of time spent slow drifts over minutes: a
whole run can be slow, and a job of a few seconds is slow for a random
part of its time. The two vCPUs switch independently, so no second
process can watch the one a job runs on. The job's own process does:
a short pure-Python loop is timed at both edges of every job, and a
SIGALRM timer times a tenth as long a loop every TICK_S seconds while
the job runs. Their mean time per iteration is the pace of that
execution; its latency is its wall time, less the time spent in the
timer's loops, scaled by REF_NS_PER_ITERATION over that pace. It is
the latency the job would have at the speed at which the loop takes
REF_NS_PER_ITERATION, the faster speed of that machine. The loops run
none of fullsub, so a change to the program moves the scaled latency in
proportion to its wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_NS_PER_ITERATION = 57.5
EDGE_ITERATIONS = 20_000
TICK_ITERATIONS = 2_000
TICK_S = 0.025


def loop_ns(iterations: int) -> int:
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(iterations):
        acc += i * i
    return time.perf_counter_ns() - t0


class Speedometer:
    """Times jobs and the loops around and inside them. Use as a
    context manager; it owns SIGALRM while it is entered."""

    def __init__(self):
        self.ticks: list = []  # ns per iteration of each timer loop
        self.tick_ns = 0  # time spent in the timer's handler
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.ticks.append(loop_ns(TICK_ITERATIONS) / TICK_ITERATIONS)
        self.tick_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._edge = self.edge()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @staticmethod
    def edge() -> float:
        """ns per iteration of the edge loop: the faster of two runs, so
        that one interrupt does not read as a slow machine."""
        return min(loop_ns(EDGE_ITERATIONS), loop_ns(EDGE_ITERATIONS)) \
            / EDGE_ITERATIONS

    def run(self, call):
        """Run call(); returns (result, exception or None, wall_ns,
        latency_ns), wall_ns without the timer's loops and latency_ns
        that wall time at the reference speed."""
        first, spent = len(self.ticks), self.tick_ns
        t0 = time.perf_counter_ns()
        try:
            result, error = call(), None
        except Exception as e:  # the caller counts it
            result, error = None, e
        wall = time.perf_counter_ns() - t0 - (self.tick_ns - spent)
        inside = self.ticks[first:]
        before, self._edge = self._edge, self.edge()
        pace = statistics.fmean([before, self._edge] + inside)
        return result, error, wall, wall * REF_NS_PER_ITERATION / pace
