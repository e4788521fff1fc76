"""The reference speed that every end-to-end time of the benchmark is read at.

On a shared host the speed a process gets changes by up to 1.7x, from one
fraction of a second to the next and in phases of seconds to minutes,
whatever runs in it.  `spin` is a fixed piece of pure-Python work
(small-integer arithmetic, gcd, tuples, a dict and a sort, as in the
package's inner loops) that imports nothing from the package, so its time
follows the host and never the program.  A timed process samples it between
operations (`Sampler`), and a pass's times are multiplied by `scale` of its
samples, which reads them at the speed at which `spin` takes REF_NS.  A
change to the program moves the operations and not `spin`, so it shows in
full.  Time-bounded loops also run for a budget of reference seconds
(`Sampler.elapsed`), so that how many operations a run makes, and with it
the mix its percentiles are taken over, does not follow the host either.
"""

from __future__ import annotations

import math
import time

# spin()'s time at the reference speed.  Any fixed value serves, since every
# run is read at the same one; this is about its time on the 2-vCPU host the
# bounds in BENCHMARK.json were set on (Python 3.11.7).
REF_NS = 400_000

# The cli workload's reference instead, since most of a k0 call is process
# start and imports from disk, which spin does not follow: the time to start
# an interpreter that imports the standard-library modules `k0av.cli` pulls
# in, and at the reference speed the time it takes is START_REF_NS.  In 8 s
# windows over 150 s, the 10th percentile of a `k0 dist` call's time spread
# 0.10 (IQR over median) unscaled, 0.085 scaled by spin and 0.025 scaled by
# this.
START_ARGV = ("-c", "import argparse, dataclasses, fractions, inspect, json")
START_REF_NS = 75_000_000

# A pass's speed is read at this quantile of its samples.  Over 16 passes of
# 4 runs (samples then taken without the warming call), in halves of 8, the
# fastest-of-8 figures scaled this way spread least (IQR over median,
# ops_per_s / p50 / p99): on degree_query 0.07 / 0.07 / 0.10 against
# 0.28 / 0.32 / 0.36 unscaled, 0.24 / 0.27 / 0.27 at the median and
# 0.09 / 0.09 / 0.14 at the fastest.
QUANTILE = 0.1


def scale(samples: list[int], ref_ns: int = REF_NS) -> float:
    """The factor that reads times taken alongside `samples` at the
    reference speed."""
    samples = sorted(samples)
    return ref_ns / samples[int(QUANTILE * len(samples))]


def spin() -> int:
    seen: dict = {}
    rows = []
    g = 0
    for i in range(1, 500):
        a, b = (i * 7919) % 1009 + 1, (i * 104729) % 997 + 1
        g += math.gcd(a * b, a + b)
        seen[a & 255] = g
        rows.append((a, b, a * b - g))
    rows.sort()
    return g + len(seen) + len(rows)


def sample_ns() -> int:
    t0 = time.perf_counter_ns()
    spin()
    return time.perf_counter_ns() - t0


class Sampler:
    """Samples `spin` at most once per `every` seconds when ticked between
    operations, so that the samples spread over the whole timed loop.  An
    untimed call first brings spin's code and data back into the caches the
    operations used, so that the sample follows the host and not how much
    memory the program touches."""

    def __init__(self, every: float = 0.03) -> None:
        self.every = every
        self.due = 0.0
        self.samples: list[int] = []
        self.factor = 1.0
        self.start = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self.due:
            spin()
            self.samples.append(sample_ns())
            self.factor = scale(self.samples)
            self.due = now + self.every

    def elapsed(self) -> float:
        """Seconds since the sampler was made, read at the reference speed
        of the samples so far."""
        return (time.perf_counter() - self.start) * self.factor
