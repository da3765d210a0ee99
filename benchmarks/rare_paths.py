"""Wall-clock cost of the window store's rare paths: a late insert and
an early eviction, against a store in steady state.

    PYTHONPATH=src python benchmarks/rare_paths.py [--reps N]

One stream, ``n = 10`` basic windows of 1 s, tuples evenly spaced at the
rate that keeps ``rows`` stored.  *late*: after every in-order tuple one
more tuple arrives late by a uniform draw of at most ``frac * W``; only
the late insert is timed.  *evict k*: ``n + 1.5`` basic windows of
in-order tuples (every window is full again, the open one half full),
then ``evict_basic_window(k)`` is timed.  Prints medians in
microseconds, one row per store size.  Only the public store API is
used, so the same file times any two commits (docs/PERFORMANCE.md §7,
"The rare paths").
"""

import argparse
import random
import statistics
import time

from repro.core.basic_windows import PartitionedWindow
from repro.streams import StreamTuple

N, B = 10, 1.0
W = N * B


def steady(rows):
    rate = rows / ((N + 0.5) * B)
    window = PartitionedWindow(W, B)
    clock = {"now": 0.0, "seq": 0}

    def advance(seconds):
        stop = clock["now"] + seconds
        while clock["now"] < stop:
            clock["now"] += 1.0 / rate
            clock["seq"] += 1
            window.insert(StreamTuple(float(clock["seq"] % 97), clock["now"],
                                      0, clock["seq"]), clock["now"])

    advance(2 * W)
    return window, clock, advance, rate


def late_us(rows, frac, reps, rng):
    window, clock, advance, rate = steady(rows)
    times = []
    for _ in range(reps):
        advance(1.0 / rate)
        ts = clock["now"] - rng.uniform(0.0, frac * W)
        clock["seq"] += 1
        tup = StreamTuple(1.0, ts, 0, clock["seq"])
        start = time.perf_counter()
        window.insert(tup, clock["now"])
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def evict_us(rows, k, reps):
    window, clock, advance, _ = steady(rows)
    times = []
    for _ in range(reps):
        # a full ring turn refills every window an earlier rep emptied;
        # the half window lands the eviction mid-way through a rotation
        advance((N + 1.5) * B)
        start = time.perf_counter()
        window.evict_basic_window(k)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=400)
    parser.add_argument("--evict-reps", type=int, default=15)
    parser.add_argument("--rows", type=int, nargs="*",
                        default=[240, 2_400, 24_000, 86_000])
    args = parser.parse_args()
    rng = random.Random(0)
    print("rows\tlate<=0.05W\tlate<=0.9W\tevict(1)\tevict(n)")
    for rows in args.rows:
        cells = [
            late_us(rows, 0.05, args.reps, rng),
            late_us(rows, 0.9, args.reps, rng),
            evict_us(rows, 1, args.evict_reps),
            evict_us(rows, N, args.evict_reps),
        ]
        print(f"{rows}\t" + "\t".join(f"{c:.1f}" for c in cells))


if __name__ == "__main__":
    main()
