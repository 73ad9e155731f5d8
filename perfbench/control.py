"""Fixed pure-Python work that measures how fast the host runs right now.

    python3 perfbench/control.py

Prints the median time of REPEATS runs of the same work.  The work imports
nothing from qserieslab, so a change to the program cannot move it, and it
runs in its own process, so the program's heap cannot either.  Its loops
resemble the program's: Fraction arithmetic in dicts, dicts of small ints,
and big-integer products.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REPEATS = 3


def control_work() -> int:
    acc: dict[Fraction, Fraction] = {}
    for i in range(1, 24000):
        e = Fraction(i % 601, 60)
        acc[e] = acc.get(e, Fraction(0)) + Fraction(i, 7)
    layers: dict[int, dict[int, int]] = {}
    for k in range(-30, 31):
        layer = layers.setdefault(k, {})
        for e in range(0, 3000, 3):
            layer[e + k] = layer.get(e + k, 0) + k * e
    big = 1
    for v in acc.values():
        big = (big * v.numerator + 1) % (1 << 20000)
    return len(acc) + len(layers) + big % 7


def measure() -> float:
    times = []
    for _ in range(REPEATS):
        started = perf_counter()
        control_work()
        times.append(perf_counter() - started)
    return statistics.median(times)


if __name__ == "__main__":
    print(measure())
