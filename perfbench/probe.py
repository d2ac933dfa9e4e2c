"""Host-speed probe: a fixed piece of pure-Python work timed inside the
processes that do the benchmark's work.

The host gives this benchmark a share of shared cores, and how fast one
of them runs changes by tens of percent from second to second and from
minute to minute.  A probe sample times the same fixed work,
``probe()``, at that moment on that core.  ``Sampler`` takes one sample
when it starts, one every ``INTERVAL_S`` (SIGALRM, re-armed after each
sample, so samples never overlap), and one when it stops.  run.py then
reports every time in host-normalized units: the measured time, less
the probe time inside it, times ``NOMINAL_S`` over the mean probe time
in or next to it.  A change to the package moves the work but never
the probe, which is the benchmark's own code.

The probe switches the garbage collector off while it runs, so a large
heap of the process it samples never makes it slower.
"""

import gc
import json
from fractions import Fraction
import signal
import time

clock = time.perf_counter

NOMINAL_S = 0.004        # the probe's time on the reference host
INTERVAL_S = 0.1         # gap between samples while a sampler runs


class _Node:
    __slots__ = ("value", "kids")

    def __init__(self, value):
        self.value, self.kids = value, []


def _walk(node):
    total = node.value
    for kid in node.kids:
        total += _walk(kid)
    return total


def probe():
    """One sample's work: three parts in the styles the package runs
    (small-int tuple keys in dicts; products of big ints and Fractions
    collected by exponent; objects, recursion and frozensets), since
    host contention slows each style by a different share."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table, x = {}, 12345
        for i in range(1400):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = (x % 1021, i & 15)
            table[key] = table.get(key, 0) + x
        total = 0
        for value in sorted(table.values()):
            total = (total * 31 + value) % 1_000_000_007

        left = {(i, j): Fraction(7 * i + 1, j + 3)
                for i in range(6) for j in range(4)}
        right = {(i, j): (i + 1) * 10 ** 20 + j
                 for i in range(4) for j in range(3)}
        product = {}
        for (i, j), u in left.items():
            for (k, m), v in right.items():
                key = (i + k, j + m)
                product[key] = product.get(key, 0) + u * v

        nodes = [_Node(i * i % 97) for i in range(1200)]
        for i in range(1, len(nodes)):
            nodes[i // 2].kids.append(nodes[i])
        sets = {frozenset((n.value % 50, i % 50, n.value * i % 50))
                for i, n in enumerate(nodes)}
        return total + len(product) + _walk(nodes[0]) + len(sets)
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probe samples of one process: a list of [start, seconds]."""

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        start = clock()
        probe()
        self.samples.append([start, clock() - start])

    def _tick(self, *_):
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(self.samples, handle)


def probe_time(samples, start, end):
    """Seconds of probing inside [start, end]."""
    return sum(s for t, s in samples if t >= start and t + s <= end)


def normalized(samples, start, end, nearest):
    """Host-normalized duration of [start, end]: its time without the
    probes inside it, scaled by the mean of the probe samples inside it,
    or of the ``nearest`` samples in time when fewer lie inside.

    The core's speed flips between a fast and a slow state every second
    or so, and a span's time grows with the share of it spent in the
    slow state; the mean of samples spread over the span measures that
    share, their median would only tell which state was more common."""
    inside = [s for t, s in samples if start <= t <= end]
    if len(inside) < nearest:
        inside = [s for t, s in sorted(
            samples, key=lambda sample: max(start - sample[0],
                                            sample[0] - end))[:nearest]]
    speed = NOMINAL_S * len(inside) / sum(inside)
    return (end - start - probe_time(samples, start, end)) * speed
