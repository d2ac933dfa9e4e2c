"""Host-noise calibration: time a fixed pure-Python loop 20 times.

Usage: python3 perfbench/calibrate.py

The loop does the same integer work every time, so the spread of its
wall and CPU times is the noise of the host itself.  A probe sampler
runs beside the loop as it does beside the benchmark's work, and
``normalized_s`` is the loop's time host-normalized the way run.py
normalizes every time it reports (see probe.py): its spread is the
noise left after normalizing.  Compare a benchmark difference with
these spreads before believing it.
"""

import json
import statistics
import time

import probe as probing

REPEATS = 20          # the sample size of the recorded baseline calibration
LOOPS = 8             # loops per repeat: about 3 s, as long as a typical op sum


def loop():
    total = 0
    for i in range(3_000_000):
        total = (total + i * i) % 1_000_003
    return total


def spread(values):
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"min": min(values), "median": median, "max": max(values),
            "iqr_share": (q[2] - q[0]) / median}


def main():
    wall, cpu, normalized = [], [], []
    for _ in range(REPEATS):
        sampler = probing.Sampler()
        sampler.start()
        w0, c0 = time.perf_counter(), time.process_time()
        for _ in range(LOOPS):
            loop()
        w1, c1 = time.perf_counter(), time.process_time()
        sampler.stop()
        wall.append(w1 - w0)
        cpu.append(c1 - c0)
        normalized.append(probing.normalized(sampler.samples, w0, w1, 3))
    print(json.dumps({"repeats": REPEATS, "loops": LOOPS, "wall_s": spread(wall),
                      "cpu_s": spread(cpu),
                      "normalized_s": spread(normalized)}, indent=1))


if __name__ == "__main__":
    main()
