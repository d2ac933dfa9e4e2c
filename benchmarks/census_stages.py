"""Stage timings of the census route and of the routes it replaces.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/census_stages.py [--repeats 5]

Each stage is timed ``--repeats`` times with ``time.perf_counter`` and
the median is printed as one JSON object:

* ``census_table_<X>_s`` for D7, E7, E8 and D8: one uncached
  ``decomp.census_table``, with NC(X) enumerated and the lower tables
  built, product-count memos emptied first (null on a tree without the
  census route);
* ``census_table_E8_cold_s``: ``census_table("E8")`` with every cache
  of the route emptied first, so that it enumerates NC(E8) and the
  lower ambients too (null on a tree without the census route);
* ``descent_D7_s``: every full-rank D7 value of a sub-diagram type by
  ``count_bruteforce`` with one shared memo, NC(D7) enumerated (the
  body of ``full_table("D7")`` before the census route);
* ``replay_E7_s`` and ``replay_E8_s``: one uncached ``linsys.replay``
  with the posets and the lower tables warm, memos emptied first;
* ``cold_<command>_s``: the wall time of a fresh
  ``python -m noncross.cli`` process for ``decomp count E7 A4,A3``,
  ``decomp count E8 D4,A4`` and ``verify e8``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from linsys_stages import clear_memos
from nc_stages import descent
from noncross import decomp, linsys, ncposet

COLD_COMMANDS = (("decomp", "count", "E7", "A4,A3"),
                 ("decomp", "count", "E8", "D4,A4"),
                 ("verify", "e8"))


def clear_all():
    for cached in (ncposet.enumerate_nc, decomp.census_table,
                   decomp.production_table, decomp._component_tables):
        cached.cache_clear()
    clear_memos()


def timed(fn, repeats, before=clear_memos):
    times = []
    for _ in range(repeats):
        before()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 4)


def cold(argv, repeats):
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))

    def run():
        subprocess.run([sys.executable, "-m", "noncross.cli", *argv],
                       env=env, check=True, stdout=subprocess.DEVNULL)

    return timed(run, repeats, before=lambda: None)


def stages(repeats):
    out = {}
    census = getattr(decomp, "census_table", None)
    for name in ("D7", "E7", "E8", "D8"):
        key = "census_table_%s_s" % name
        if census is None:
            out[key] = None
            continue
        census(name)                      # posets and lower tables warm
        out[key] = timed(lambda: census.__wrapped__(name), repeats)
    out["census_table_E8_cold_s"] = None if census is None else timed(
        lambda: census("E8"), repeats, before=clear_all)
    ncposet.enumerate_nc("D7")
    out["descent_D7_s"] = timed(lambda: descent("D7"), repeats)
    for name in ("E7", "E8"):
        linsys.replay(name)
        out["replay_%s_s" % name] = timed(
            lambda: linsys.replay.__wrapped__(name), repeats)
    for argv in COLD_COMMANDS:
        out["cold_%s_s" % "_".join(argv).replace(",", "_")] = cold(argv,
                                                                  repeats)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print(json.dumps(stages(args.repeats)), flush=True)


if __name__ == "__main__":
    main()
