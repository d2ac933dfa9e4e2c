"""Stage timings of the census route and of the routes it replaces.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/census_stages.py [--repeats 5]

Each stage is timed ``--repeats`` times with ``time.perf_counter`` and
the median is printed as one JSON object:

* ``census_table_<X>_s`` for D7, E7, E8 and D8: one uncached
  ``decomp.census_table``, with NC(X) enumerated and the lower tables
  built, product-count memos emptied first;
* ``census_table_E8_cold_s``: ``census_table("E8")`` with every cache
  of the route emptied first, the kept posets and censuses included, so
  that it enumerates NC(E8);
* ``descent_D7_s``: every full-rank D7 value of a sub-diagram type by
  ``count_bruteforce`` with one shared memo, NC(D7) enumerated (the
  body of ``full_table("D7")`` before the census route);
* ``replay_E7_s`` and ``replay_E8_s``: one uncached ``linsys.replay``
  with the posets and the lower tables warm, memos emptied first;
* ``cold_<command>_s``: the wall time of a fresh
  ``python -m noncross.cli`` process for ``decomp count D7 D4,A3``,
  ``decomp count E7 A4,A3``, ``decomp count E8 D4,A4``, ``verify e8``,
  ``mtriangle E6 --m 2`` and ``linsys replay E8``;
* ``walks_<command>`` and ``root_systems_<command>``: the posets the
  same command enumerates and the root systems it builds in one fresh
  process, as the misses of ``enumerate_nc`` and of
  ``build_root_system``.
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

COLD_COMMANDS = (("decomp", "count", "D7", "D4,A3"),
                 ("decomp", "count", "E7", "A4,A3"),
                 ("decomp", "count", "E8", "D4,A4"),
                 ("verify", "e8"),
                 ("mtriangle", "E6", "--m", "2"),
                 ("linsys", "replay", "E8"))

# Runs one CLI command, its stdout swallowed, and prints the posets it
# enumerated and the root systems it built.
COUNT_WALKS = r"""
import contextlib, io, sys
import noncross.cli
from noncross import ncposet, rootsystem
with contextlib.redirect_stdout(io.StringIO()):
    code = noncross.cli.main(sys.argv[1:])
assert code == 0, code
print(ncposet.enumerate_nc.cache_info().misses,
      rootsystem.build_root_system.cache_info().misses)
"""


def clear_all():
    for cached in (ncposet.enumerate_nc, decomp.census_table,
                   decomp.production_table, ncposet._census):
        cached.cache_clear()
    ncposet._WALKED.clear()
    clear_memos()


def timed(fn, repeats, before=clear_memos):
    times = []
    for _ in range(repeats):
        before()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 4)


def child_env():
    return dict(os.environ, PYTHONPATH=os.path.abspath("src"))


def cold(argv, repeats):
    def run():
        subprocess.run([sys.executable, "-m", "noncross.cli", *argv],
                       env=child_env(), check=True, stdout=subprocess.DEVNULL)

    return timed(run, repeats, before=lambda: None)


def walks(argv):
    """(posets enumerated, root systems built) by one fresh process."""
    child = subprocess.run([sys.executable, "-c", COUNT_WALKS, *argv],
                           env=child_env(), check=True, capture_output=True,
                           text=True)
    return tuple(map(int, child.stdout.split()))


def stages(repeats):
    out = {}
    census = decomp.census_table
    for name in ("D7", "E7", "E8", "D8"):
        census(name)                      # posets and lower tables warm
        out["census_table_%s_s" % name] = timed(
            lambda: census.__wrapped__(name), repeats)
    out["census_table_E8_cold_s"] = timed(lambda: census("E8"), repeats,
                                          before=clear_all)
    ncposet.enumerate_nc("D7")
    out["descent_D7_s"] = timed(lambda: descent("D7"), repeats)
    for name in ("E7", "E8"):
        linsys.replay(name)
        out["replay_%s_s" % name] = timed(
            lambda: linsys.replay.__wrapped__(name), repeats)
    for argv in COLD_COMMANDS:
        name = "_".join(argv).replace(",", "_").replace("--", "")
        out["cold_%s_s" % name] = cold(argv, repeats)
        out["walks_%s" % name], out["root_systems_%s" % name] = walks(argv)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print(json.dumps(stages(args.repeats)), flush=True)


if __name__ == "__main__":
    main()
