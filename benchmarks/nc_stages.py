"""Stage timings of NC(W) enumeration and its consumers.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/nc_stages.py [--repeats 5]

Each stage is timed ``--repeats`` times with ``time.perf_counter`` and
the median is printed as one JSON object:

* ``walk_classify_E8_s``, ``walk_classify_E7_s``, ``walk_classify_D8_s``:
  one uncached ``enumerate_nc`` of E8, E7 and D8, the walk with every
  element typed (the diagram classifications are cached in
  ``weyl._classify_edges`` after the first repeat, so these leave out
  most of the classification cost that a cold process pays);
* ``classify_cold_E8_s``: the classification of the distinct edge sets
  (``classify_cold_E8_sets`` of them) that one E8 walk classifies, the
  ``weyl._classify_edges`` cache cleared first, as in a cold process;
* ``subdiagram_types_E8_s``: one uncached ``subdiagram_types("E8")``,
  the types of all 256 induced subdiagrams;
* ``pair_census_E8_s``: ``pair_census`` of the enumerated NC(E8),
  counted afresh on each run;
* ``interval_census_E8_s``: the censuses of the 13 irreducible types
  below E8, each by ``interval_census`` below the first element of its
  type in NC(E8) (null on a tree without ``interval_census``);
* ``full_table_D7_s``: every full-rank D7 value of a sub-diagram type
  by ``count_bruteforce`` with one shared memo, NC(D7) already
  enumerated (what ``full_table("D7")`` ran before the census route);
* ``build_ncm_D4_2_s``: ``build_ncm("D4", 2)``, NC(D4) already
  enumerated;
* ``read_cache_D5_s``: ``read_cache`` of a D5 cache file written once
  before the runs, the kept posets emptied before each run, as in a
  fresh ``nc enumerate D5 --cache-dir`` process;
* ``chi_D6_s``: ``characteristic_polynomial`` of D6 with the kept
  posets, censuses, Moebius numbers and chi* values emptied before each
  run (the root systems and descent tables stay built);
* ``descent_table_s``: per D and E ambient, one uncached
  ``ncposet._descent_masks`` (the root system already built), and
  ``descent_tables_DE_s``, the sum of those medians;
* ``root_tables_s``: per D and E ambient, one uncached
  ``weyl._root_tables`` (the root system already built), and
  ``root_tables_DE_s``, the sum of those medians;
* ``length_suite_s``: the checks of ``noncross verify length``
  (``enumerate_group`` and ``absolute_length`` on A3 and D4).

It also prints ``poset_E8_mb``, the memory held by one enumerated
NC(E8) as ``tracemalloc`` counts it (one extra, untimed enumeration),
and ``classify_calls_verify_e8``: the calls of
``weyl.classify_moved_roots`` in one cold ``noncross verify e8`` run in a
child process, in total and made inside ``enumerate_nc``, and
``chi_walks_D6`` and ``chi_walks_E7``: the posets that one cold
``characteristic_polynomial`` of D6 and of E7 enumerates, as
``enumerate_nc.cache_info().misses`` in a child process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

from noncross import decomp, ncposet, verify, weyl
from noncross.rootsystem import build_root_system, subdiagram_types
from noncross.typelabel import label


# Counts the classifier calls of one cold `verify e8`, rebinding the
# classifier wherever the package imported it.
COUNT_CALLS = r"""
import contextlib, io, json, sys
import noncross.cli
from noncross import weyl

original = weyl.classify_moved_roots
calls = {"total": 0, "enumerate_nc": 0}


def counted(*args):
    calls["total"] += 1
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code.co_name == "enumerate_nc":
            calls["enumerate_nc"] += 1
            break
        frame = frame.f_back
    return original(*args)


for module in list(sys.modules.values()):
    if getattr(module, "classify_moved_roots", None) is original:
        module.classify_moved_roots = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = noncross.cli.main(["verify", "e8"])
assert code == 0, code
print(json.dumps(calls))
"""


# Counts the posets that one cold chi* enumerates.
COUNT_WALKS = r"""
import sys
from noncross.ncposet import characteristic_polynomial, enumerate_nc
from noncross.typelabel import label
characteristic_polynomial(label(sys.argv[1]))
print(enumerate_nc.cache_info().misses)
"""


DESCENT_AMBIENTS = ("D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8")


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 4)


def walk_edge_sets(name):
    """The distinct ``(k, edges)`` arguments of ``weyl._classify_edges``
    in one uncached walk of the ambient, recorded by rebinding it."""
    original = weyl._classify_edges
    seen = {}

    def record(k, edges):
        seen[k, edges] = None
        return original(k, edges)

    weyl._classify_edges = record
    try:
        ncposet.enumerate_nc.__wrapped__(name)
    finally:
        weyl._classify_edges = original
    return list(seen)


def descent(name):
    """The full-rank table of one ambient by brute force, as
    ``full_table`` built it before the census route."""
    allowed = subdiagram_types(name)
    memo = {}
    return {key: decomp.count_bruteforce(name, key, _memo=memo)
            for key in decomp.all_tuples_of_rank(label(name).rank)
            if all(t in allowed for t in key)}


def stages(repeats):
    out = {}
    for name in ("E8", "E7", "D8"):
        out["walk_classify_%s_s" % name] = timed(
            lambda: ncposet.enumerate_nc.__wrapped__(name), repeats)
    edge_sets = walk_edge_sets("E8")

    def classify_cold():
        weyl._classify_edges.cache_clear()
        for k, edges in edge_sets:
            weyl._classify_edges(k, edges)

    out["classify_cold_E8_s"] = timed(classify_cold, repeats)
    out["classify_cold_E8_sets"] = len(edge_sets)
    out["subdiagram_types_E8_s"] = timed(
        lambda: subdiagram_types.__wrapped__("E8"), repeats)
    poset = ncposet.enumerate_nc("E8")

    out["pair_census_E8_s"] = timed(poset.pair_census, repeats)
    lower = [below[0] for t, below in poset.by_type.items()
             if t.is_irreducible and t.rank < 8]
    out["interval_census_E8_s"] = timed(
        lambda: [poset.interval_census(q) for q in lower], repeats)
    ncposet.enumerate_nc("D7")
    out["full_table_D7_s"] = timed(lambda: descent("D7"), repeats)
    ncposet.enumerate_nc("D4")
    out["build_ncm_D4_2_s"] = timed(lambda: ncposet.build_ncm("D4", 2),
                                    repeats)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "nc_D5.jsonl")
        ncposet.write_cache(ncposet.enumerate_nc("D5"), path)

        def read():
            ncposet.enumerate_nc.cache_clear()
            return ncposet.read_cache(path, expected_ambient="D5")

        out["read_cache_D5_s"] = timed(read, repeats)

    def cold_chi():
        for cached in (ncposet.enumerate_nc, ncposet.characteristic_polynomial,
                       ncposet._mobius_number, ncposet._census):
            cached.cache_clear()
        ncposet._WALKED.clear()
        return ncposet.characteristic_polynomial(label("D6"))

    out["chi_D6_s"] = timed(cold_chi, repeats)
    tables = {}
    for name in DESCENT_AMBIENTS:
        build_root_system(name)
        tables[name] = timed(
            lambda: ncposet._descent_masks.__wrapped__(name), repeats)
    out["descent_table_s"] = tables
    out["descent_tables_DE_s"] = round(sum(tables.values()), 4)
    tables = {name: timed(lambda: weyl._root_tables.__wrapped__(name),
                          repeats)
              for name in DESCENT_AMBIENTS}
    out["root_tables_s"] = tables
    out["root_tables_DE_s"] = round(sum(tables.values()), 4)
    length = verify.SUITES["length"][0]
    out["length_suite_s"] = timed(lambda: all(ok for _, ok in length()),
                                  repeats)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    held = ncposet.enumerate_nc.__wrapped__("E8")
    out["poset_E8_mb"] = round(
        (tracemalloc.get_traced_memory()[0] - before) / 2 ** 20, 1)
    tracemalloc.stop()
    del held
    child = subprocess.run([sys.executable, "-c", COUNT_CALLS], check=True,
                           capture_output=True, text=True)
    out["classify_calls_verify_e8"] = json.loads(child.stdout)
    for name in ("D6", "E7"):
        child = subprocess.run([sys.executable, "-c", COUNT_WALKS, name],
                               check=True, capture_output=True, text=True)
        out["chi_walks_%s" % name] = int(child.stdout)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print(json.dumps(stages(args.repeats)), flush=True)


if __name__ == "__main__":
    main()
