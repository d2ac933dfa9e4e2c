"""Op timings of the warm algebra layer: triangles, product rule, lookups.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/algebra_ops.py [--repeats 5]
    PYTHONPATH=src python3 benchmarks/algebra_ops.py --ab OTHER_SRC \
        [--repeats 10]

Decomposition tables come from the published reference data and the
E7/E8 M-triangles from their published dual polynomials, built once
before any timing, as in a warm library session.  Each op is timed
``--repeats`` times with ``time.perf_counter`` and the median printed
as one JSON object, in seconds:

* ``at:E8``: ``MTriangle.at`` at m = 3, the primal triangle at a
  numeric m;
* ``substitute:E8``: ``substitute(m=3)`` on the E8 primal triangle;
* ``from_dual:E8``: ``MTriangle.from_dual`` of the published E8 dual
  (its constant-term check and the degree flip);
* ``fm_transform:E7|E8``: one ``fm_transform`` at m = 3;
* ``f_reciprocity_checks:E7|E8``: one call at m = 2 (two transforms
  and the three reciprocity forms);
* ``f_reciprocity_checks:E8@1/2``: the same at m = 1/2, where the
  transforms have Fraction coefficients;
* ``reciprocity_check:E7|E8``: the m -> -m check of the M-triangle;
* ``zeta_identity_check:A7|D7|E7``: the zeta identity of the table;
* ``zeta_forms:7``: ``ncposet.zeta_forms(7)`` past its cache, the
  one-time cost the first zeta check of rank 7 in a session pays;
* ``zeta_rows:E7``: ``ncposet.zeta_rows`` of E7 past its cache (the
  forms warm), the one-time cost the first zeta check of E7 pays on
  top (left out on a tree without it);
* ``shifted_zeta_vectors:all``: ``ncposet._shifted_zeta_vector`` past
  its cache for each of the 100 type labels of rank 1 to 8 (the factors
  of ``zeta_forms``), with the caches it reads emptied first;
* ``count_product:E7*A1`` (and D4*D4, E6*A2, D5*A3): ``count_product``
  over the pair's whole full-rank key universe, with the product tables
  emptied before each repeat, so the table build is timed too;
* ``count_product:A1*A2*D5``: the same over three factors, so the
  product over the factors after the first is timed too;
* ``lookup:E8|E7|A7``: a batch of 4000 lookups, half full-rank keys
  and half made rank-deficient by dropping one factor (seeded), on a
  fresh table per repeat, so any lazily built index is timed too.
* ``lookup_text:E8``: the keys of ``lookup:E8`` with every label
  spelt as text, so each lookup takes the canonicalizing path.

With ``--ab OTHER_SRC`` it compares this tree's ``src`` with another
directory holding the ``noncross`` package instead.  It runs
``--repeats`` rounds; each round starts one fresh process per tree,
alternating which goes first, so that drift of a shared host falls on
both alike, and each process prints its medians of 5 repeats.  Per op
it prints both medians over the rounds and the number of rounds in
which this tree was faster (``wins``).
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from noncross import decomp, ncposet, refdata, rootsystem, triangles

PRODUCTS = (("E7", "A1"), ("D4", "D4"), ("E6", "A2"), ("D5", "A3"),
            ("A1", "A2", "D5"))
LOOKUP_BATCH = 4000


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 6)


def lookup_keys(name, seed=0):
    rng = random.Random(seed)
    full_rank = sorted(refdata.reference_table(name))
    keys = []
    for _ in range(LOOKUP_BATCH):
        key = rng.choice(full_rank)
        if len(key) > 1 and rng.random() < 0.5:
            drop = rng.randrange(len(key))
            key = key[:drop] + key[drop + 1:]
        keys.append(key)
    return keys


def products(factors, keys):
    decomp.product_table.cache_clear()
    return [decomp.count_product(factors, k) for k in keys]


def ops():
    """(name, zero-argument callable) pairs, everything built up front."""
    tables = {name: decomp.DecompositionTable(name, refdata.reference_table(name))
              for name in refdata.REFERENCE_TABLE_NAMES}
    mts = {name: triangles.MTriangle.from_dual(name, refdata.golden_dual(name))
           for name in ("E7", "E8")}
    dual_e8 = refdata.golden_dual("E8")
    out = [("at:E8", lambda: mts["E8"].at(3)),
           ("substitute:E8", lambda: mts["E8"].primal.substitute(m=3)),
           ("from_dual:E8",
            lambda: triangles.MTriangle.from_dual("E8", dual_e8))]
    for name, mt in mts.items():
        out.append(("fm_transform:" + name,
                    lambda mt=mt: triangles.fm_transform(mt, 3)))
        out.append(("f_reciprocity_checks:" + name,
                    lambda mt=mt: triangles.f_reciprocity_checks(mt, 2)))
        out.append(("reciprocity_check:" + name,
                    lambda mt=mt: triangles.reciprocity_check(mt)))
    out.append(("f_reciprocity_checks:E8@1/2",
                lambda: triangles.f_reciprocity_checks(mts["E8"],
                                                       Fraction(1, 2))))
    for name in ("A7", "D7", "E7"):
        out.append(("zeta_identity_check:" + name,
                    lambda name=name: triangles.zeta_identity_check(
                        name, tables[name])))
    out.append(("zeta_forms:7", lambda: ncposet.zeta_forms.__wrapped__(7)))
    if hasattr(ncposet, "zeta_rows"):
        out.append(("zeta_rows:E7",
                    lambda: ncposet.zeta_rows.__wrapped__("E7")))
    labels = [t for rank in range(1, 9) for t in decomp.all_labels_of_rank(rank)]

    def shifted():
        # the caches the vectors read: the components' vectors and the
        # degree table
        ncposet._shifted_zeta_vector.cache_clear()
        rootsystem.degrees.cache_clear()
        return [ncposet._shifted_zeta_vector.__wrapped__(t) for t in labels]
    out.append(("shifted_zeta_vectors:all", shifted))
    for pair in PRODUCTS:
        factors = [tables[name] for name in pair]
        keys = decomp.all_tuples_of_rank(sum(t.ambient.rank for t in factors))
        out.append(("count_product:" + "*".join(pair),
                    lambda f=factors, keys=keys: products(f, keys)))
    for name in ("E8", "E7", "A7"):
        entries, keys = refdata.reference_table(name), lookup_keys(name)

        def batch(name=name, entries=entries, keys=keys):
            table = decomp.DecompositionTable(name, entries)
            return [table.lookup(k) for k in keys]
        out.append(("lookup:" + name, batch))
        if name == "E8":
            text = [tuple(map(str, key)) for key in keys]
            out.append(("lookup_text:E8",
                        lambda batch=batch, text=text: batch(keys=text)))
    return out


def run_tree(src):
    """The op medians of a fresh process importing ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


def ab(other, rounds):
    trees = [("this", "src"), ("other", other)]
    samples = {tree: [] for tree, _ in trees}
    for round_ in range(rounds):
        for tree, src in trees if round_ % 2 == 0 else trees[::-1]:
            samples[tree].append(run_tree(src))
    this, other_runs = samples["this"], samples["other"]
    out = {"rounds": rounds, "other": other}
    for name in this[0]:
        mine = [run[name] for run in this]
        theirs = [run.get(name) for run in other_runs]
        out[name] = {
            "this": round(statistics.median(mine), 6),
            "other": (None if None in theirs
                      else round(statistics.median(theirs), 6)),
            "wins": sum(b is not None and a < b
                        for a, b in zip(mine, theirs))}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--ab", metavar="OTHER_SRC",
                        help="compare with the noncross package in OTHER_SRC")
    args = parser.parse_args()
    if args.ab:
        report = ab(args.ab, args.repeats)
    else:
        report = {name: median_time(fn, args.repeats) for name, fn in ops()}
    print(json.dumps(report, indent=1), flush=True)


if __name__ == "__main__":
    main()
