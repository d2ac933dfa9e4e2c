"""Stage timings of the linear-system route for E7, E8 and D8.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/linsys_stages.py [--repeats 5] [E7 E8 D8]
    PYTHONPATH=src python3 benchmarks/linsys_stages.py --ab OTHER_SRC \
        [--repeats 10] [E8]

Each stage is timed ``--repeats`` times with ``time.perf_counter`` and
the median is printed as JSON, one object per ambient:

* ``generate_equations_s``: equation generation with the lower-rank
  tables already built (warm), product-count memos, the zeta forms and
  the zeta rows (``ncposet.zeta_rows``) emptied first (per equation
  family, cold and warm: ``equation_families.py``);
* ``elimination_s`` and ``back_substitution_s``: ``exact.echelon`` and
  ``Echelon.space`` on the unpinned system, its rows in the order
  ``generate_equations`` emits them (the sparse rows by descending
  leading column, then the zeta rows; since the echelon is reduced,
  ``Echelon.space`` only reads the space off its rows);
* ``relations_<ambient>_s``: checking the paper's published relations
  (``linsys.relation_rows``) with ``Echelon.implies`` on the unpinned
  echelon, as ``replay`` does before the pins (absent for a tree
  without ``relation_rows``);
* ``replay_s``: one uncached ``linsys.replay`` with the poset and the
  lower tables warm, memos emptied first;
* ``assemble_dual_s`` and ``assemble_dual_chi_warm_s``:
  ``triangles.assemble_dual`` of the replayed table, with the cached
  chi* (``ncposet.characteristic_polynomial``) emptied first and kept
  warm; the pair censuses stay warm.

It also prints the rank of the pinned system and the largest bit size
of a numerator or denominator in its solution.

With ``--ab OTHER_SRC`` it compares this tree's ``src`` with another
directory holding the ``noncross`` package instead.  It runs
``--repeats`` rounds; each round starts one fresh process per tree,
alternating which goes first, so that drift of a shared host falls on
both alike, and each process times every stage once.  Per ambient it
prints both medians of each stage and the number of rounds in which
this tree was faster (``wins``); the rank and bit size come from one
process of each tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from noncross import decomp, exact, linsys, ncposet, triangles


def clear_memos():
    # one table per reducible type, each a product_table fold of its
    # factor tables, with the matchings of pairs of their entries, and
    # the rank-keyed zeta forms with the per-type zeta rows read off
    # them, so that a warm generate_equations still builds its zeta rows
    # from the products (a tree without ncposet.zeta_rows keeps none)
    for cached in (decomp.lower_table, decomp.product_table,
                   decomp._matchings, decomp._joined, ncposet.zeta_forms,
                   getattr(ncposet, "zeta_rows", ncposet.zeta_forms)):
        cached.cache_clear()


def timed(fn, repeats, before=clear_memos):
    times = []
    for _ in range(repeats):
        before()
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 4), result


def stages(name, repeats):
    report = linsys.replay(name)          # builds everything below warm
    out = {}
    out["generate_equations_s"], system = timed(
        lambda: linsys.generate_equations(name), repeats)
    out["elimination_s"], ech = timed(lambda: exact.echelon(system), repeats)
    out["back_substitution_s"], _ = timed(ech.space, repeats)
    if hasattr(linsys, "relation_rows"):
        out["relations_%s_s" % name], _ = timed(
            lambda: [ech.implies(coeffs, rhs)
                     for _, coeffs, rhs in linsys.relation_rows(name)],
            repeats, before=lambda: None)
    out["replay_s"], _ = timed(lambda: linsys.replay.__wrapped__(name),
                               repeats)
    assemble = lambda: triangles.assemble_dual(name, report.final_table)
    out["assemble_dual_s"], _ = timed(
        assemble, repeats, ncposet.characteristic_polynomial.cache_clear)
    out["assemble_dual_chi_warm_s"], _ = timed(assemble, repeats, assemble)
    pinned = exact.LinearSystem(variables=system.variables,
                                rows=list(system.rows))
    for key, value in report.pinned_values.items():
        pinned.add_row({key: 1}, value, "oracle-pin")
    space = exact.solve(pinned)
    out["rank"] = len(space.pivot_columns)
    out["max_bits"] = max(max(abs(v.numerator).bit_length(),
                              v.denominator.bit_length())
                          for v in space.particular)
    return out


def run_tree(src, name):
    """``stages(name, 1)`` in a fresh process importing ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), name, "--repeats", "1"],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def ab(name, other, rounds):
    trees = [("this", "src"), ("other", other)]
    samples = {tree: [] for tree, _ in trees}
    for round_ in range(rounds):
        for tree, src in trees if round_ % 2 == 0 else trees[::-1]:
            samples[tree].append(run_tree(src, name))
    this, other_runs = samples["this"], samples["other"]
    out = {"ambient": name, "rounds": rounds, "other": other}
    for stage, value in this[0].items():
        if stage == "ambient":
            continue
        if not stage.endswith("_s"):
            out[stage] = {"this": value, "other": other_runs[0].get(stage)}
            continue
        mine = [run[stage] for run in this]
        theirs = [run.get(stage) for run in other_runs]
        out[stage] = {
            "this": round(statistics.median(mine), 4),
            "other": (None if None in theirs
                      else round(statistics.median(theirs), 4)),
            "wins": sum(b is not None and a < b
                        for a, b in zip(mine, theirs))}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ambients", nargs="*", default=["E7", "E8", "D8"])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--ab", metavar="OTHER_SRC",
                        help="compare with the noncross package in OTHER_SRC")
    args = parser.parse_args()
    for name in args.ambients:
        if args.ab:
            report = ab(name, args.ab, args.repeats)
        else:
            report = {"ambient": name, **stages(name, args.repeats)}
        print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
