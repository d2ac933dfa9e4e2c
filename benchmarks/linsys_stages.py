"""Stage timings of the linear-system route for E7, E8 and D8.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/linsys_stages.py [--repeats 5] [E7 E8 D8]

Each stage is timed ``--repeats`` times with ``time.perf_counter`` and
the median is printed as JSON, one object per ambient:

* ``generate_equations_s``: equation generation with the lower-rank
  tables already built (warm), product-count memos emptied first (per
  equation family, cold and warm: ``equation_families.py``);
* ``elimination_s`` and ``back_substitution_s``: ``exact.echelon`` and
  ``Echelon.space`` on the unpinned system (older trees without an
  echelon report one ``solve_s`` instead; since the echelon is reduced,
  ``Echelon.space`` only reads the space off its rows);
* ``replay_s``: one uncached ``linsys.replay`` with the poset and the
  lower tables warm, memos emptied first.

It also prints the rank of the pinned system and the largest bit size
of a numerator or denominator in its solution.
"""

import argparse
import json
import statistics
import time

from noncross import decomp, exact, linsys


def clear_memos():
    # one dict shared by every lower_count call since the shared memo;
    # before it, one lru-cached memo per product type, in decomp since
    # the census route and in linsys before that
    shared = getattr(decomp, "_LOWER_MEMO", None)
    if shared is not None:
        shared.clear()
    memo = getattr(decomp, "_product_memo", None) or \
        getattr(linsys, "_product_memo", None)
    if memo is not None:
        memo.cache_clear()


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
    if hasattr(exact, "echelon"):
        out["elimination_s"], ech = timed(
            lambda: exact.echelon(system), repeats)
        out["back_substitution_s"], _ = timed(ech.space, repeats)
    else:
        out["solve_s"], _ = timed(lambda: exact.solve(system), repeats)
    out["replay_s"], _ = timed(lambda: linsys.replay.__wrapped__(name),
                               repeats)
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ambients", nargs="*", default=["E7", "E8", "D8"])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    for name in args.ambients:
        print(json.dumps({"ambient": name, **stages(name, args.repeats)}),
              flush=True)


if __name__ == "__main__":
    main()
