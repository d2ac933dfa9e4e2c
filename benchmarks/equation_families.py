"""Stage times of ``linsys.generate_equations`` per equation family,
cold and warm, for one or more source trees side by side.

Run from the repository root:

    python3 benchmarks/equation_families.py [--rounds 6] [--repeats 5]
        [--ambient E8] [LABEL=SRC ...]

Each SRC is a directory holding the ``noncross`` package (default
``change=src``).  Each round runs one fresh child process per tree,
alternating which tree goes first, so that drift of a shared host falls
on both alike.  The child builds the full tables of every lower
irreducible ambient, then times

* ``cold``: its first ``generate_equations`` call;
* ``warm``: ``--repeats`` further calls, product-count memos and the
  cached ``ncposet.zeta_forms`` and ``ncposet.zeta_rows`` emptied
  before each (as ``generate_equations_s`` in ``linsys_stages.py``), so
  that ``zeta_s`` still times building the forms and rows; the child
  reports their median.

``generate_equations`` adds its rows family by family (forbidden,
special, split, zeta), so every ``add_row`` call is stamped and a stage
ends at the last row of its family:

* ``forbidden_special_s``: from the call to the last special row
  (sub-diagram types, special values);
* ``split_s``: to the last split row (the lower counts included);
* ``zeta_s``: to the return (the sort of the sparse rows by leading
  column, the zeta forms and rows);
* ``total_s``: the whole call.

Prints one JSON object: per label and mode, the median and the samples
of each stage over the rounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

STAGES = ("forbidden_special_s", "split_s", "zeta_s", "total_s")


def family(provenance):
    return provenance.split(":", 1)[0].split("-", 1)[0]


def timed_call(linsys, name):
    """One generate_equations call, split at the last row of each
    family."""
    stamps = {}

    class Stamped(linsys.LinearSystem):
        def add_row(self, coeffs, rhs, provenance=""):
            super().add_row(coeffs, rhs, provenance)
            stamps[family(provenance)] = time.perf_counter()

    original = linsys.LinearSystem
    linsys.LinearSystem = Stamped
    try:
        start = time.perf_counter()
        linsys.generate_equations(name)
        end = time.perf_counter()
    finally:
        linsys.LinearSystem = original
    return {"forbidden_special_s": stamps["special"] - start,
            "split_s": stamps["split"] - stamps["special"],
            "zeta_s": end - stamps["split"],
            "total_s": end - start}


def child(name, repeats):
    from linsys_stages import clear_memos
    from noncross import decomp, linsys
    from noncross.typelabel import label
    rank = label(name).rank
    for r in range(1, rank):
        for t in decomp.all_labels_of_rank(r):
            if t.is_irreducible:
                decomp.full_table(str(t))
    cold = timed_call(linsys, name)
    warm = []
    for _ in range(repeats):
        clear_memos()
        warm.append(timed_call(linsys, name))
    warm = {stage: statistics.median(w[stage] for w in warm)
            for stage in STAGES}
    print(json.dumps({"cold": cold, "warm": warm}))


def run_child(src, name, repeats):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", name,
         "--repeats", str(repeats)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def compare(args):
    trees = [tree.split("=", 1) for tree in args.trees or ["change=src"]]
    samples = {label: {"cold": [], "warm": []} for label, _ in trees}
    for round_ in range(args.rounds):
        order = trees if round_ % 2 == 0 else trees[::-1]
        for label, src in order:
            result = run_child(src, args.ambient, args.repeats)
            for mode in ("cold", "warm"):
                samples[label][mode].append(result[mode])
    report = {"ambient": args.ambient, "rounds": args.rounds,
              "repeats": args.repeats}
    for label, modes in samples.items():
        report[label] = {
            mode: {stage: {"median": round(statistics.median(
                                s[stage] for s in runs), 4),
                           "samples": [round(s[stage], 4) for s in runs]}
                   for stage in STAGES}
            for mode, runs in modes.items()}
    print(json.dumps(report, indent=1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="LABEL=SRC")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--ambient", default="E8")
    parser.add_argument("--child", metavar="AMBIENT", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child, args.repeats)
    else:
        compare(args)


if __name__ == "__main__":
    main()
