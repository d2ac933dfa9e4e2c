"""Start-up, light-call, memory and enumeration costs, for one or more
source trees side by side.

Run from the repository root:

    python3 benchmarks/startup_stages.py [--rounds 8] [--repeats 3] [LABEL=SRC ...]

Each SRC is a directory holding the ``noncross`` package (default
``change=src``).  Naming a second tree, such as the ``src`` of a parent
checkout, interleaves the trees call by call, so that drift of a shared
host falls on both alike.  Prints one JSON object, one entry per label:

* ``import_cli_s``: wall time of a fresh interpreter that only imports
  ``noncross.cli``, median over ``--rounds``;
* ``light_s``: per light command (``LIGHT``), the wall time of one cold
  ``python -m noncross.cli`` process, median over ``--rounds``;
* ``loads``: per light command, the ``noncross`` submodules and the heavy
  stdlib modules (``HEAVY``) that one call loads, taken once in a fresh
  ``python -S`` (no site hooks, which may load stdlib modules of their
  own) that diffs ``sys.modules`` around the call;
* ``bytecode_writing_off``: whether the cold processes run with bytecode
  writing off (``PYTHONDONTWRITEBYTECODE`` set in the environment they
  inherit); then every cold call compiles the package source afresh,
  unless ``__pycache__`` already holds valid bytecode;
* ``peak_rss_mb``: the max RSS (``wait4`` rusage) of the import-only
  process, of ``decomp count E7 A4,A3`` and of ``verify e8``, median over
  ``--rounds``;
* ``enumerate_nc_<X>_s`` for E8, E7 and D8: one uncached
  ``ncposet.enumerate_nc``;
* ``classify_NC_E8_s``: ``weyl.classify_moved_roots`` on the moved set of
  every element of NC(E8).

The last two are timed ``--repeats`` times in one child process per
tree and round; the median over the rounds of each child's median is
printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

LIGHT = (("rootsys", "info", "A1"),
         ("decomp", "count", "A5", "A2,A3"),
         ("nc", "enumerate", "D5"),
         ("zeta", "E7"),
         ("mtriangle", "A4", "--dual"),
         ("chi", "A3*D4"),
         ("decomp", "table", "A6"))

HEAVY = ("dataclasses", "tempfile")

RSS = (("import",), ("decomp", "count", "E7", "A4,A3"), ("verify", "e8"))

STAGES = r"""
import json, statistics, sys, time
from noncross import ncposet, weyl
from noncross.rootsystem import build_root_system

repeats = int(sys.argv[1])


def timed(fn):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 4)


out = {}
for name in ("E8", "E7", "D8"):
    out["enumerate_nc_%s_s" % name] = timed(
        lambda: ncposet.enumerate_nc.__wrapped__(name))
rs = build_root_system("E8")
moved = [[a for a in range(mask.bit_length()) if mask >> a & 1]
         for mask in ncposet.enumerate_nc("E8").elements]


def classify():
    for roots in moved:
        weyl.classify_moved_roots(rs, roots)


out["classify_NC_E8_s"] = timed(classify)
print(json.dumps(out))
"""


LOADS = r"""
import sys
before = set(sys.modules)
from noncross import cli
cli.main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)))
"""


def cold(src, argv):
    """Wall time in s and max RSS in MB of one fresh process; ``import``
    only imports ``noncross.cli``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cmd = ["-c", "import noncross.cli"] if argv == ("import",) \
        else ["-m", "noncross.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *cmd], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError("%s exited %d" % (" ".join(argv), proc.returncode))
    return wall, usage.ru_maxrss / 1024


def loads(src, argv):
    """The noncross submodules and ``HEAVY`` modules one call loads."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("NONCROSS_CACHE_DIR", None)
    child = subprocess.run([sys.executable, "-S", "-c", LOADS, *argv],
                           env=env, check=True, capture_output=True,
                           text=True)
    modules = child.stdout.splitlines()[-1].split()
    return {"noncross": [m.split(".", 1)[1] for m in modules
                         if m.startswith("noncross.")],
            "heavy": [m for m in modules if m in HEAVY]}


def median(values, digits):
    return round(statistics.median(values), digits)


def stages(src, repeats):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    child = subprocess.run([sys.executable, "-c", STAGES, str(repeats)],
                           env=env, check=True, capture_output=True,
                           text=True)
    return json.loads(child.stdout)


def measure(trees, rounds, repeats):
    walls = {label: {} for label in trees}
    rss = {label: {} for label in trees}
    staged = {label: {} for label in trees}
    for _ in range(rounds):
        for argv in (("import",),) + LIGHT + RSS[1:]:
            for label, src in trees.items():
                wall, mb = cold(src, argv)
                walls[label].setdefault(argv, []).append(wall)
                rss[label].setdefault(argv, []).append(mb)
        for label, src in trees.items():
            for key, value in stages(src, repeats).items():
                staged[label].setdefault(key, []).append(value)
    return {label: {
        "bytecode_writing_off": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "import_cli_s": median(walls[label][("import",)], 4),
        "light_s": {" ".join(argv): median(walls[label][argv], 4)
                    for argv in LIGHT},
        "loads": {" ".join(argv): loads(trees[label], argv)
                  for argv in LIGHT},
        "peak_rss_mb": {" ".join(argv): median(rss[label][argv], 1)
                        for argv in RSS},
        **{key: median(values, 4) for key, values in staged[label].items()},
    } for label in trees}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("trees", nargs="*", metavar="LABEL=SRC",
                        default=["change=src"])
    args = parser.parse_args()
    trees = dict(tree.split("=", 1) for tree in args.trees)
    print(json.dumps(measure(trees, args.rounds, args.repeats), indent=1),
          flush=True)


if __name__ == "__main__":
    main()
