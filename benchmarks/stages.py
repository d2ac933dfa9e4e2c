"""Stage timings of the noncross pipeline, for one or more source trees
side by side.

Run from anywhere:

    python3 benchmarks/stages.py [GROUP ...] [LABEL=SRC ...]
        [--rounds 1] [--repeats 5]

GROUP is any of ``nc``, ``census``, ``linsys``, ``families``,
``algebra`` and ``startup`` (default: all six).  Each SRC is a directory
holding the ``noncross`` package (default: ``this=`` the ``src`` of this
tree); naming a second one, such as ``parent=../parent/src``, compares
the two.  For a comparison, take ``--rounds 10``.

Every run follows one protocol.  Each round starts a fresh child
process per group and tree, alternating the order of the trees from
round to round, so that drift of a shared host falls on all alike; this
process never imports ``noncross``.  In the child, each timed stage runs
``--repeats`` times under ``time.perf_counter``, what its entry below
names as cleared emptied before each repeat, and yields its median in
seconds.  The report is one JSON object: ``rounds``, ``repeats`` and
``trees``, then per group and key the value of each tree.  A timing
(every ``_s`` key and every ``algebra`` key) is the median over the
rounds, with ``wins`` when two or more trees run: per tree, the rounds
in which it was the fastest.  Any other value (counts, rank, bits, loads, memory) comes from
the first round.  A stage that raises ``AttributeError`` in a tree (a
name that tree lacks) reads ``null`` and is named on stderr.  The trees
under comparison must be copied at the same time: a copy made later than
another reads slower on a long-used host (a cold ``verify e8`` 7 % slower
in an identical copy, lower in 3 of 21 rounds), where copies made
together read alike (lower in 14 of 25).

A *cold* process is one ``python -m noncross.cli`` run, its stdout
discarded, its peak RSS read through ``wait4``; a *probe* runs one
snippet in a fresh ``python -S`` and reads the JSON line it prints.
*Memos* are the tables of ``decomp.full_table`` (the reducible types'
tables and the closed-form A tables; the D and E tables stay in
``census_table``'s cache), ``product_table``, ``_matchings``,
``_joined`` and the zeta forms and rows (``closedform.zeta_forms``,
``zeta_rows``); *walks* are the walked posets (``enumerate_nc``,
``ncposet._WALKED``, keyed by label) and the censuses kept on them
(``NcPoset.census``), Moebius numbers (``closedform._mobius_number``),
chi* values (with their cached y-vectors) and census and full tables,
with the memos.  An *uncached* call of a function cached per type
(``typelabel.per_type``) is its ``__wrapped__``: the same body past the
cache, after one memoized ``label`` probe of its argument.

The ``nc`` group: NC(W) enumeration and what reads it.

* ``walk_classify_E8_s``, ``walk_classify_E7_s``, ``walk_classify_D8_s``:
  one uncached ``enumerate_nc`` (its ``__wrapped__``), the walk with
  every element typed; the diagram classifications
  (``_classify_edges``) stay cached after the first repeat, so these
  leave out most of what a cold process pays to classify;
* ``classify_NC_E8_s``: the classifier ``classify_simple_roots`` on
  every element of NC(E8), its masks read from ``NcPoset.types``, the
  simple roots of each mask picked inside the timing;
* ``classify_cold_E8_s``: classifying the distinct edge sets
  (``classify_cold_E8_sets`` of them) that one E8 walk classifies;
  cleared: ``_classify_edges``;
* ``classify_cold_E8_sets``;
* ``subdiagram_types_E8_s``: one uncached ``subdiagram_types("E8")``
  (its ``__wrapped__``);
* ``pair_census_E8_s``: ``pair_census`` of NC(E8);
* ``interval_census_E8_s``: the censuses of the 13 irreducible types
  below E8, each by ``NcPoset._scan`` below the head of the first
  c-orbit of its type in NC(E8) (``NcPoset.records_of``), so each scans
  the records in full: the cost of reading every lower census off its
  own interval, which the pipeline no longer pays;
* ``lower_censuses_E8_s``: the censuses of the 6 D and E types below
  E8 as the pipeline reads them, ``NcPoset.census`` of NC(E8), each off
  the smallest interval already read that holds its type; cleared: the
  censuses kept on the poset;
* ``chi_star_below_E8_s``: ``characteristic_polynomial`` of the 13
  irreducible types below E8, NC(E8) the only poset walked; cleared:
  chi* and the censuses, the D and E censuses then read again untimed,
  as the tables of ``verify e8`` read them before chi*;
* ``full_table_D7_s``: every full-rank D7 value of a sub-diagram type by
  ``count_bruteforce``, NC(D7) walked; cleared: the memo of
  ``NcPoset.count`` on NC(D7);
* ``build_ncm_D4_2_s``: ``direct.build_ncm("D4", 2)``, NC(D4) walked;
* ``chi_D6_s``: ``characteristic_polynomial`` of D6; cleared: walks;
* ``root_system_s``: per D and E ambient, one uncached
  ``build_root_system`` (its ``__wrapped__``);
* ``root_systems_DE_s``: the sum of those medians;
* ``descent_table_s``: per D and E ambient, one uncached
  ``ncposet._descent_masks`` (its ``__wrapped__``), the root system
  built;
* ``descent_tables_DE_s``: the sum of those medians;
* ``coxeter_permutation_s``: per D and E ambient, one uncached
  ``coxeter_root_permutation`` (its ``__wrapped__``), the root system
  built;
* ``coxeter_permutations_DE_s``: the sum of those medians;
* ``root_tables_s``: per D and E ambient, one uncached ``_root_tables``
  (its ``__wrapped__``), the root system built;
* ``root_tables_DE_s``: the sum of those medians;
* ``length_suite_s``: the checks of ``noncross verify length``;
* ``poset_E8_mb``: the memory one walked NC(E8) holds (its orbit
  records and the type of each mask), as ``tracemalloc`` counts it;
* ``classify_calls_verify_e8``: the calls of the classifier in a probe
  of ``verify e8``, in ``total`` and inside ``enumerate_nc``;
* ``chi_walks_D6``, ``chi_walks_E7``: the posets a probe of ``chi D6``
  (``chi E7``) walks.

The ``census`` group: decomposition tables from pair censuses.

* ``census_table_D7_s``, ``census_table_E7_s``, ``census_table_E8_s``,
  ``census_table_D8_s``: one uncached ``decomp.census_table`` (its
  ``__wrapped__``), the poset walked and the lower D and E tables
  built; cleared: memos, so each repeat also rebuilds the closed-form
  A tables it reads (about 1 ms for A1-A7);
* ``census_table_E8_cold_s``: ``census_table("E8")``, walking NC(E8);
  cleared: walks;
* ``cold_decomp_count_D7_D4_A3_s``, ``cold_decomp_count_E7_A4_A3_s``,
  ``cold_decomp_count_E8_D4_A4_s``, ``cold_verify_e8_s``,
  ``cold_mtriangle_E6_m_2_s``, ``cold_linsys_replay_E8_s``: one cold
  process of the command;
* ``walks_decomp_count_D7_D4_A3``, ``walks_decomp_count_E7_A4_A3``,
  ``walks_decomp_count_E8_D4_A4``, ``walks_verify_e8``,
  ``walks_mtriangle_E6_m_2``, ``walks_linsys_replay_E8``: the posets a
  probe of the command walks;
* ``root_systems_decomp_count_D7_D4_A3``,
  ``root_systems_decomp_count_E7_A4_A3``,
  ``root_systems_decomp_count_E8_D4_A4``, ``root_systems_verify_e8``,
  ``root_systems_mtriangle_E6_m_2``, ``root_systems_linsys_replay_E8``:
  the root systems it builds.

The ``linsys`` group, under ``E7``, ``E8`` and ``D8`` each, the poset
walked and the lower tables built:

* ``generate_equations_s``: equation generation; cleared: memos, so
  each repeat also rebuilds the closed-form A tables (about 1 ms for
  A1-A7);
* ``elimination_s``: ``exact.echelon`` of the unpinned system, its rows
  in the order ``generate_equations`` emits them;
* ``back_substitution_s``: ``exact.solve`` of that echelon;
* ``relations_E7_s``, ``relations_E8_s``, ``relations_D8_s``: checking
  the published relations (``linsys.relation_rows``) with
  ``Echelon.implies`` on the unpinned echelon;
* ``replay_s``: one uncached ``linsys.replay`` (its ``__wrapped__``);
  cleared: memos, the closed-form A tables among them;
* ``assemble_dual_s``: ``triangles.assemble_dual`` of the replayed
  table; cleared: chi* (``ncposet.characteristic_polynomial`` and the
  cache of its y-vectors ``decomp.chi_vector``);
* ``assemble_dual_chi_warm_s``: the same with chi* warm;
* ``pins_s``: the pins of ``replay`` added by ``Echelon.add_row`` to a
  fresh unpinned echelon, then ``exact.solve``; the echelon is built
  untimed before each repeat.  Here a new pivot is held by the most
  pivot rows;
* ``rank``: the rank of the pinned system, the unpinned echelon
  extended by the pins through ``Echelon.add_row`` as in ``replay``;
* ``max_bits``: the largest bit size of a numerator or denominator of
  its solution.

The ``families`` group: ``generate_equations("E8")`` split at the last
row of each equation family, the lower irreducible tables built first.

* ``cold``: the first call;
* ``warm``: a further call; cleared: memos, the closed-form A tables
  among them;
* ``forbidden_special_s``: under each, from the call to the last special
  row;
* ``split_s``: to the last split row;
* ``zeta_s``: to the return (the sort of the sparse rows, the zeta
  forms and rows);
* ``total_s``: the whole call.

The ``algebra`` group: the warm algebra layer, the tables from the
reference data and the E7 and E8 M-triangles from their published
duals.

* ``at:E8``: ``MTriangle.at`` at m = 3;
* ``substitute:E8``: ``substitute(m=3)`` on the E8 primal triangle;
* ``from_dual:E8``: ``MTriangle.from_dual`` of the published E8 dual;
* ``fm_transform:E7``, ``fm_transform:E8``: one ``fm_transform`` at
  m = 3;
* ``f_reciprocity_checks:E7``, ``f_reciprocity_checks:E8``: one call at
  m = 2;
* ``f_reciprocity_checks:E8@1/2``: the same at m = 1/2;
* ``reciprocity_check:E7``, ``reciprocity_check:E8``: the m -> -m check;
* ``zeta_identity_check:A7``, ``zeta_identity_check:D7``,
  ``zeta_identity_check:E7``: the zeta identity of the table;
* ``zeta_forms:7``, ``zeta_forms:8``: ``closedform.zeta_forms(7)`` and
  ``zeta_forms(8)`` past their cache;
* ``zeta_rows:E7``, ``zeta_rows:E8``: one uncached
  ``closedform.zeta_rows`` (its ``__wrapped__``), the forms warm;
* ``zeta_closed:E8@2``, ``zeta_closed:E8@m``: one uncached
  ``closedform.zeta_closed`` (its ``__wrapped__``) of E8 at m = 2 and
  at symbolic m;
* ``shifted_zeta_vectors:all``: ``closedform._shifted_zeta_vector`` of the
  100 type labels of rank 1 to 8; cleared: those vectors and
  ``rootsystem.degrees``;
* ``count_product:E7*A1``, ``count_product:D4*D4``,
  ``count_product:E6*A2``, ``count_product:D5*A3``,
  ``count_product:A1*A2*D5``: ``count_product`` over the factors' whole
  full-rank key universe; cleared: ``decomp.product_table``;
* ``count_product_warm:E7*A1``, ``count_product_warm:D4*D4``,
  ``count_product_warm:E6*A2``, ``count_product_warm:D5*A3``,
  ``count_product_warm:A1*A2*D5``: the batch of ``count_product`` again,
  on the product table its last repeat built and looked up;
* ``lookup:E8``, ``lookup:E7``, ``lookup:A7``: 4000 lookups, half of them
  full-rank keys and half made rank-deficient by dropping one factor
  (seeded), on a table built afresh inside the timing;
* ``lookup_text:E8``: the keys of ``lookup:E8`` spelt as text;
* ``lookup_warm:E8``: the keys of ``lookup:E8`` again, on one table that
  has looked them all up before;
* ``refdata_import_s``: a probe that imports ``noncross.refdata``, the
  modules it imports loaded first, untimed;
* ``golden_dual_E7_s``, ``golden_dual_E8_s``: one uncached
  ``refdata.golden_dual`` (its ``__wrapped__``); cleared: the cache of
  parsed factors (``refdata._factor_vector``);
* ``reference_tables_s``: ``refdata.reference_table`` of the 14
  published tables; cleared: its cache;
* ``session_setup_s``: a probe of the package part of the set-up of
  ``perfbench/session.py`` as its ``main`` runs it: the import of
  ``noncross.decomp`` and ``set_up()``, the tables and the E7 and E8
  triangles, not ``plan``.

The ``startup`` group: cold processes.

* ``import_cli_s``: a cold process that only imports ``noncross.cli``;
* ``light_s``: per light command (``LIGHT``, among them the spellings
  of ``nc enumerate`` and ``zeta`` that ``query_mix`` runs), one cold
  process;
* ``loads``: per light command, the ``noncross`` submodules and the
  ``HEAVY`` stdlib modules that a probe of it loads;
* ``compiled_nodes``: per light command and for ``import`` (the import
  of ``noncross.cli`` alone), the AST nodes of the package modules that
  a probe of it loads, ``noncross`` itself included: what a cold
  process compiles with bytecode writing off, a count with no noise;
* ``bytecode_writing_off``: whether ``PYTHONDONTWRITEBYTECODE`` is set,
  so that every cold process compiles the package afresh unless
  ``__pycache__`` already holds its bytecode;
* ``peak_rss_mb``: the peak RSS of one cold process of ``import``
  (the import alone), ``decomp count E7 A4,A3`` and ``verify e8``.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")

# run by ``python -c`` in each child: argv is this directory, then the
# arguments of ``child``
CHILD = ("import sys; sys.path.append(sys.argv[1]); import stages; "
         "stages.child(*sys.argv[2:])")

DE = ("D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8")
COLD = (("decomp", "count", "D7", "D4,A3"),
        ("decomp", "count", "E7", "A4,A3"),
        ("decomp", "count", "E8", "D4,A4"),
        ("verify", "e8"),
        ("mtriangle", "E6", "--m", "2"),
        ("linsys", "replay", "E8"))
LINSYS = ("E7", "E8", "D8")
FAMILIES = "E8"
FAMILY_STAGES = ("forbidden_special_s", "split_s", "zeta_s", "total_s")
PRODUCTS = (("E7", "A1"), ("D4", "D4"), ("E6", "A2"), ("D5", "A3"),
            ("A1", "A2", "D5"))
LOOKUP_BATCH = 4000
LIGHT = (("rootsys", "info", "A1"),
         ("decomp", "count", "A5", "A2,A3"),
         ("nc", "enumerate", "D5"),
         ("nc", "enumerate", "D5", "--format", "json"),
         ("zeta", "E7"),
         ("zeta", "D4", "--m", "1"),
         ("mtriangle", "A4", "--dual"),
         ("mtriangle", "A4", "--m", "1"),
         ("ftriangle", "A3", "--m", "3", "--format", "json"),
         ("chi", "A3*D4"),
         ("chi", "A1*A1"),
         ("decomp", "table", "A6"),
         ("decomp", "table", "A3", "--format", "json", "--full-rank-only"))
HEAVY = ("dataclasses", "tempfile")
RSS = ((), ("decomp", "count", "E7", "A4,A3"), ("verify", "e8"))

# Runs one CLI command, its stdout swallowed, and prints the posets it
# walked, the root systems it built and its calls of the classifier
# ``ncposet.classify_simple_roots``, which is rebound wherever the
# package imported it.
COUNT = r"""
import contextlib, io, json, sys
import noncross.cli
from noncross import ncposet, rootsystem

name = "classify_simple_roots"
original = getattr(ncposet, name)
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
    if getattr(module, name, None) is original:
        setattr(module, name, counted)
with contextlib.redirect_stdout(io.StringIO()):
    code = noncross.cli.main(sys.argv[1:])
assert code == 0, code
print(json.dumps({"walks": ncposet.enumerate_nc.cache_info().misses,
                  "root_systems":
                      rootsystem.build_root_system.cache_info().misses,
                  "classify": calls}))
"""

# Prints the time that importing ``noncross.refdata`` takes once the
# modules it imports are loaded.
REFDATA_IMPORT = r"""
import time
import noncross.decomp, noncross.polynomial, noncross.typelabel
start = time.perf_counter()
import noncross.refdata
print(time.perf_counter() - start)
"""

# Prints the time of the package part of the set-up of the session
# module in the directory argv[1], as its ``main`` runs it.
SESSION_SETUP = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
import session
start = time.perf_counter()
from noncross.decomp import count_product
session.set_up()
print(time.perf_counter() - start)
"""

# Runs one CLI command (none: only imports the CLI) and prints the
# modules loaded since the start.
LOADS = r"""
import sys
before = set(sys.modules)
from noncross import cli
if sys.argv[1:]:
    cli.main(sys.argv[1:])
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps(loaded))
"""


class Stages:
    """The results of one group in one process, by key: ``out`` holds
    them, nested under ``section``, and ``timings`` the key paths of
    those that are timings."""

    def __init__(self, label, repeats):
        self.label, self.repeats = label, repeats
        self.out, self.timings, self.section = {}, [], ()

    def timed(self, fn, before=None):
        """The median wall time of ``fn`` over the repeats, ``before``
        called ahead of each."""
        samples = []
        for _ in range(self.repeats):
            if before is not None:
                before()
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    def time(self, key, fn, before=None):
        self.value(key, lambda: self.timed(fn, before), timing=True)

    def probe_time(self, key, code, *argv):
        """The median over the repeats of the time that a fresh ``probe``
        of ``code`` prints."""
        self.value(key, lambda: statistics.median(
            probe(code, *argv) for _ in range(self.repeats)), timing=True)

    def value(self, key, fn, timing=False):
        """Store and return ``fn()`` under ``key``; ``None`` if it raises
        ``AttributeError``."""
        try:
            result = fn()
        except AttributeError as exc:
            print("%s: %s: %s" % (self.label, key, exc), file=sys.stderr)
            result = None
        table = self.out
        for part in self.section:
            table = table.setdefault(part, {})
        table[key] = result
        if timing:
            self.timings.append([*self.section, key])
        return result


def cold(argv):
    """Run one cold process of ``noncross`` ``argv`` (only the import of
    ``noncross.cli`` for no argv); its peak RSS in MB."""
    args = ["-m", "noncross.cli", *argv] if argv else \
        ["-c", "import noncross.cli"]
    proc = subprocess.Popen([sys.executable, *args],
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError("%s exited %d" % (" ".join(argv) or "import",
                                             proc.returncode))
    return round(usage.ru_maxrss / 1024, 1)


def probe(code, *argv):
    """The JSON that ``code`` prints last in a fresh ``python -S``."""
    child = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                           check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(child.stdout.splitlines()[-1])


def clear_memos():
    from noncross import closedform, decomp
    for cached in (decomp.full_table, decomp.product_table,
                   decomp._matchings, decomp._joined, closedform.zeta_forms,
                   closedform.zeta_rows):
        cached.cache_clear()


def forget_chi():
    """Empty chi*: ``characteristic_polynomial`` and the cache of its
    y-vectors (``decomp.chi_vector``)."""
    from noncross import decomp, ncposet
    ncposet.characteristic_polynomial.cache_clear()
    decomp.chi_vector.cache_clear()


def forget_walks():
    from noncross import closedform, decomp, ncposet
    for cached in (ncposet.enumerate_nc, closedform._mobius_number,
                   decomp.census_table, decomp.full_table):
        cached.cache_clear()
    for poset in ncposet._WALKED.values():
        poset._censuses.clear()
    ncposet._WALKED.clear()
    forget_chi()
    clear_memos()


def nc_stages(rec):
    import tracemalloc
    from noncross import decomp, direct, ncposet, verify
    from noncross.rootsystem import build_root_system, subdiagram_types
    from noncross.typelabel import label

    for name in ("E8", "E7", "D8"):
        rec.time("walk_classify_%s_s" % name,
                 lambda: ncposet.enumerate_nc.__wrapped__(name))
    poset = ncposet.enumerate_nc("E8")
    moved = [(mask, [a for a in range(mask.bit_length()) if mask >> a & 1])
             for mask in poset.types]
    partners, linked = ncposet._root_tables("E8")

    def classify_all():
        return [ncposet.classify_simple_roots(
            linked, [k for k in bits if not partners[k] & mask])
            for mask, bits in moved]
    rec.time("classify_NC_E8_s", classify_all)

    # the distinct arguments of the classifier in one uncached E8 walk
    original, edge_sets = ncposet._classify_edges, {}

    def record(k, edges):
        edge_sets[k, edges] = None
        return original(k, edges)

    ncposet._classify_edges = record
    try:
        ncposet.enumerate_nc.__wrapped__("E8")
    finally:
        ncposet._classify_edges = original
    rec.time("classify_cold_E8_s",
             lambda: [original(k, edges) for k, edges in edge_sets],
             before=original.cache_clear)
    rec.value("classify_cold_E8_sets", lambda: len(edge_sets))
    rec.time("subdiagram_types_E8_s",
             lambda: subdiagram_types.__wrapped__("E8"))
    rec.time("pair_census_E8_s", poset.pair_census)
    below = [typ for typ in poset.type_counts()
             if typ.is_irreducible and typ.rank < 8]
    rec.time("interval_census_E8_s",
             lambda: [poset._scan(poset.records_of(typ)[0][0])
                      for typ in below])
    lower_de = [typ for typ in below if typ.components[0][0] != "A"]
    rec.time("lower_censuses_E8_s",
             lambda: [poset.census(typ) for typ in lower_de],
             before=lambda: poset._censuses.clear())

    def forget_censuses():
        forget_chi()
        poset._censuses.clear()
        for typ in lower_de:
            ncposet.census(typ)

    # as in ``verify e8``, NC(E8) is the only poset walked
    ncposet._WALKED.clear()
    ncposet._WALKED[label("E8")] = poset
    rec.time("chi_star_below_E8_s",
             lambda: [ncposet.characteristic_polynomial(typ)
                      for typ in below],
             before=forget_censuses)

    def brute_force_table(name):
        allowed = subdiagram_types(name)
        return {key: decomp.count_bruteforce(name, key)
                for key in decomp.all_tuples_of_rank(label(name).rank)
                if all(typ in allowed for typ in key)}

    d7 = ncposet.enumerate_nc("D7")
    rec.time("full_table_D7_s", lambda: brute_force_table("D7"),
             before=lambda: d7._counts.clear())
    ncposet.enumerate_nc("D4")
    rec.time("build_ncm_D4_2_s", lambda: direct.build_ncm("D4", 2))
    rec.time("chi_D6_s",
             lambda: ncposet.characteristic_polynomial(label("D6")),
             before=forget_walks)
    for name in DE:
        build_root_system(name)

    def per_ambient(fn):
        return {name: rec.timed(lambda: fn(name)) for name in DE}

    tables = rec.value("root_system_s", lambda: per_ambient(
        build_root_system.__wrapped__), timing=True)
    rec.value("root_systems_DE_s", lambda: sum(tables.values()),
              timing=True)
    tables = rec.value("descent_table_s", lambda: per_ambient(
        ncposet._descent_masks.__wrapped__), timing=True)
    rec.value("descent_tables_DE_s", lambda: sum(tables.values()),
              timing=True)
    tables = rec.value("coxeter_permutation_s", lambda: per_ambient(
        ncposet.coxeter_root_permutation.__wrapped__), timing=True)
    rec.value("coxeter_permutations_DE_s", lambda: sum(tables.values()),
              timing=True)
    tables = rec.value("root_tables_s", lambda: per_ambient(
        ncposet._root_tables.__wrapped__), timing=True)
    rec.value("root_tables_DE_s", lambda: sum(tables.values()), timing=True)
    length = verify.SUITES["length"][0]
    rec.time("length_suite_s", lambda: all(ok for _, ok in length()))

    def held_mb():
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            held = ncposet.enumerate_nc.__wrapped__("E8")
            end = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del held
        return round((end - start) / 2 ** 20, 1)

    rec.value("poset_E8_mb", held_mb)
    rec.value("classify_calls_verify_e8",
              lambda: probe(COUNT, "verify", "e8")["classify"])
    for name in ("D6", "E7"):
        rec.value("chi_walks_" + name,
                  lambda: probe(COUNT, "chi", name)["walks"])


def census_stages(rec):
    from noncross import decomp

    table = decomp.census_table
    for name in ("D7", "E7", "E8", "D8"):
        table(name)
        rec.time("census_table_%s_s" % name, lambda: table.__wrapped__(name),
                 before=clear_memos)
    rec.time("census_table_E8_cold_s", lambda: table("E8"),
             before=forget_walks)
    for argv in COLD:
        name = "_".join(argv).replace(",", "_").replace("--", "")
        rec.time("cold_%s_s" % name, lambda: cold(argv))
        counts = probe(COUNT, *argv)
        rec.value("walks_" + name, lambda: counts["walks"])
        rec.value("root_systems_" + name, lambda: counts["root_systems"])


def linsys_stages(rec):
    from noncross import exact, linsys, triangles

    for name in LINSYS:
        rec.section = (name,)
        report = linsys.replay(name)
        rec.time("generate_equations_s",
                 lambda: linsys.generate_equations(name), before=clear_memos)
        system = linsys.generate_equations(name)
        rec.time("elimination_s", lambda: exact.echelon(system))
        ech = exact.echelon(system)
        rec.time("back_substitution_s", lambda: exact.solve(ech))
        rec.time("relations_%s_s" % name,
                 lambda: [ech.implies(coeffs, rhs)
                          for _, coeffs, rhs in linsys.relation_rows(name)])
        rec.time("replay_s", lambda: linsys.replay.__wrapped__(name),
                 before=clear_memos)

        def assemble():
            triangles.assemble_dual(name, report.final_table)

        rec.time("assemble_dual_s", assemble, before=forget_chi)
        rec.time("assemble_dual_chi_warm_s", assemble, before=assemble)
        unpinned = []

        def unpin():
            unpinned[:] = [exact.echelon(system)]

        def pin_and_solve():
            for key, value in report.pinned_values.items():
                unpinned[0].add_row({key: 1}, value, "oracle-pin")
            return exact.solve(unpinned[0])

        rec.time("pins_s", pin_and_solve, before=unpin)
        unpin()
        space = pin_and_solve()
        rec.value("rank", lambda: len(space.pivot_columns))
        rec.value("max_bits", lambda: max(
            max(abs(v.numerator).bit_length(), v.denominator.bit_length())
            for v in space.particular))


def split_call(linsys):
    """One ``generate_equations(FAMILIES)``, split at the last row of
    each family: it adds its rows family by family."""
    stamps = {}

    class Stamped(linsys.LinearSystem):
        def add_row(self, coeffs, rhs, provenance=""):
            super().add_row(coeffs, rhs, provenance)
            family = provenance.split(":", 1)[0].split("-", 1)[0]
            stamps[family] = time.perf_counter()

    original = linsys.LinearSystem
    linsys.LinearSystem = Stamped
    try:
        start = time.perf_counter()
        linsys.generate_equations(FAMILIES)
        end = time.perf_counter()
    finally:
        linsys.LinearSystem = original
    return {"forbidden_special_s": stamps["special"] - start,
            "split_s": stamps["split"] - stamps["special"],
            "zeta_s": end - stamps["split"],
            "total_s": end - start}


def family_stages(rec):
    from noncross import decomp, linsys
    from noncross.typelabel import label

    for rank in range(1, label(FAMILIES).rank):
        for typ in decomp.all_labels_of_rank(rank):
            if typ.is_irreducible:
                decomp.full_table(str(typ))
    rec.value("cold", lambda: split_call(linsys), timing=True)
    warm = []
    rec.timed(lambda: warm.append(split_call(linsys)), before=clear_memos)
    rec.value("warm", lambda: {
        stage: statistics.median(run[stage] for run in warm)
        for stage in FAMILY_STAGES}, timing=True)


def algebra_stages(rec):
    from fractions import Fraction
    from noncross import closedform, decomp, refdata, rootsystem, triangles

    tables = {name: decomp.DecompositionTable(name,
                                              refdata.reference_table(name))
              for name in refdata.REFERENCE_TABLE_NAMES}
    mts = {name: triangles.MTriangle.from_dual(name, refdata.golden_dual(name))
           for name in ("E7", "E8")}
    dual_e8 = refdata.golden_dual("E8")
    rec.time("at:E8", lambda: mts["E8"].at(3))
    rec.time("substitute:E8", lambda: mts["E8"].primal.substitute(m=3))
    rec.time("from_dual:E8",
             lambda: triangles.MTriangle.from_dual("E8", dual_e8))
    for name, mt in mts.items():
        rec.time("fm_transform:" + name, lambda: triangles.fm_transform(mt, 3))
        rec.time("f_reciprocity_checks:" + name,
                 lambda: triangles.f_reciprocity_checks(mt, 2))
        rec.time("reciprocity_check:" + name,
                 lambda: triangles.reciprocity_check(mt))
    rec.time("f_reciprocity_checks:E8@1/2",
             lambda: triangles.f_reciprocity_checks(mts["E8"], Fraction(1, 2)))
    for name in ("A7", "D7", "E7"):
        rec.time("zeta_identity_check:" + name,
                 lambda: triangles.zeta_identity_check(name, tables[name]))
    for n, name in ((7, "E7"), (8, "E8")):
        rec.time("zeta_forms:%d" % n,
                 lambda: closedform.zeta_forms.__wrapped__(n))
        closedform.zeta_forms(n)
        rec.time("zeta_rows:" + name,
                 lambda: closedform.zeta_rows.__wrapped__(name))
    for m in (2, "m"):
        rec.time("zeta_closed:E8@%s" % m,
                 lambda: closedform.zeta_closed.__wrapped__("E8", m))
    labels = [typ for rank in range(1, 9)
              for typ in decomp.all_labels_of_rank(rank)]

    def forget_vectors():
        closedform._shifted_zeta_vector.cache_clear()
        rootsystem.degrees.cache_clear()

    rec.time("shifted_zeta_vectors:all",
             lambda: [closedform._shifted_zeta_vector.__wrapped__(typ)
                      for typ in labels], before=forget_vectors)
    for names in PRODUCTS:
        factors = [tables[name] for name in names]
        keys = decomp.all_tuples_of_rank(sum(t.ambient.rank for t in factors))

        def products():
            return [decomp.count_product(factors, key) for key in keys]

        rec.time("count_product:" + "*".join(names), products,
                 before=decomp.product_table.cache_clear)
        rec.time("count_product_warm:" + "*".join(names), products)
    for name in ("E8", "E7", "A7"):
        rng = random.Random(0)
        entries = refdata.reference_table(name)
        full_rank, keys = sorted(entries), []
        for _ in range(LOOKUP_BATCH):
            key = rng.choice(full_rank)
            if len(key) > 1 and rng.random() < 0.5:
                drop = rng.randrange(len(key))
                key = key[:drop] + key[drop + 1:]
            keys.append(key)

        def batch(keys, table=None):
            table = table or decomp.DecompositionTable(name, entries)
            return [table.lookup(key) for key in keys]

        rec.time("lookup:" + name, lambda: batch(keys))
        if name == "E8":
            text = [tuple(map(str, key)) for key in keys]
            rec.time("lookup_text:E8", lambda: batch(text))
            warm = decomp.DecompositionTable(name, entries)
            batch(keys, warm)
            rec.time("lookup_warm:E8", lambda: batch(keys, warm))
    rec.probe_time("refdata_import_s", REFDATA_IMPORT)

    for name in ("E7", "E8"):
        rec.time("golden_dual_%s_s" % name,
                 lambda: refdata.golden_dual.__wrapped__(name),
                 before=refdata._factor_vector.cache_clear)
    rec.time("reference_tables_s",
             lambda: [refdata.reference_table(name)
                      for name in refdata.REFERENCE_TABLE_NAMES],
             before=refdata.reference_table.cache_clear)
    rec.probe_time("session_setup_s", SESSION_SETUP, PERFBENCH)


def loads(argv):
    modules = probe(LOADS, *argv)
    return {"noncross": [m.split(".", 1)[1] for m in modules
                         if m.startswith("noncross.")],
            "heavy": [m for m in modules if m in HEAVY]}


def compiled_nodes(argv):
    """The AST nodes of the ``noncross`` modules that a probe of ``argv``
    loads, the package itself included, read from their source files."""
    import ast
    import noncross
    home = os.path.dirname(noncross.__file__)
    total = 0
    for name in ["__init__"] + loads(argv)["noncross"]:
        with open(os.path.join(home, name + ".py")) as handle:
            total += sum(1 for _ in ast.walk(ast.parse(handle.read())))
    return total


def startup_stages(rec):
    rec.time("import_cli_s", lambda: cold(()))
    rec.value("light_s", lambda: {
        " ".join(argv): rec.timed(lambda: cold(argv)) for argv in LIGHT},
        timing=True)
    rec.value("loads", lambda: {" ".join(argv): loads(argv)
                                for argv in LIGHT})
    rec.value("compiled_nodes", lambda: {
        " ".join(argv) or "import": compiled_nodes(argv)
        for argv in ((),) + LIGHT})
    rec.value("bytecode_writing_off",
              lambda: bool(os.environ.get("PYTHONDONTWRITEBYTECODE")))
    rec.value("peak_rss_mb", lambda: {" ".join(argv) or "import": cold(argv)
                                      for argv in RSS})


GROUPS = {"nc": nc_stages, "census": census_stages, "linsys": linsys_stages,
          "families": family_stages, "algebra": algebra_stages,
          "startup": startup_stages}


def child(label, group, repeats):
    """Run one group in this process and print its results as JSON."""
    rec = Stages(label, int(repeats))
    GROUPS[group](rec)
    print(json.dumps({"out": rec.out, "timings": rec.timings}))


def run_child(label, src, group, repeats):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", CHILD, HERE, label, group,
                          str(repeats)], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def combine(samples, timings, path=()):
    """The report of the key at ``path`` from ``samples``, its value per
    tree and round: a timing's median per tree and its ``wins``, another
    value's first round; dicts key by key."""
    firsts = [runs[0] for runs in samples.values()]
    timed = any(path[:i] in timings for i in range(1, len(path) + 1))
    if not timed and not any(key[:len(path)] == path for key in timings):
        return dict(zip(samples, firsts))
    if any(isinstance(value, dict) for value in firsts):
        keys = dict.fromkeys(key for value in firsts
                             if isinstance(value, dict) for key in value)
        return {key: combine({label: [(run or {}).get(key) for run in runs]
                              for label, runs in samples.items()},
                             timings, path + (key,))
                for key in keys}
    out = {label: None if None in runs else round(statistics.median(runs), 6)
           for label, runs in samples.items()}
    if len(samples) > 1:
        out["wins"] = wins = dict.fromkeys(samples, 0)
        for values in zip(*samples.values()):
            if None not in values and values.count(min(values)) == 1:
                wins[list(samples)[values.index(min(values))]] += 1
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="GROUP|LABEL=SRC")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_intermixed_args()
    trees = dict(name.split("=", 1) for name in args.names if "=" in name)
    groups = [name for name in args.names if "=" not in name] or list(GROUPS)
    for group in groups:
        if group not in GROUPS:
            parser.error("unknown group %r (one of %s)"
                         % (group, ", ".join(GROUPS)))
    if min(args.rounds, args.repeats) < 1:
        parser.error("--rounds and --repeats must be at least 1")
    trees = trees or {"this": SRC}
    order = list(trees.items())
    runs = {group: {label: [] for label in trees} for group in groups}
    timings = {group: set() for group in groups}
    for round_ in range(args.rounds):
        for group in groups:
            for label, src in order if round_ % 2 == 0 else order[::-1]:
                result = run_child(label, src, group, args.repeats)
                runs[group][label].append(result["out"])
                timings[group].update(map(tuple, result["timings"]))
    report = {"rounds": args.rounds, "repeats": args.repeats, "trees": trees}
    for group, samples in runs.items():
        report[group] = combine(samples, timings[group])
    print(json.dumps(report, indent=1), flush=True)


if __name__ == "__main__":
    main()
