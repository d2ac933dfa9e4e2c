"""The warm library session of the algebra_session workload.

Usage: python perfbench/session.py SEED BLOCKS SPANS_FILE SPAWN_TIME setup|run

Set-up builds decomposition tables from the published reference data
and the E7/E8 M-triangles from their published dual polynomials, plans
the seeded op list, then prints READY.  In ``setup`` mode the process
stops there (run.py repeats set-up to take its median).  In ``run`` mode
it goes on with a seeded closed-loop
stream of library calls, one at a time, checks every result against an
exact identity after the timed part, and prints one JSON line with the
per-op start and end times, the verdicts and the probe samples.  A probe
sampler (probe.py) runs from the start of the process; a traced run
stops it before its ops.  SPANS_FILE is "-" for an untraced run.

Nothing here enumerates a poset or solves a linear system.
"""

import functools
import json
import random
import sys

import probe as probing
import tracer as tracing

clock = tracing.clock

# reducible ambients for the product rule, as factor pairs
PRODUCTS = (("E7", "A1"), ("D4", "D4"), ("E6", "A2"), ("D5", "A3"))
ZETA_AMBIENTS = ("A7", "D7", "E7")
LOOKUP_AMBIENTS = ("E8", "E7", "E6", "D7", "D6", "A7")
LOOKUP_BATCH = 4000


def set_up():
    from noncross import decomp, refdata, triangles
    tables = {name: decomp.DecompositionTable(name, refdata.reference_table(name))
              for name in refdata.REFERENCE_TABLE_NAMES}
    mts = {name: triangles.MTriangle.from_dual(name, refdata.golden_dual(name))
           for name in ("E7", "E8")}
    return tables, mts


def plan(seed, blocks, tables):
    """The seeded op list.  Every block holds the same 20 ops, and the m
    values and ambients walk fixed cycles from a seeded phase, so the
    work per run hardly depends on the seed; the seed picks the phase,
    the keys and the order.  The mix puts the median op inside the
    cluster of product and lookup batches and the p90 op inside the
    cluster of zeta-identity and F-reciprocity checks, not on an edge
    between clusters, where a small change of speed would swap op kinds."""
    from noncross.decomp import all_tuples_of_rank
    rng = random.Random(seed)
    # a count_product batch is the pair's whole key universe in a seeded
    # order: per-key costs differ by a factor of 300, so a part of the
    # universe would make the cost of a batch depend on the seed
    universes = {pair: all_tuples_of_rank(sum(int(name[1:]) for name in pair))
                 for pair in PRODUCTS}
    full_rank = {name: sorted(tables[name].entries) for name in LOOKUP_AMBIENTS}
    ops = []
    for block in range(blocks):
        phase = seed + 2 * block
        mine = []
        for ambient in ("E7", "E8"):
            mine += [("fm_transform", ambient, 1 + phase % 6),
                     ("fm_transform", ambient, 1 + (phase + 1) % 6),
                     ("f_reciprocity_checks", ambient, 1 + (seed + block) % 3),
                     ("reciprocity_check", ambient, None)]
        for i in range(2):
            ambient = LOOKUP_AMBIENTS[(phase + i) % len(LOOKUP_AMBIENTS)]
            mine += [("zeta_identity_check",
                      ZETA_AMBIENTS[(phase + i) % len(ZETA_AMBIENTS)], None),
                     ("lookup", ambient, lookup_keys(rng, full_rank[ambient]))]
        for pair in PRODUCTS * 2:
            keys = universes[pair]
            mine.append(("count_product", pair, rng.sample(keys, len(keys))))
        rng.shuffle(mine)
        ops.extend(mine)
    return ops


def lookup_keys(rng, full_rank):
    """Full-rank keys with a value and rank-deficient keys made by
    dropping one factor, half and half."""
    keys = []
    for _ in range(LOOKUP_BATCH):
        key = rng.choice(full_rank)
        if len(key) > 1 and rng.random() < 0.5:
            drop = rng.randrange(len(key))
            key = key[:drop] + key[drop + 1:]
        keys.append(key)
    return keys


def run_op(op, tables, mts):
    from noncross import decomp, triangles
    kind, ambient, arg = op
    if kind == "fm_transform":
        return triangles.fm_transform(mts[ambient], arg)
    if kind == "f_reciprocity_checks":
        return triangles.f_reciprocity_checks(mts[ambient], arg)
    if kind == "reciprocity_check":
        return triangles.reciprocity_check(mts[ambient])
    if kind == "zeta_identity_check":
        return triangles.zeta_identity_check(ambient, tables[ambient])
    if kind == "count_product":
        factors = [tables[name] for name in ambient]
        return [decomp.count_product(factors, key) for key in arg]
    return [tables[ambient].lookup(key) for key in arg]


@functools.lru_cache(maxsize=None)
def deficient_sum(ambient, key):
    """N(key) for a rank-deficient key, straight from the published
    entries: the sum of the entries that are key plus one factor."""
    from noncross import refdata
    entries = refdata.reference_table(ambient)
    total = 0
    for full, value in entries.items():
        if len(full) != len(key) + 1:
            continue
        rest = list(full)
        for t in key:
            if t not in rest:
                break
            rest.remove(t)
        else:
            total += value
    return total


def verdict(op, result, tables, plain_count_product):
    """None when the result satisfies its exact identity, else why not."""
    kind, ambient, arg = op
    if kind == "fm_transform":
        problems = result.problems()
        return "; ".join(problems) if problems else None
    if kind == "f_reciprocity_checks":
        return "; ".join(result) if result else None
    if kind in ("reciprocity_check", "zeta_identity_check"):
        return "nonzero difference %s" % result if result.terms else None
    if kind == "count_product":
        swapped = [tables[name] for name in reversed(ambient)]
        for key, value in zip(arg, result):
            other = plain_count_product(swapped, key)
            if value != other or not isinstance(value, int) or value < 0:
                return "%s: %s in one factor order, %s in the other" % (
                    ",".join(map(str, key)), value, other)
        return None
    entries = tables[ambient].entries
    n = tables[ambient].ambient.rank
    for key, value in zip(arg, result):
        full = sum(t.rank for t in key) == n
        expected = entries.get(key, 0) if full else deficient_sum(ambient, key)
        if value != expected:
            return "%s: %s != %s" % (",".join(map(str, key)), value, expected)
    return None


def main():
    seed, blocks, spans_file = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
    spawned, mode = float(sys.argv[4]), sys.argv[5]
    sampler = probing.Sampler()
    sampler.start()
    from noncross.decomp import count_product as plain_count_product
    imported = clock()
    tables, mts = set_up()
    ops = plan(seed, blocks, tables)
    print("READY", flush=True)
    tracer = None
    if mode == "setup" or spans_file != "-":
        sampler.stop()
    if mode == "setup":
        print(json.dumps({"samples": sampler.samples}))
        return 0
    if spans_file != "-":
        tracer = tracing.Tracer()
        tracer.record("cli.startup", spawned, imported)
        tracing.install(tracer)
    results, spans = [], []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
            span = tracer.begin("op")
        t0 = clock()
        results.append(run_op(op, tables, mts))
        spans.append((t0, clock()))
        if tracer is not None:
            tracer.end(span)
    if tracer is not None:
        tracer.dump(spans_file)
    else:
        sampler.stop()
    report = [{"kind": op[0], "ambient": "*".join(op[1]) if isinstance(
                   op[1], tuple) else op[1],
               "start": start, "end": end,
               "error": verdict(op, result, tables, plain_count_product)}
              for op, result, (start, end) in zip(ops, results, spans)]
    print(json.dumps({"samples": sampler.samples, "ops": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
