"""The noncross benchmark: one workload per run, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

* e8_pipeline      one cold ``noncross verify e8 --format json`` process;
* query_mix        a seeded list of cold CLI calls over A1-A8, D4-D7, E6,
                   E7, all sharing one fresh ``--cache-dir``;
* algebra_session  one warm library process running a seeded stream of
                   M/F-triangle, product-rule and lookup calls.

At most one child process runs at a time.  Every op's answer is checked
after the timed part; a wrong answer or a failed op makes the run
incorrect (exit code 1).  ``--trace 0`` prints the end-to-end metrics,
with every time host-normalized by probe samples taken in the processes
that do the work (probe.py); ``--trace 1`` runs the same ops with every layer wrapped and prints the
per-layer metrics derived from the spans.  Human-readable lines come
first; the last line of stdout is the JSON result.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import probe as probing  # noqa: E402
import tracer as tracing  # noqa: E402

clock = tracing.clock

WORK_DIR = ".perfbench_run"
RUN_LIMIT_S = 170.0          # a run must end within 180 s
SETUP_REPEATS = 5
CHILD = os.path.join(HERE, "cli_child.py")
NEAREST = 3                  # fewest probe samples that scale a timed span

# nominal durations on the reference host, used only to size a run from
# --seconds; the amount of work never depends on how fast the host is
QUERY_BLOCK_S = 20.0
SESSION_BLOCK_S = 1.5

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"))

PER_LAYER = (
    ("weyl.int_kernel.calls", "count"),
    ("weyl.int_kernel.time_s", "s"),
    ("ncposet.enumerate_nc.self_s", "s"),
    ("ncposet.elements", "count"),
    ("ncposet.elements_per_s", "1/s"),
    ("ncposet.characteristic_polynomial.time_s", "s"),
    ("ncposet.read_cache.calls", "count"),
    ("ncposet.read_cache.time_s", "s"),
    ("ncposet.write_cache.calls", "count"),
    ("ncposet.write_cache.time_s", "s"),
    ("cli.startup_s", "s"),
    ("decomp.full_table.time_s", "s"),
    ("decomp.count_bruteforce.calls", "count"),
    ("decomp.count_bruteforce.time_s", "s"),
    ("decomp.count_typeA.calls", "count"),
    ("decomp.count_product.calls", "count"),
    ("decomp.count_product.self_s", "s"),
    ("linsys.generate_equations.self_s", "s"),
    ("linsys.rows.forbidden", "count"),
    ("linsys.rows.special", "count"),
    ("linsys.rows.split", "count"),
    ("linsys.rows.zeta", "count"),
    ("linsys.variables", "count"),
    ("linsys.replay.time_s", "s"),
    ("linsys.dimension", "count"),
    ("exact.solve.calls", "count"),
    ("exact.solve.time_s", "s"),
    ("exact.solve.rank", "count"),
    ("exact.solve.max_bits", "bits"),
    ("triangles.assemble_dual.time_s", "s"),
    ("triangles.fm_transform.calls", "count"),
    ("triangles.fm_transform.time_s", "s"),
    ("triangles.f_reciprocity_checks.time_s", "s"),
    ("triangles.zeta_identity_check.time_s", "s"),
    ("trace.overhead_s", "s"),
)


class Run:
    """Everything one run measured."""

    def __init__(self, workload, seed, trace, root):
        self.workload, self.seed, self.trace, self.root = (
            workload, seed, trace, root)
        self.dir = os.path.join(root, WORK_DIR, "%s-%d" % (workload, seed))
        self.deadline = clock() + RUN_LIMIT_S
        self.blocks = 1          # planned blocks of ops, sized from --seconds
        self.setup = []          # (start, end) per set-up repetition
        self.ops = []            # dicts: argv, start, end, rc or error, ...
        self.samples = []        # probe samples [start, seconds], all processes
        self.rss_kb = 0
        self.span_sets = []      # one span dump per traced process
        env = {k: v for k, v in os.environ.items()
               if k not in ("NONCROSS_CACHE_DIR", "PYTHONPATH")}
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env

    def path(self, name):
        return os.path.join(self.dir, name)

    def timeout(self):
        left = self.deadline - clock()
        if left <= 0:
            raise RuntimeError("run exceeded %d s" % RUN_LIMIT_S)
        return left


def spawn(run, cmd, stdout, stderr=None):
    """Start a child with the checkout's sources on its path."""
    return subprocess.Popen(cmd, stdout=stdout, stderr=stderr or subprocess.DEVNULL,
                            env=run.env, cwd=run.root)


@contextlib.contextmanager
def watched(run, proc):
    """Kill the child at the run deadline, or when the body fails."""
    timer = threading.Timer(run.timeout(), proc.kill)
    timer.start()
    try:
        yield
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()


def reap(proc):
    """Wait for a child; returns (exit code, max RSS in KiB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def cold_op(run, argv):
    """One CLI call in a fresh process, timed from spawn to exit."""
    index = len(run.ops)
    out_path, side = run.path("op%d.out" % index), run.path("op%d.side" % index)
    with open(out_path, "w") as out, open(run.path("op%d.err" % index), "w") as err:
        start, end, rc, rss = child(run, "trace" if run.trace else "probe",
                                    side, argv, out, err)
    with open(out_path) as handle:
        stdout = handle.read()
    run.ops.append({"argv": argv, "start": start, "end": end,
                    "rss_kb": rss, "rc": rc, "stdout": stdout})
    run.rss_kb = max(run.rss_kb, rss)
    if os.path.exists(side):
        with open(side) as handle:
            if run.trace:
                run.span_sets.append(json.load(handle))
            else:
                run.samples.extend(json.load(handle))


def child(run, mode, side, argv, out, err=None):
    """Run cli_child.py to its end; returns start, end, exit code and
    max RSS in KiB."""
    start = clock()
    proc = spawn(run, [sys.executable, CHILD, mode, repr(start), side] + argv,
                 out, err)
    with watched(run, proc):
        rc, rss = reap(proc)
    return start, clock(), rc, rss


def cold_setup(run, with_cache):
    """Interpreter and import probe (plus a fresh cache directory)."""
    side = run.path("setup.samples")
    for _ in range(SETUP_REPEATS):
        start = clock()
        if with_cache:
            cache = run.path("cache")
            shutil.rmtree(cache, ignore_errors=True)
            os.makedirs(cache)
        _, end, rc, _ = child(run, "probe", side, [], subprocess.DEVNULL)
        if rc != 0:
            raise SystemExit("noncross does not import from %s/src"
                             % run.root)
        run.setup.append((start, end))
        with open(side) as handle:
            run.samples.extend(json.load(handle))


# ---------------------------------------------------------------------------
# workloads


def e8_pipeline(run, seconds):
    cold_setup(run, with_cache=False)
    cold_op(run, ["verify", "e8", "--format", "json"])


SMALL = ("A1", "A2", "A3", "A4", "A5", "D4", "D5")
TABLE_AMBIENTS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "D4", "D5")
ALL_AMBIENTS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
                "D4", "D5", "D6", "D7", "E6", "E7")
CACHE_AMBIENTS = ("A3", "A4", "A5", "D4", "D5")
LIGHT = ("rootsys", "decomp count", "decomp table", "chi", "zeta",
         "mtriangle", "ftriangle")


def random_label(rng, family, rank):
    """A type label of the given rank with components the ambient
    family can contain, such as 'A1*A1*A2' or 'D4*A1'."""
    parts, left = [], rank
    while left:
        size = rng.randint(1, min(left, 3 if rng.random() < 0.8 else left))
        if family != "A" and size >= 4 and rng.random() < 0.5:
            parts.append("D%d" % size)
        else:
            parts.append("A%d" % size)
        left -= size
    return "*".join(parts)


def random_tuple(rng, ambient):
    """A factor tuple for ``decomp count``: mostly full rank, sometimes
    rank-deficient."""
    n = int(ambient[1:])
    total = n if n == 1 or rng.random() < 0.75 else rng.randint(1, n - 1)
    sizes, left = [], total
    while left:
        size = rng.randint(1, min(left, 4))
        sizes.append(size)
        left -= size
    return ",".join(random_label(rng, ambient[0], s) for s in sizes)


def small_label(rng):
    """An irreducible or two-component label with cheap chi*."""
    if rng.random() < 0.5:
        return rng.choice(SMALL)
    return "%s*%s" % (rng.choice(SMALL[:4]), rng.choice(SMALL))


def light_call(rng, command):
    m = str(rng.randint(1, 3))
    if command == "rootsys":
        argv = ["rootsys", "info", rng.choice(ALL_AMBIENTS), "--format", "json"]
    elif command == "decomp count":
        ambient = rng.choice(TABLE_AMBIENTS)
        argv = ["decomp", "count", ambient, random_tuple(rng, ambient)]
    elif command == "decomp table":
        argv = ["decomp", "table", rng.choice(TABLE_AMBIENTS), "--format", "json"]
        if rng.random() < 0.5:
            argv.append("--full-rank-only")
    elif command == "chi":
        argv = ["chi", small_label(rng)]
    elif command == "zeta":
        argv = ["zeta", rng.choice(ALL_AMBIENTS), "--m", m]
    elif command == "mtriangle":
        argv = ["mtriangle", rng.choice(SMALL), "--m", m]
        argv += rng.choice(([], ["--dual"], ["--symbolic"]))
    else:
        argv = ["ftriangle", rng.choice(SMALL), "--m", m, "--format", "json"]
    return argv


def query_plan(rng, blocks, cache):
    """Per block: one E7 call (7-10 s), one D7 call (~3.5 s), one E6 and
    one D6/A6 call (~1 s), three ambients enumerated twice each (the
    second call reads the cache written by the first) and eight light
    calls, one per command plus one more.  The mix is fixed per block so
    the work per run hardly depends on the seed."""
    calls = []
    for _ in range(blocks):
        m = str(rng.randint(1, 4))
        calls += [
            rng.choice((["decomp", "count", "E7", random_tuple(rng, "E7")],
                        ["mtriangle", "E7", "--m", m])),
            ["decomp", "count", "D7", random_tuple(rng, "D7")],
            rng.choice((["decomp", "count", "E6", random_tuple(rng, "E6")],
                        ["decomp", "table", "E6", "--format", "json"],
                        ["mtriangle", "E6", "--m", m],
                        ["ftriangle", "E6", "--m", m, "--format", "json"])),
            rng.choice((["decomp", "count", "D6", random_tuple(rng, "D6")],
                        ["chi", rng.choice(("A6", "D6"))],
                        ["nc", "enumerate", rng.choice(("A6", "D6")),
                         "--format", "json"]))]
        for ambient in rng.sample(CACHE_AMBIENTS, 3):
            calls += [["nc", "enumerate", ambient, "--format", "json"]] * 2
        calls += [light_call(rng, command)
                  for command in LIGHT + (rng.choice(LIGHT),)]
    rng.shuffle(calls)
    return [argv + ["--cache-dir", cache] for argv in calls]


def query_mix(run, seconds):
    rng = random.Random(run.seed)
    cache = run.path("cache")
    run.blocks = max(1, round(seconds / QUERY_BLOCK_S))
    plan = query_plan(rng, run.blocks, cache)
    cold_setup(run, with_cache=True)
    for argv in plan:
        cold_op(run, argv)


def algebra_session(run, seconds):
    blocks = run.blocks = max(1, round(seconds / SESSION_BLOCK_S))
    spans = run.path("session.spans") if run.trace else "-"
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        start = clock()
        cmd = [sys.executable, os.path.join(HERE, "session.py"), str(run.seed),
               str(blocks), spans, repr(start), "run" if last else "setup"]
        with open(run.path("session.err"), "w") as err:
            proc = spawn(run, cmd, subprocess.PIPE, err)
            with watched(run, proc):
                ready = proc.stdout.readline()
                run.setup.append((start, clock()))
                rest = proc.stdout.read()
                proc.stdout.close()
                rc, rss = reap(proc)
        if ready.strip() != b"READY" or rc != 0:
            raise SystemExit("algebra session failed (exit %s), see %s"
                             % (rc, run.path("session.err")))
        report = json.loads(rest.decode().strip().splitlines()[-1])
        run.samples.extend(report["samples"])
    run.rss_kb = rss
    for op in report["ops"]:
        op["argv"] = [op["kind"], op["ambient"]]
        run.ops.append(op)
    if run.trace:
        with open(spans) as handle:
            run.span_sets.append(json.load(handle))


WORKLOADS = {"e8_pipeline": e8_pipeline, "query_mix": query_mix,
             "algebra_session": algebra_session}


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def timed(run, start, end):
    """Host-normalized seconds of one timed span (see probe.py)."""
    return probing.normalized(run.samples, start, end, NEAREST)


def end_to_end(run):
    latencies = [timed(run, op["start"], op["end"]) * 1000.0 for op in run.ops]
    return {
        "wall_s": sum(latencies) / 1000.0,
        "setup_s": statistics.median(timed(run, *span) for span in run.setup),
        "peak_rss_mb": run.rss_kb / 1024.0,
        "op_p50_ms": nearest_rank(latencies, 50),
        "op_p90_ms": nearest_rank(latencies, 90),
    }


def span_totals(span_sets):
    """Per span name: calls, time (outermost spans only, so recursion is
    not counted twice) and self time (duration minus direct children)."""
    calls, time_s, self_s = {}, {}, {}
    for dump in span_sets:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                time_s[name] = time_s.get(name, 0.0) + (end - start)
    return calls, time_s, self_s


def per_layer(run, cost_per_span):
    calls, time_s, self_s = span_totals(run.span_sets)
    counts, maxima = {}, {}
    for dump in run.span_sets:
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in dump["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), value)
    metrics = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = calls.get(base, 0)
        elif field == "self_s":
            metrics[name] = self_s.get(base, 0.0)
        elif field == "time_s":
            metrics[name] = time_s.get(base, 0.0)
        else:
            metrics[name] = counts.get(name, maxima.get(name, 0))
    enumerate_s = time_s.get("ncposet.enumerate_nc", 0.0)
    metrics["ncposet.elements_per_s"] = (
        metrics["ncposet.elements"] / enumerate_s if enumerate_s else 0.0)
    metrics["cli.startup_s"] = time_s.get("cli.startup", 0.0)
    spans = sum(len(dump["spans"]) for dump in run.span_sets)
    metrics["trace.overhead_s"] = spans * cost_per_span
    return metrics


def source_fingerprint(root):
    """Hash of the package's sources and the benchmark's own code."""
    digest = hashlib.sha256()
    for folder in (os.path.join(root, "src", "noncross"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(os.path.basename(folder).encode() + b"/"
                                  + name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def counts_repeat(run, metrics, store):
    """Compare this run's exact counts with an earlier traced run of the
    same workload, seed, number of blocks and sources; returns the names
    that differ.  With no earlier run the counts are recorded, but only
    when ``store`` says the run is otherwise correct."""
    path = os.path.join(run.root, WORK_DIR, "counts.json")
    key = "%s:%d:%d:%s" % (run.workload, run.seed, run.blocks,
                           source_fingerprint(run.root))
    mine = {name: metrics[name] for name, unit in PER_LAYER
            if unit in ("count", "bits")}
    known = {}
    if os.path.exists(path):
        with open(path) as handle:
            known = json.load(handle)
    if key in known:
        return sorted(name for name in mine if known[key].get(name) != mine[name])
    if not store:
        return []
    known[key] = mine
    with open(path, "w") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    return []


# ---------------------------------------------------------------------------


def summary(run, metrics, units, errors, failed):
    n = len(run.ops)
    lines = ["workload %s  seed %d  trace %d  ops %d (closed loop, one client)"
             % (run.workload, run.seed, run.trace, n)]
    notes = {}
    if not run.trace:
        raw = sum(op["end"] - op["start"] for op in run.ops)
        probes = [s for _, s in run.samples]
        lines.append("  times are host-normalized: mean probe %.2f ms over "
                     "%d samples, nominal %.2f ms (see probe.py)"
                     % (statistics.mean(probes) * 1e3, len(probes),
                        probing.NOMINAL_S * 1e3))
        notes = {
            "wall_s": "sum of %d op times (%.3f s as measured)" % (n, raw),
            "setup_s": "median of %d set-ups %s" % (len(run.setup), ", ".join(
                "%.3f" % timed(run, *span) for span in run.setup)),
            "peak_rss_mb": "max RSS of the op process(es)",
            "op_p50_ms": "n=%d" % n,
            "op_p90_ms": "n=%d, %d ops beyond" % (n, n - -(-n * 9 // 10)),
        }
    for name, value in metrics.items():
        lines.append("  %-42s %14.4f %-5s %s" % (name, value, units[name],
                                                notes.get(name, "")))
    lines.append("  %-42s %14.4f %-5s wrong or failed ops / ops attempted = %d/%d"
                 % ("error_rate", failed / n, "1", failed, n))
    for index, why in errors[:10]:
        where = "run" if index is None else "op %d %s" % (
            index, " ".join(run.ops[index]["argv"]))
        lines.append("  %s: %s" % (where, why))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "noncross", "__init__.py")):
        print("error: run from a noncross checkout (no src/noncross here)",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.trace, root)
    shutil.rmtree(run.dir, ignore_errors=True)
    os.makedirs(run.dir)
    WORKLOADS[args.workload](run, args.seconds)

    sys.path.insert(0, os.path.join(root, "src"))
    errors = []
    for index, op in enumerate(run.ops):
        why = op["error"] if "error" in op else checks.check(op)
        if why is not None:
            errors.append((index, why))

    if args.trace:
        metrics = per_layer(run, tracing.span_cost())
        units = dict(PER_LAYER)
        drift = counts_repeat(run, metrics, store=not errors)
        if drift:
            errors.append((None, "counts differ from an earlier run of this "
                              "seed: %s" % ", ".join(drift)))
        with open(run.path("spans.json"), "w") as handle:
            json.dump(run.span_sets, handle)
    else:
        metrics = end_to_end(run)
        units = dict(END_TO_END)
    with open(run.path("ops.json"), "w") as handle:
        json.dump({"setup": run.setup, "samples": run.samples, "ops": [
            {key: value for key, value in op.items() if key != "stdout"}
            for op in run.ops]}, handle, indent=1)
    failed = len({index for index, _ in errors if index is not None})
    print(summary(run, metrics, units, errors, failed))
    correct = not errors
    print(json.dumps({
        "correct": correct, "attempted": len(run.ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
