"""Run one noncross command, probed or traced.

Usage: python perfbench/cli_child.py probe|trace SPAWN_TIME OUT_FILE [ARG...]

``probe`` (untraced runs): a probe ``Sampler`` starts before
``import noncross`` and stops after the command, and its samples go to
OUT_FILE.  ``trace``: every layer is wrapped after import and the spans
go to OUT_FILE; SPAWN_TIME is the parent's perf_counter reading just
before it started this process (the clock is system-wide), so the first
span covers interpreter start and import.  Either way the command runs
through ``noncross.cli.main`` exactly as the ``noncross`` entry point
runs it.  With no ARG the process only imports ``noncross.cli``: the
set-up probe of the cold workloads.
"""

import sys

import probe as probing
import tracer as tracing


def run(argv):
    from noncross import cli
    if not argv:
        return 0
    try:
        return cli.main(argv)
    except SystemExit as err:
        code = 0 if err.code is None else err.code
        if not isinstance(code, int):
            print(code, file=sys.stderr)
            code = 1
        return code


def main():
    mode, spawned, out_file, argv = (sys.argv[1], float(sys.argv[2]),
                                     sys.argv[3], sys.argv[4:])
    if mode == "probe":
        sampler = probing.Sampler()
        sampler.start()
        try:
            return run(argv)
        finally:
            sampler.stop()
            sampler.dump(out_file)
    import noncross.cli  # noqa: F401  (start-up ends here)
    tracer = tracing.Tracer()
    tracer.record("cli.startup", spawned, tracing.clock())
    tracing.install(tracer)
    try:
        return run(argv)
    finally:
        tracer.dump(out_file)


if __name__ == "__main__":
    sys.exit(main())
