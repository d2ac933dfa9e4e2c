"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 resource-guard refusal.

Importing this module loads only ``typelabel`` of the package: each
command imports the layers it runs inside its function, so a cold call
compiles and imports only those.  Layer functions are called through
their modules or imported at call time, so that a wrapper installed on
a module attribute sees the call.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .typelabel import ResourceGuardError, label


def _parse_label(text):
    try:
        return label(text)
    except ValueError as err:
        raise SystemExit(_fail_input("bad type label %r: %s" % (text, err)))


def _parse_tuple(text):
    """A comma-separated tuple of labels; ``-`` is the empty tuple and
    ``0`` the empty type, but a blank factor is refused."""
    from .decomp import canonical_tuple
    if text == "-":
        return canonical_tuple(())
    tokens = text.split(",")
    for tok in tokens:
        if not tok.strip():
            raise SystemExit(_fail_input("bad type label %r: empty factor in %r"
                                         % (tok, text)))
    return canonical_tuple(tuple(_parse_label(tok) for tok in tokens))


def _fail_input(message):
    print("error: %s" % message, file=sys.stderr)
    return 2


def _emit(payload, fmt):
    """Render a report dict deterministically in the chosen format."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    elif fmt == "csv":
        import csv
        out = io.StringIO()
        writer = csv.writer(out)
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, dict):
                for sub in sorted(value, key=str):
                    writer.writerow([key, sub, value[sub]])
            elif isinstance(value, (list, tuple)):
                for item in value:
                    writer.writerow([key, item])
            else:
                writer.writerow([key, value])
        sys.stdout.write(out.getvalue())
    else:
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, dict):
                print("%s:" % key)
                for sub in sorted(value, key=str):
                    print("  %s = %s" % (sub, value[sub]))
            elif isinstance(value, (list, tuple)):
                print("%s:" % key)
                for item in value:
                    print("  %s" % (item,))
            else:
                print("%s: %s" % (key, value))


def _require_ambient(name):
    from .rootsystem import SUPPORTED_AMBIENTS
    if name not in SUPPORTED_AMBIENTS:
        raise SystemExit(_fail_input(
            "unsupported ambient %r (choose from %s)"
            % (name, ", ".join(SUPPORTED_AMBIENTS))))
    return name


# ---------------------------------------------------------------------------
# commands


def cmd_rootsys(args):
    from .rootsystem import build_root_system, degrees
    name = _require_ambient(args.label)
    rs = build_root_system(name)
    _emit({
        "ambient": name,
        "rank": rs.n,
        "coxeter_number": rs.coxeter_number,
        "group_order": rs.group_order,
        "positive_roots": rs.num_positive_roots,
        "degrees": list(degrees(name)),
    }, args.format)
    return 0


def cmd_nc(args):
    from .ncposet import enumerate_nc
    name = _require_ambient(args.label)
    poset = enumerate_nc(name)
    by_type = {str(t): len(els) for t, els in poset.by_type.items()}
    _emit({
        "ambient": name,
        "elements": len(poset),
        "rank_sizes": poset.rank_sizes(),
        "type_counts": by_type,
    }, args.format)
    return 0


def cmd_decomp_count(args):
    from .decomp import full_table
    name = _require_ambient(args.ambient)
    key = _parse_tuple(args.tuple)
    table = full_table(name)
    print(table.lookup(key))
    return 0


def cmd_decomp_table(args):
    from .decomp import all_tuples_of_rank, full_table
    name = _require_ambient(args.ambient)
    table = full_table(name)
    n = label(name).rank
    entries = {}
    ranks = (n,) if args.full_rank_only else tuple(range(1, n + 1))
    for s in ranks:
        for key in all_tuples_of_rank(s):
            value = table.lookup(key)
            if value:
                entries[",".join(map(str, key))] = value
    _emit({"ambient": name, "provenance": table.provenance,
           "entries": entries}, args.format)
    return 0


def cmd_chi(args):
    from .ncposet import characteristic_polynomial
    t = _parse_label(args.label)
    print(characteristic_polynomial(t))
    return 0


def cmd_zeta(args):
    from .ncposet import zeta_closed
    t = _parse_label(args.label)
    m = "m" if args.symbolic else args.m
    print(zeta_closed(t, m=m))
    return 0


def _assembled(name):
    from .decomp import full_table
    from .triangles import assemble_dual
    name = _require_ambient(name)
    return assemble_dual(name, full_table(name))


def cmd_mtriangle(args):
    mt = _assembled(args.label)
    source = mt.dual if args.dual else mt.primal
    if not args.symbolic:
        source = source.substitute(m=args.m)
    print(source)
    return 0


def cmd_ftriangle(args):
    from .triangles import fm_transform
    # F=M is stated for m >= 1
    if args.m < 1:
        return _fail_input("ftriangle needs --m >= 1, got %d" % args.m)
    mt = _assembled(args.label)
    cand = fm_transform(mt, args.m)
    coeffs = {"x^%d*y^%d" % kl: str(v)
              for kl, v in sorted(cand.coefficients.items())}
    problems = cand.problems()
    _emit({"ambient": args.label, "m": args.m, "coefficients": coeffs,
           "problems": problems or ["none"]}, args.format)
    return 1 if problems else 0


def cmd_linsys(args):
    from . import exact, linsys, refdata
    name = _require_ambient(args.label)
    try:
        report = linsys.replay(name)
    # AssertionError: an internal consistency check of a layer failed
    except (linsys.ReplayError, exact.InconsistentSystemError,
            AssertionError) as err:
        print("error: linsys replay %s: %s" % (name, err), file=sys.stderr)
        return 1
    golden_diff = {}
    if name in refdata.REFERENCE_TABLE_NAMES:
        published = {k: v for k, v in refdata.reference_table(name).items() if v}
        mine = report.final_table.entries
        for key in sorted(set(published) | set(mine), key=str):
            if published.get(key, 0) != mine.get(key, 0):
                golden_diff[",".join(map(str, key))] = (
                    "published=%s computed=%s"
                    % (published.get(key, 0), mine.get(key, 0)))
    payload = {
        "ambient": name,
        "equations": report.equation_count,
        "variables": report.variable_count,
        "dimension": report.dimension,
        "pins": {",".join(map(str, k)): v
                 for k, v in report.pinned_values.items()},
        "assertions": {desc: ("pass" if ok else "FAIL")
                       for desc, ok in report.congruence_assertions},
        "flags": list(report.flags),
        "golden_diff": golden_diff or {"(none)": "table matches"},
    }
    if args.report:
        try:
            with open(args.report, "w") as handle:
                json.dump(dict(payload, rows_by_family=report.rows_by_family),
                          handle, indent=2, sort_keys=True, default=str)
        except OSError as err:
            return _fail_input("cannot write report %s: %s"
                               % (args.report, err.strerror or err))
    _emit(payload, args.format)
    failed = golden_diff or not report.all_assertions_pass
    return 1 if failed else 0


def cmd_verify(args):
    from . import exact, linsys, verify
    if args.suite not in verify.SUITES:
        return _fail_input("unknown suite %r (choose from %s)"
                           % (args.suite, ", ".join(verify.SUITES)))
    generator, _ = verify.SUITES[args.suite]
    passed = failed = 0
    results = {}
    try:
        for description, ok in generator():
            results[description] = "pass" if ok else "FAIL"
            if ok:
                passed += 1
            else:
                failed += 1
    # AssertionError: an internal consistency check of a layer failed
    except (linsys.ReplayError, exact.InconsistentSystemError,
            AssertionError) as err:
        print("error: verify %s: %s" % (args.suite, err), file=sys.stderr)
        return 1
    _emit({"suite": args.suite, "passed": passed, "failed": failed,
           "checks": results}, args.format)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    # accepted for old scripts, like $NONCROSS_CACHE_DIR; nothing reads it
    common.add_argument("--cache-dir", default=None,
                        help="ignored (NC(W) is enumerated on every call)")
    parents = [common]

    parser = argparse.ArgumentParser(
        prog="noncross",
        description="Exact computations on non-crossing partition posets "
                    "of ADE root systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rootsys", help="root-system facts")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pi = psub.add_parser("info", parents=parents)
    pi.add_argument("label")
    pi.set_defaults(func=cmd_rootsys)

    p = sub.add_parser("nc", help="non-crossing partition posets")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pe = psub.add_parser("enumerate", parents=parents)
    pe.add_argument("label")
    pe.set_defaults(func=cmd_nc)

    p = sub.add_parser("decomp", help="decomposition numbers")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pc = psub.add_parser("count", parents=parents)
    pc.add_argument("ambient")
    pc.add_argument("tuple", help="comma-separated type labels, '-' for empty")
    pc.set_defaults(func=cmd_decomp_count)
    pt = psub.add_parser("table", parents=parents)
    pt.add_argument("ambient")
    pt.add_argument("--full-rank-only", action="store_true")
    pt.set_defaults(func=cmd_decomp_table)

    p = sub.add_parser("chi", parents=parents,
                       help="characteristic polynomial chi*")
    p.add_argument("label")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("zeta", parents=parents, help="zeta polynomial of NC^m")
    p.add_argument("label")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--symbolic", action="store_true")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("mtriangle", parents=parents, help="M-triangle of NC^m")
    p.add_argument("label")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--dual", action="store_true")
    p.set_defaults(func=cmd_mtriangle)

    p = sub.add_parser("ftriangle", parents=parents,
                       help="F-triangle candidate via F=M")
    p.add_argument("label")
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(func=cmd_ftriangle)

    p = sub.add_parser("linsys", help="linear-system replay")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pr = psub.add_parser("replay", parents=parents)
    pr.add_argument("label")
    pr.add_argument("--report", default=None, help="write JSON report here")
    pr.set_defaults(func=cmd_linsys)

    p = sub.add_parser("verify", parents=parents,
                       help="run a verification suite")
    p.add_argument("suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceGuardError as err:
        print("resource guard: %s" % err, file=sys.stderr)
        return 3
    except ValueError as err:
        return _fail_input(str(err))


if __name__ == "__main__":
    sys.exit(main())
