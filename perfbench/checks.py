"""Correctness gate for the cold CLI calls of the benchmark.

Every op's output is compared with a value that does not come from the
route the command takes: published tables and polynomials in
``noncross.refdata``, or closed formulas in the degrees of the Weyl
group written out here.  ``check(op)`` returns None when the output is
right and a one-line reason when it is not.
"""

import json
from fractions import Fraction
from math import prod

DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}


def degrees(ambient):
    family, n = ambient[0], int(ambient[1:])
    if family == "A":
        return tuple(range(2, n + 2))
    if family == "D":
        return tuple(sorted(tuple(range(2, 2 * n - 1, 2)) + (n,)))
    return DEGREES[ambient]


def _components(text):
    """Irreducible component names of a label such as 'A1*A1*D4'."""
    from noncross import label
    return [str(c) for c in label(text).irreducibles()]


def _lib():
    import noncross
    return noncross


def _reference(ambient):
    nc = _lib()
    return nc.DecompositionTable(ambient, nc.reference_table(ambient))


def _tuple(text):
    nc = _lib()
    return nc.canonical_tuple(tuple(nc.label(t) for t in text.split(",")))


def _expected_rootsys(ambient):
    degs = degrees(ambient)
    return {"ambient": ambient, "rank": len(degs),
            "coxeter_number": max(degs), "group_order": prod(degs),
            "positive_roots": sum(d - 1 for d in degs), "degrees": list(degs)}


def _check_nc(ambient, payload):
    degs = degrees(ambient)
    h = max(degs)
    catalan = prod(Fraction(h + d, d) for d in degs)
    sizes = payload["rank_sizes"]
    if payload["elements"] != catalan:
        return "%d elements, Catalan number is %s" % (payload["elements"], catalan)
    if sum(sizes) != catalan or len(sizes) != len(degs) + 1:
        return "rank sizes %s do not add up" % sizes
    if sizes[0] != 1 or sizes[-1] != 1 or sizes[1] != sum(d - 1 for d in degs):
        return "rank sizes %s: ends or reflection count wrong" % sizes
    if sum(payload["type_counts"].values()) != catalan:
        return "type counts do not add up"
    return None


def _expected_table(ambient, full_rank_only):
    nc = _lib()
    table = _reference(ambient)
    n = int(ambient[1:])
    entries = {}
    for s in ((n,) if full_rank_only else range(1, n + 1)):
        for key in nc.all_tuples_of_rank(s):
            value = table.lookup(key)
            if value:
                entries[",".join(map(str, key))] = value
    return entries


def _expected_chi(text):
    nc = _lib()
    result = nc.SparsePolynomial.constant(1)
    for comp in _components(text):
        result = result * nc.chi_star_reference(comp)
    return str(result)


def _expected_zeta(text, m):
    """prod over components and degrees d of ((z-1) m h + d) / d."""
    nc = _lib()
    z = nc.SparsePolynomial.variable("z")
    result = nc.SparsePolynomial.constant(1)
    for comp in _components(text):
        degs = degrees(comp)
        for d in degs:
            result = result * ((z - 1) * (m * max(degs)) + d) * Fraction(1, d)
    return str(result)


def _expected_mtriangle(ambient, m, dual, symbolic):
    nc = _lib()
    if ambient in ("E7", "E8"):
        mt = nc.MTriangle.from_dual(ambient, nc.golden_dual(ambient))
    else:
        mt = nc.assemble_dual(ambient, _reference(ambient))
    source = mt.dual if dual else mt.primal
    if not symbolic:
        source = source.substitute(m=m)
    return str(source)


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check(op):
    """None when the op's exit code and output are right, else why not."""
    argv, out = op["argv"], op["stdout"]
    if op["rc"] != 0:
        return "exit code %s" % op["rc"]
    command = argv[0]
    try:
        if command == "verify":
            payload = json.loads(out)
            if payload["passed"] != 19 or payload["failed"] != 0:
                return "verify e8: %d passed, %d failed" % (
                    payload["passed"], payload["failed"])
            return None
        if command == "rootsys":
            expected = _expected_rootsys(argv[2])
            got = json.loads(out)
            return None if got == expected else "rootsys %s" % got
        if command == "nc":
            return _check_nc(argv[2], json.loads(out))
        if command == "decomp" and argv[1] == "count":
            expected = _reference(argv[2]).lookup(_tuple(argv[3]))
            got = int(out)
            return None if got == expected else "%d != %d" % (got, expected)
        if command == "decomp":
            expected = _expected_table(argv[2], "--full-rank-only" in argv)
            got = json.loads(out)["entries"]
            return None if got == expected else "table differs"
        if command == "chi":
            ok = out.strip() == _expected_chi(argv[1])
            return None if ok else "chi differs"
        if command == "zeta":
            ok = out.strip() == _expected_zeta(argv[1], int(_option(argv, "--m")))
            return None if ok else "zeta differs"
        if command == "mtriangle":
            expected = _expected_mtriangle(
                argv[1], int(_option(argv, "--m", 1)), "--dual" in argv,
                "--symbolic" in argv)
            return None if out.strip() == expected else "M-triangle differs"
        if command == "ftriangle":
            problems = json.loads(out)["problems"]
            return None if problems == ["none"] else "problems %s" % problems
    except (ValueError, KeyError, IndexError) as err:
        return "unreadable output: %s" % err
    return "no check for %s" % command
