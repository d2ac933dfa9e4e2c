"""The registry of named verification checks.

``SUITES`` maps each suite name to ``(generator, budget_s)``.  A
generator takes no arguments and yields ``(description, ok)`` pairs;
``budget_s`` is the wall time in seconds the suite must stay under in
the acceptance tests, or None where no bound applies.  Both
``noncross verify SUITE`` and ``tests/test_acceptance.py`` iterate this
one registry, so every published value is checked by the same code from
the command line and in the test suite.

Layer functions are called through their modules (``linsys.replay``,
not a name bound at import), so that a wrapper installed on a module
attribute sees every call.
"""

from __future__ import annotations

from functools import partial

from . import decomp, linsys, ncposet, refdata, triangles, weyl
from .decomp import all_tuples_of_rank
from .rootsystem import SUPPORTED_AMBIENTS, build_root_system
from .typelabel import label


def _key(text):
    return tuple(label(tok) for tok in text.split(","))


def _nonzero(values):
    return {k: v for k, v in values.items() if v}


def _table_check(name, computed):
    published = _nonzero(refdata.reference_table(name))
    return ("table %s (%d values)" % (name, len(published)),
            _nonzero(computed) == published)


def _assembled(name):
    return triangles.assemble_dual(name, decomp.full_table(name))


# ---------------------------------------------------------------------------
# suites


def _appendix():
    """Brute force reproduces every tabulated value."""
    yield from appendix_core()
    yield from appendix_extended()


def _bruteforce_table(name):
    """Every full-rank value of one ambient by ``count_bruteforce``, key
    by key with one shared memo (``full_table`` takes the closed form or
    the census, which this checks)."""
    memo = {}
    return {key: decomp.count_bruteforce(name, key, _memo=memo)
            for key in all_tuples_of_rank(label(name).rank)}


def appendix_core():
    """The part of ``appendix`` up to rank 6: A1-A5, D4, D5 and E6."""
    for name in ("A1", "A2", "A3", "A4", "A5"):
        yield _table_check(name, decomp.full_table(name).entries)
    for name in ("D4", "D5", "E6"):
        yield _table_check(name, _bruteforce_table(name))


def appendix_extended():
    """The rest of ``appendix``: D6, D7, A6 and A7, by brute force."""
    for name in ("D6", "D7", "A6", "A7"):
        yield _table_check(name, _bruteforce_table(name))


def _typeA():
    """The type-A closed form equals brute force on every tuple."""
    for n in range(1, 7):
        name = "A%d" % n
        memo = {}
        ok = all(decomp.count_typeA(n, key)
                 == decomp.count_bruteforce(name, key, _memo=memo)
                 for s in range(n + 1) for key in all_tuples_of_rank(s)
                 if all(f == "A" for t in key for f, _ in t.components))
        yield ("closed form vs brute force on A%d" % n, ok)


def _chi():
    """chi* from the pair census and the closed-form Moebius numbers, and
    by the Moebius function up to rank 6."""
    for name in refdata.CHI_STAR_COEFFS:
        published = refdata.chi_star_reference(name)
        from_census = ncposet.characteristic_polynomial(label(name))
        yield ("chi* census %s" % name, from_census == published)
        if label(name).rank <= 6:
            direct = ncposet.characteristic_direct(ncposet.enumerate_nc(name))
            yield ("chi* direct %s" % name, direct == published)


def _zeta():
    """Multichain counts equal the closed-form zeta polynomials."""
    for name in SUPPORTED_AMBIENTS:
        if label(name).rank > 4:
            continue
        poset = ncposet.enumerate_nc(name)
        closed = ncposet.zeta_closed(label(name))
        ok = all(ncposet.zeta_direct(poset, z) == closed.evaluate(z=z)
                 for z in range(1, 6))
        yield ("zeta multichain vs closed form %s" % name, ok)
    for name, mmax in (("A2", 3), ("A3", 2)):
        for m in range(1, mmax + 1):
            ncm = ncposet.build_ncm(name, m)
            closed = ncposet.zeta_closed(label(name), m=m)
            ok = all(ncposet.zeta_direct(ncm, z) == closed.evaluate(z=z)
                     for z in range(1, 5))
            yield ("zeta NC^%d(%s)" % (m, name), ok)


def _zeta_identity():
    """The zeta / decomposition-number identity, symbolically in z, m."""
    for name in ("A2", "A3", "D4"):
        diff = triangles.zeta_identity_check(name, decomp.full_table(name))
        yield ("zeta identity %s" % name, not diff.terms)


def _mtriangle():
    """The assembled M-triangle equals the direct Moebius M-triangle."""
    for name, mmax in (("A3", 3), ("D4", 2)):
        mt = triangles.assemble_dual(name, decomp.full_table(name))
        for m in range(1, mmax + 1):
            direct = triangles.mtriangle_direct(ncposet.build_ncm(name, m))
            yield ("M-triangle %s m=%d equals Moebius oracle" % (name, m),
                   mt.at(m) == direct)


def _replay(name):
    """The linear-system replay: its dimension, its table, the published
    congruences, and for E7 and E8 the headline dual M-triangle."""
    report = linsys.replay(name)
    expected = linsys.EXPECTED_DIMENSION[name]
    # extra independent relations are acceptable, but flagged
    dimension_ok = (report.dimension == expected
                    or report.dimension < expected and bool(report.flags))
    yield ("%s replay dimension %d" % (name, report.dimension), dimension_ok)
    published = _nonzero(refdata.reference_table(name))
    yield ("%s table matches published list" % name,
           report.final_table.entries == published)
    for desc, ok in report.congruence_assertions:
        yield ("%s: %s" % (name, desc), ok)
    if name in ("E7", "E8"):
        mt = triangles.assemble_dual(name, report.final_table)
        yield ("%s assembled dual equals published polynomial" % name,
               mt.dual == refdata.golden_dual(name))


def _lookups():
    """Spot values of the E8 table."""
    table = decomp.full_table("E8")
    for key, value in (("D4", 325), ("D4,A4", 15), ("A4,A1*A3", 390),
                       ("A5,A1*A2", 390), ("D5,A1*A2", 195)):
        yield ("E8 lookup %s = %d" % (key, value),
               table.lookup(_key(key)) == value)


def _census():
    """The census tables against the published tables, the replays (D8
    included), the type-A closed form, and on D8 (no published table)
    against every equation of its linear system and the zeta identity."""
    for name in ("D4", "D5", "D6", "D7", "E6", "E7", "E8"):
        desc, ok = _table_check(name, decomp.census_table(name).entries)
        yield ("census " + desc, ok)
    for name in ("E6", "D6", "D7", "E7", "E8", "D8"):
        yield ("census %s equals the %s replay" % (name, name),
               decomp.census_table(name).entries
               == linsys.replay(name).final_table.entries)
    for name in ("A6", "A7", "A8"):
        yield ("census %s equals the closed form" % name,
               decomp.census_table(name).entries
               == decomp.full_table(name).entries)
    table = decomp.census_table("D8")
    failures = linsys.check_system_against_table(
        linsys.generate_equations("D8"), table)
    yield ("census D8 satisfies every D8 equation", not failures)
    diff = triangles.zeta_identity_check("D8", table)
    yield ("zeta identity on the census D8", not diff.terms)


def _pins():
    """The E7 pin values by brute force."""
    memo = {}
    for key, value in (("A1^4,A1^3", 9), ("A1^2*A2,A1^3", 54)):
        count = decomp.count_bruteforce("E7", _key(key), _memo=memo)
        yield ("E7 pin %s = %d by brute force" % (key, value), count == value)


def _expected_orbit_size(name, product_type, h):
    family, n = label(name).components[0]
    pt = str(product_type)
    if family == "A":
        half = "0" if n == 1 else "A%d^2" % ((n - 1) // 2)
        full = not (n % 2 == 1 and pt == half)
    elif family == "D":
        full = (n % 2 == 1 and pt == "A%d" % (n - 1))
    elif name == "E6":
        full = pt in ("D5", "A1*A4")
    else:
        full = False
    return h if full else h // 2


def _orbits():
    """Reflection-orbit sizes under Coxeter conjugation."""
    multisets = {"E6": [6, 6, 12, 12], "E7": [9] * 7,
                 "E8": [15] * 8, "D6": [5] * 6}
    for name, sizes in multisets.items():
        orbits = ncposet.reflection_orbits(build_root_system(name))
        yield ("orbit sizes %s" % name,
               sorted(o["size"] for o in orbits) == sizes)
    for name in ("A1", "A2", "A3", "A4", "A5", "A6", "A7",
                 "D4", "D5", "D6", "D7", "E6", "E7", "E8"):
        rs = build_root_system(name)
        ok = all(o["size"] == _expected_orbit_size(
                     name, o["product_type"], rs.coxeter_number)
                 for o in ncposet.reflection_orbits(rs))
        yield ("orbit case table %s" % name, ok)


_RECIPROCITY_AMBIENTS = ("A1", "A2", "A3", "A4", "A5", "D4", "D5",
                         "E6", "E7", "E8")


def _reciprocity():
    """m -> -m reciprocity of the symbolic M-triangles."""
    for name in _RECIPROCITY_AMBIENTS:
        diff = triangles.reciprocity_check(_assembled(name))
        yield ("reciprocity %s" % name, not diff.terms)


def _fm():
    """F=M gives valid F-triangles for m = 1, 2, 3."""
    for name in _RECIPROCITY_AMBIENTS:
        mt = _assembled(name)
        for m in (1, 2, 3):
            try:
                ok = not triangles.fm_transform(mt, m).problems()
            except triangles.TransformFailure:
                ok = False
            yield ("F=M transform %s m=%d" % (name, m), ok)


def _fm_reciprocity():
    """The F-triangle forms of the m -> -m reciprocity for m = 1, 2, 3."""
    for name in _RECIPROCITY_AMBIENTS:
        mt = _assembled(name)
        for m in (1, 2, 3):
            try:
                ok = not triangles.f_reciprocity_checks(mt, m)
            except triangles.TransformFailure:
                ok = False
            yield ("F-reciprocity %s m=%d" % (name, m), ok)


def _length():
    """Absolute length equals the distance in the reflection Cayley graph."""
    for name in ("A3", "D4"):
        rs = build_root_system(name)
        dist = weyl.enumerate_group(rs)
        yield ("%s group has order %d" % (name, rs.group_order),
               len(dist) == rs.group_order)
        ok = all(weyl.absolute_length(rs, mat) == d
                 for mat, d in dist.items())
        yield ("absolute length equals Cayley distance on %s" % name, ok)


SUITES = {
    "appendix": (_appendix, 120),
    "typeA": (_typeA, None),
    "chi": (_chi, 900),
    "zeta": (_zeta, None),
    "zeta-identity": (_zeta_identity, None),
    "mtriangle": (_mtriangle, 60),
    "e6": (partial(_replay, "E6"), None),
    "d6": (partial(_replay, "D6"), None),
    "d7": (partial(_replay, "D7"), None),
    "e7": (partial(_replay, "E7"), 300),
    "e8": (partial(_replay, "E8"), 3600),
    "lookups": (_lookups, 3600),
    "census": (_census, 120),
    "pins": (_pins, None),
    "orbits": (_orbits, None),
    "reciprocity": (_reciprocity, None),
    "fm": (_fm, None),
    "fm-reciprocity": (_fm_reciprocity, 30),
    "length": (_length, 60),
}
