"""M-triangles, F=M transform, zeta identity, reciprocities."""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

import pytest

from noncross import polynomial
from noncross.decomp import (DecompositionTable, all_labels_of_rank,
                             all_tuples_of_rank, canonical_tuple, full_table)
from noncross.linsys import generate_equations
from noncross.closedform import zeta_closed, zeta_forms, zeta_rows
from noncross.direct import build_ncm
from noncross.refdata import (REFERENCE_TABLE_NAMES, golden_dual,
                              reference_table)
from noncross.rootsystem import (SUPPORTED_AMBIENTS, build_root_system,
                                 subdiagram_types)
from noncross.typelabel import label
from noncross.triangles import (FTriangleCandidate, MTriangle,
                                TransformFailure, assemble_dual,
                                dual_to_primal, f_reciprocity_checks,
                                fm_transform, mtriangle_direct,
                                reciprocity_check, zeta_identity_check)
from poly_oracle import (assemble_dual_by_products,
                         f_reciprocity_checks_by_substitution,
                         fm_transform_by_division,
                         reciprocity_check_by_polynomials, substitute,
                         zeta_identity_expansion)

X = polynomial.SparsePolynomial.variable("x")
Y = polynomial.SparsePolynomial.variable("y")
Z = polynomial.SparsePolynomial.variable("z")
M = polynomial.SparsePolynomial.variable("m")


def assembled(name):
    return assemble_dual(name, full_table(name))


def test_dual_to_primal_is_exponent_flip():
    dual = 1 + 3 * X * Y ** 2
    primal = dual_to_primal(dual, 2)
    # (k,l) -> (n-k, n-l): (0,0) -> (2,2) and (1,2) -> (1,0)
    assert primal == X ** 2 * Y ** 2 + 3 * X
    # flipping twice returns the original
    assert dual_to_primal(primal, 2) == dual


def test_assembly_constant_term_and_corner():
    mt = assembled("A3")
    assert mt.dual.substitute(x=0, y=0).evaluate(m=5) == 1
    # summing mu(u,w) over all intervals leaves exactly the top element
    assert mt.at(1).evaluate(x=1, y=1) == 1


@pytest.mark.parametrize("name,m", [("A1", 1), ("A2", 1), ("A2", 2),
                                    ("A3", 1), ("A3", 2), ("D4", 1)])
def test_assembly_equals_direct_moebius(name, m):
    mt = assembled(name)
    assert mt.at(m) == mtriangle_direct(build_ncm(name, m))


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_zeta_identity_small(name):
    diff = zeta_identity_check(name, full_table(name))
    assert not diff.terms


def _tampered(name, kind):
    """The published table of ``name`` with one entry raised by 1, or
    with the entry at (A1, T), for a type T of corank 1 that is no
    sub-diagram of the ambient, set from 0 to 1."""
    entries = dict(reference_table(name))
    if kind == "plus-one":
        key = sorted(entries, key=str)[len(entries) // 2]
    else:
        n = label(name).rank
        found = subdiagram_types(name)
        foreign = next(t for t in all_labels_of_rank(n - 1) if t not in found)
        key = canonical_tuple((label("A1"), foreign))
        assert entries.get(key, 0) == 0
    entries[key] = entries.get(key, 0) + 1
    return DecompositionTable(name, entries)


@pytest.mark.parametrize("kind", ["plus-one", "foreign-type"])
@pytest.mark.parametrize("name", ["D5", "E6", "E7", "A7", "D7"])
def test_zeta_identity_difference_on_tampered_tables(name, kind):
    # the z-vector route and the Fraction expansion give the same nonzero
    # difference polynomial, not just the same verdict
    table = _tampered(name, kind)
    diff = zeta_identity_check(name, table)
    assert diff.terms
    assert diff == zeta_identity_expansion(name, table)


def test_zeta_identity_zero_on_D8_census_table():
    table = full_table("D8")
    assert not zeta_identity_check("D8", table).terms
    assert not zeta_identity_expansion("D8", table).terms


def test_zeta_rows_built_once_without_a_closed_form():
    # the zeta rows of a type are built once, with no closed-form
    # polynomial; later checks and the system's zeta rows read the cached
    # rows and leave them as they were
    table = full_table("E7")
    e7 = label("E7")
    zeta_rows.cache_clear()
    zeta_closed.cache_clear()
    assert not zeta_identity_check("E7", table).terms
    rows, den = zeta_rows(e7)
    before = [(mz, dict(form), rhs) for mz, form, rhs in rows]
    assert not zeta_identity_check(e7, table).terms
    generate_equations("E7")
    info = zeta_rows.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
    info = zeta_closed.cache_info()
    assert (info.misses, info.hits, info.currsize) == (0, 0, 0)
    assert rows == before


def test_rank_8_zeta_form_built_once():
    # the E8 and D8 zeta rows share one rank-8 form, and the D8 zeta
    # identity reads the rows of the D8 system
    table = full_table("D8")
    zeta_forms.cache_clear()
    zeta_rows.cache_clear()
    generate_equations("E8")
    generate_equations("D8")
    assert not zeta_identity_check("D8", table).terms
    info = zeta_forms.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    info = zeta_rows.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "D4", "D5"])
def test_reciprocity_small(name):
    assert not reciprocity_check(assembled(name)).terms


@pytest.mark.parametrize("name,m", [("A3", 1), ("A3", 2), ("D4", 1),
                                    ("D4", 2), ("D5", 1)])
def test_fm_transform_valid(name, m):
    cand = fm_transform(assembled(name), m)
    assert cand.problems() == []
    assert cand.coefficients[(0, 0)] == 1


def test_fm_transform_A2_known_values():
    # m=1 F-triangle of the rank-2 cluster complex: 5 vertices, 5 edges
    cand = fm_transform(assembled("A2"), 1)
    assert cand.coefficients[(0, 0)] == 1
    assert sum(v for (k, l), v in cand.coefficients.items()
               if k + l == 1) == 5
    assert sum(v for (k, l), v in cand.coefficients.items()
               if k + l == 2) == 5


def test_fm_transform_face_counts_A3():
    # f-vector of the 3-dimensional associahedron: 1, 9, 21, 14 faces
    cand = fm_transform(assembled("A3"), 1)
    by_dim = {}
    for (k, l), v in cand.coefficients.items():
        by_dim[k + l] = by_dim.get(k + l, 0) + v
    assert by_dim == {0: 1, 1: 9, 2: 21, 3: 14}


def test_transform_failure_on_bad_triangle():
    # a primal that is not an M-triangle leaves a non-divisible numerator
    broken = MTriangle(ambient="A2", n=2, dual=X, primal=X)
    with pytest.raises(TransformFailure):
        fm_transform(broken, 1)


@pytest.mark.parametrize("k,l,coeff", [(2, 1, 1), (3, 0, 3), (3, 2, -2)])
def test_transform_failure_on_term_below_diagonal(k, l, coeff):
    # a valid triangle plus one term x^k y^l with k > l: the cleared
    # numerator is then not divisible by (y-x)^n
    mt = assembled("A3")
    broken = MTriangle(ambient=mt.ambient, n=mt.n, dual=mt.dual,
                       primal=mt.primal + coeff * X ** k * Y ** l)
    for m in (1, 2):
        with pytest.raises(TransformFailure):
            fm_transform(broken, m)


@pytest.mark.parametrize("name,m", [("A3", 2), ("D4", 2)])
def test_f_reciprocity_small(name, m):
    assert f_reciprocity_checks(assembled(name), m) == []


def test_D8_census_table_passes_reciprocity_and_fm():
    # D8 has no published table: its census table is checked by identities
    mt = assemble_dual("D8", full_table("D8"))
    assert not reciprocity_check(mt).terms
    for m in (1, 2, 3):
        assert not fm_transform(mt, m).problems(), m


# ---------------------------------------------------------------------------
# the integer assembly against the polynomial-product oracle


def _typed_terms(p):
    return {exp: (type(c), c) for exp, c in p.terms.items()}


@pytest.mark.parametrize("source, name", [
    *(("production", name) for name in SUPPORTED_AMBIENTS),
    *(("refdata", name) for name in REFERENCE_TABLE_NAMES)])
def test_integer_assembly_matches_polynomial_products(source, name):
    if source == "production":
        table = full_table(name)
    else:
        table = DecompositionTable(label(name), reference_table(name),
                                   provenance="published")
    mine, oracle = assemble_dual(name, table), assemble_dual_by_products(
        name, table)
    assert _typed_terms(mine.dual) == _typed_terms(oracle.dual)
    assert _typed_terms(mine.primal) == _typed_terms(oracle.primal)
    assert mine == oracle


# one assembly in a fresh process: the chi* y-vectors it computes
CHI_MISSES = r"""
import sys
from noncross import decomp, triangles
table = decomp.full_table(sys.argv[1])
before = decomp.chi_vector.cache_info().misses
triangles.assemble_dual(sys.argv[1], table)
print(decomp.chi_vector.cache_info().misses - before)
"""


@pytest.mark.parametrize("name, misses", [("E6", 16), ("D5", 11)])
def test_assembly_computes_chi_only_for_labels_of_nonzero_tuples(name,
                                                                  misses):
    # chi* once per label of a tuple with a nonzero number and per
    # irreducible component of such a label, none for a zero tuple's
    table = full_table(name)
    labels = {t for s in range(1, label(name).rank + 1)
              for key in all_tuples_of_rank(s) if table.lookup(key)
              for t in key}
    labels |= {c for t in labels for c in t.irreducibles()}
    assert len(labels) == misses
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(polynomial.__file__)))
    child = subprocess.run([sys.executable, "-c", CHI_MISSES, name],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True)
    assert child.stdout == "%d\n" % misses


# ---------------------------------------------------------------------------
# the direct F=M expansion against the substitution-and-division oracle


@lru_cache(maxsize=None)
def _parity_triangle(name):
    """An assembled triangle (by ambient), a golden one ("golden E7"), or
    one of them with one term added to its primal ("A3 + TERM")."""
    if " + " in name:
        base, key = name.split(" + ")
        mt = _parity_triangle(base)
        extra = {**_TAMPERINGS, **_E8_TAMPERINGS}[key]
        return MTriangle(ambient=mt.ambient, n=mt.n, dual=mt.dual,
                         primal=mt.primal + extra)
    if name.startswith("golden "):
        ambient = name.split()[1]
        return MTriangle.from_dual(ambient, golden_dual(ambient))
    return assemble_dual(name, full_table(name))


_TAMPERINGS = {
    "2x^2y": 2 * X ** 2 * Y,                       # k > l
    "(m-1)x^3": (M - 1) * X ** 3,                  # k > l except at m = 1
    "x^4y^4": X ** 4 * Y ** 4,                     # degree above n in x
    "y^4": Y ** 4,                                 # degree above n in y
    "zxy^2": Z * X * Y ** 2,                       # a z degree
    "x^2y^2": X ** 2 * Y ** 2,                     # a coefficient + 1
    "xy^3/3": Fraction(1, 3) * X * Y ** 3,         # a Fraction coefficient
}
_PARITY_TRIANGLES = (SUPPORTED_AMBIENTS + ("golden E7", "golden E8")
                     + tuple("A3 + " + key for key in _TAMPERINGS))
_E8_TAMPERINGS = {
    "x^4y^6": X ** 4 * Y ** 6,                     # a coefficient + 1
    "3mx^2y^5": 3 * M * X ** 2 * Y ** 5,           # an odd power of m
    "xy^10": X * Y ** 10,                          # y-degree above n + 1
}


def _canonical_terms(terms):
    return sorted((key, type(c).__name__, c) for key, c in terms.items())


def _outcome(fn, *args):
    """What a call gives: its value, with each coefficient's type, or
    the type and message of what it raises."""
    try:
        result = fn(*args)
    except (TypeError, ValueError) as err:
        return type(err), str(err)
    if isinstance(result, FTriangleCandidate):
        return (result.ambient, result.m,
                _canonical_terms(result.coefficients))
    if isinstance(result, list):
        return result
    return _canonical_terms(result.terms)


@pytest.mark.parametrize("name", _PARITY_TRIANGLES)
def test_direct_expansion_matches_division_oracle(name):
    mt = _parity_triangle(name)

    def at_m(m):
        expected = _outcome(lambda: substitute(mt.primal, m=m))
        assert _outcome(mt.at, m) == expected, m
        assert _outcome(lambda: mt.primal.substitute(m=m)) == expected, m
        assert (_outcome(lambda: mt.dual.substitute(m=m))
                == _outcome(lambda: substitute(mt.dual, m=m))), m

    for m in range(-4, 7):
        at_m(m)
        assert (_outcome(fm_transform, mt, m)
                == _outcome(fm_transform_by_division, mt, m)), m
        assert (_outcome(f_reciprocity_checks, mt, m)
                == _outcome(f_reciprocity_checks_by_substitution, mt, m)), m
    for m in (Fraction(1, 2), Fraction(-7, 3)):
        at_m(m)
        assert (_outcome(f_reciprocity_checks, mt, m)
                == _outcome(f_reciprocity_checks_by_substitution, mt, m)), m


@pytest.mark.parametrize("name", _PARITY_TRIANGLES + tuple(
    "golden E8 + " + key for key in _E8_TAMPERINGS))
def test_reciprocity_check_matches_polynomial_oracle(name):
    # the same difference, term by term with each coefficient's type, or
    # the same ValueError and message; the parity triangles hold every
    # triangle of the reciprocity suite and the D8 census triangle
    mt = _parity_triangle(name)
    assert (_outcome(reciprocity_check, mt)
            == _outcome(reciprocity_check_by_polynomials, mt))


def test_tampered_triangles_raise_in_order():
    # a degree above n is found before a term below the diagonal, and
    # that before a z degree
    def failure(*extras):
        mt = _parity_triangle("A3")
        broken = MTriangle(ambient=mt.ambient, n=mt.n, dual=mt.dual,
                           primal=mt.primal + sum(extras))
        with pytest.raises(ValueError) as info:
            fm_transform(broken, 2)
        return type(info.value), str(info.value)

    below = (TransformFailure,
             "transform of A3 at m=2: nonzero remainder in exact division")
    assert failure(Y ** 4, X ** 4) == (
        ValueError, "clearing power for x below degree")
    assert failure(Y ** 4, X ** 2 * Y) == (
        ValueError, "clearing power for y below degree")
    assert failure(X ** 2 * Y, Z * X * Y) == below
    assert failure(Z * X * Y) == (
        TransformFailure, "transform left z or m degrees behind")


def test_transform_failure_names_a_fraction_m():
    mt = _parity_triangle("A3 + 2x^2y")
    for m, shown in ((Fraction(1, 2), "1/2"), (Fraction(-7, 3), "-7/3"),
                     (2, "2")):
        with pytest.raises(TransformFailure) as info:
            fm_transform(mt, m)
        assert str(info.value) == ("transform of A3 at m=%s: nonzero "
                                   "remainder in exact division" % shown)


# ---------------------------------------------------------------------------
# closed forms of the F-triangle (Chapoton; Krattenthaler)


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_f_triangle_closed_forms(name):
    # F(0, y) = (1+y)^n (the negative simple roots span a simplex), the
    # facets number prod (mh + d_i)/d_i and the positive facets
    # prod (mh + d_i - 2)/d_i; the first fails when x and y are swapped
    rs = build_root_system(name)
    n, h = len(rs.degrees), rs.coxeter_number
    mt = _parity_triangle(name)
    for m in (1, 2, 3):
        f = fm_transform(mt, m).coefficients
        assert {l: f.get((0, l), 0) for l in range(n + 1)} == {
            l: comb(n, l) for l in range(n + 1)}, m
        assert sum(f.get((k, n - k), 0) for k in range(n + 1)) == prod(
            Fraction(m * h + d, d) for d in rs.degrees), m
        assert f.get((n, 0), 0) == prod(
            Fraction(m * h + d - 2, d) for d in rs.degrees), m
