"""M-triangles, F=M transform, zeta identity, reciprocities."""

import pytest

from noncross import exact
from noncross.decomp import (DecompositionTable, all_labels_of_rank,
                             canonical_tuple, full_table, production_table)
from noncross.linsys import generate_equations
from noncross.ncposet import build_ncm, zeta_forms
from noncross.refdata import reference_table
from noncross.rootsystem import subdiagram_types
from noncross.typelabel import label
from noncross.triangles import (FTriangleCandidate, MTriangle,
                                TransformFailure, assemble_dual,
                                dual_to_primal, f_reciprocity_checks,
                                fm_transform, mtriangle_direct,
                                reciprocity_check, zeta_identity_check)
from poly_oracle import zeta_identity_expansion

X = exact.SparsePolynomial.variable("x")
Y = exact.SparsePolynomial.variable("y")
M = exact.SparsePolynomial.variable("m")


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
    assert mt.dual.coefficient(x=0, y=0).evaluate(m=5) == 1
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
    table = production_table("D8")
    assert not zeta_identity_check("D8", table).terms
    assert not zeta_identity_expansion("D8", table).terms


def test_rank_8_zeta_form_built_once():
    # the E8 and D8 zeta rows and the D8 zeta identity share one form
    table = production_table("D8")
    zeta_forms.cache_clear()
    generate_equations("E8")
    generate_equations("D8")
    assert not zeta_identity_check("D8", table).terms
    info = zeta_forms.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


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
    mt = assemble_dual("D8", production_table("D8"))
    assert not reciprocity_check(mt).terms
    for m in (1, 2, 3):
        assert not fm_transform(mt, m).problems(), m
