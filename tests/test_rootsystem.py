"""Root systems: classical invariants and diagram classification."""

import pytest
import sympy

from noncross.rootsystem import (SUPPORTED_AMBIENTS, build_root_system,
                                 single_node_deletions, subdiagram_types)
from noncross.typelabel import label

# (degrees, group order) for each supported ambient
KNOWN = {
    "A1": ((2,), 2),
    "A2": ((2, 3), 6),
    "A3": ((2, 3, 4), 24),
    "A4": ((2, 3, 4, 5), 120),
    "A5": ((2, 3, 4, 5, 6), 720),
    "A6": ((2, 3, 4, 5, 6, 7), 5040),
    "A7": ((2, 3, 4, 5, 6, 7, 8), 40320),
    "A8": ((2, 3, 4, 5, 6, 7, 8, 9), 362880),
    "D4": ((2, 4, 4, 6), 192),
    "D5": ((2, 4, 5, 6, 8), 1920),
    "D6": ((2, 4, 6, 6, 8, 10), 23040),
    "D7": ((2, 4, 6, 7, 8, 10, 12), 322560),
    "D8": ((2, 4, 6, 8, 8, 10, 12, 14), 5160960),
    "E6": ((2, 5, 6, 8, 9, 12), 51840),
    "E7": ((2, 6, 8, 10, 12, 14, 18), 2903040),
    "E8": ((2, 8, 12, 14, 18, 20, 24, 30), 696729600),
}


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_degrees_and_group_order(name):
    rs = build_root_system(name)
    degrees, order = KNOWN[name]
    assert tuple(sorted(rs.degrees)) == degrees
    assert rs.group_order == order
    assert rs.coxeter_number == degrees[-1]


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_positive_root_count(name):
    rs = build_root_system(name)
    assert rs.num_positive_roots == rs.n * rs.coxeter_number // 2


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_cartan_matrix_shape(name):
    rs = build_root_system(name)
    cartan = rs.cartan
    n = rs.n
    assert len(cartan) == n and all(len(row) == n for row in cartan)
    for i in range(n):
        assert cartan[i][i] == 2
        for j in range(n):
            assert cartan[i][j] == cartan[j][i]
            if i != j:
                assert cartan[i][j] in (0, -1)
    assert sympy.Matrix(cartan).det() > 0


def test_roots_are_distinct_and_positive(Dname="D5"):
    rs = build_root_system(Dname)
    roots = {tuple(r) for r in rs.positive_roots}
    assert len(roots) == rs.num_positive_roots
    # every positive root has nonnegative simple-root coordinates
    for r in roots:
        assert all(x >= 0 for x in r)
    # simple roots are present
    for i in range(rs.n):
        e = tuple(1 if j == i else 0 for j in range(rs.n))
        assert e in roots


def test_subdiagram_types_A3():
    assert label("A1^2") in subdiagram_types("A3")
    assert label("A2") in subdiagram_types("A3")
    assert label("D4") not in subdiagram_types("A3")


def test_single_node_deletion_counts_D4():
    # removing the hub leaves A1^3; removing any of the 3 tips leaves A3
    counts = single_node_deletions("D4")
    assert counts.get(label("A1^3"), 0) == 1
    assert counts.get(label("A3"), 0) == 3


def test_single_node_deletion_counts_E7():
    counts = single_node_deletions("E7")
    assert counts.get(label("E6"), 0) == 1
    assert counts.get(label("D6"), 0) == 1
    assert counts.get(label("A1*D5"), 0) == 1


def test_unsupported_ambient_rejected():
    with pytest.raises((ValueError, KeyError)):
        build_root_system("B2")
