"""Weyl group elements, absolute length, Coxeter conjugation orbits."""

from fractions import Fraction

import pytest

import matrix_oracle
from noncross import weyl
from matrix_oracle import (GroupElement, classify_parabolic_type,
                           coxeter_element, identity, le_absolute, reflection,
                           reflection_matrices)
from walk_oracle import bit_positions, mask_type
from noncross.ncposet import (_descent_masks, _root_tables, enumerate_nc,
                              mask_layout, reflection_orbits)
from noncross.rootsystem import SUPPORTED_AMBIENTS, build_root_system
from noncross.typelabel import label
from noncross.weyl import absolute_length, enumerate_group


def matmul(a, b):
    """Product of two integer matrices given as sequences of rows."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def bfs_with_matrices(rs):
    """Independent Cayley-graph BFS keeping the group matrices."""
    mats = reflection_matrices(rs)
    eye = tuple(tuple(int(i == j) for j in range(rs.n)) for i in range(rs.n))
    dist = {eye: (0, eye)}
    frontier = [eye]
    d = 0
    while frontier:
        d += 1
        new = []
        for w in frontier:
            for t in mats:
                v = matmul(t, w)
                if v not in dist:
                    dist[v] = (d, v)
                    new.append(v)
        frontier = new
    return dist


@pytest.mark.parametrize("name", ["A2", "A3", "D4"])
def test_absolute_length_equals_cayley_distance(name):
    rs = build_root_system(name)
    dist = bfs_with_matrices(rs)
    assert len(dist) == rs.group_order
    for d, mat in dist.values():
        assert absolute_length(rs, mat) == d


def test_absolute_length_refuses_non_integer_matrices():
    # w - I is read with operator.index: no entry is truncated by int()
    rs = build_root_system("A2")
    for entry in (1.5, 1.0, Fraction(3, 2), Fraction(1)):
        with pytest.raises(TypeError):
            absolute_length(rs, ((entry, 0), (0, 1)))


def test_enumerate_group_matches_group_order():
    rs = build_root_system("A3")
    assert len(enumerate_group(rs)) == 24


def test_enumerate_group_guard_refuses_A8():
    rs = build_root_system("A8")
    assert rs.group_order == 362_880 > weyl.MAX_GROUP_ORDER == 200_000
    with pytest.raises(ValueError,
                       match="group order 362880 exceeds guard 200000"):
        enumerate_group(rs)


def test_reflections_are_involutions():
    rs = build_root_system("D4")
    for i in range(rs.num_positive_roots):
        t = reflection(rs, i)
        assert t * t == identity(rs)
        assert absolute_length(rs, t.mat) == 1


def test_bipartite_coxeter_order_and_length():
    for name in ("A3", "D4", "E6"):
        rs = build_root_system(name)
        c = coxeter_element(rs)
        assert absolute_length(rs, c.mat) == rs.n
        power = identity(rs)
        order = 0
        while True:
            power = power * c
            order += 1
            if power == identity(rs):
                break
        assert order == rs.coxeter_number


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_bipartite_coxeter_is_the_product_of_the_reflection_matrices(name):
    # c is multiplied from the simple reflections built off the Cartan
    # matrix; it equals the product of the first n of all the reflection
    # matrices, in the bipartite order
    rs = build_root_system(name)
    mats = weyl._reflection_data(name)[1]
    product = tuple(tuple(int(i == j) for j in range(rs.n))
                    for i in range(rs.n))
    for block in rs.bipartition:
        for i in block:
            product = matmul(product, mats[i])
    assert weyl.bipartite_coxeter(rs) == product


def test_classify_identity_and_coxeter():
    rs = build_root_system("D5")
    c = coxeter_element(rs)
    assert classify_parabolic_type(rs, identity(rs), coxeter=c).is_empty
    assert classify_parabolic_type(rs, c, coxeter=c) == label("D5")
    assert classify_parabolic_type(rs, reflection(rs, 0), coxeter=c) == label("A1")


def test_le_absolute_reflections_below_coxeter():
    rs = build_root_system("A3")
    c = coxeter_element(rs)
    for i in range(rs.num_positive_roots):
        assert le_absolute(rs, reflection(rs, i), c)


def test_classify_rejects_non_noncrossing():
    rs = build_root_system("A2")
    c = coxeter_element(rs)
    cinv = GroupElement(rs, c.inverse().mat)
    if not le_absolute(rs, cinv, c):
        with pytest.raises(ValueError):
            classify_parabolic_type(rs, cinv, coxeter=c)


# ---------------------------------------------------------------------------
# orbit sizes of reflections under conjugation by the Coxeter element


def expected_orbit_size(name, product_type, h):
    """Published case rule for |orbit(t)| in terms of type(t*c)."""
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


ORBIT_AMBIENTS = ["A1", "A2", "A3", "A4", "A5", "A6", "A7",
                  "D4", "D5", "D6", "D7", "E6", "E7", "E8"]


@pytest.mark.parametrize("name", ORBIT_AMBIENTS)
def test_orbit_case_table(name):
    rs = build_root_system(name)
    h = rs.coxeter_number
    orbits = reflection_orbits(rs)
    assert sum(o["size"] for o in orbits) == rs.num_positive_roots
    for o in orbits:
        assert o["size"] == expected_orbit_size(name, o["product_type"], h)


def test_orbit_size_multisets():
    expected = {"E6": [6, 6, 12, 12], "E7": [9] * 7,
                "E8": [15] * 8, "D6": [5] * 6}
    for name, sizes in expected.items():
        orbits = reflection_orbits(build_root_system(name))
        assert sorted(o["size"] for o in orbits) == sizes


# ---------------------------------------------------------------------------
# t*c typed from the descent masks, against the matrix oracle


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_mask_typed_tc_matches_matrix_oracle(name):
    """For every positive root b, the type read from the descent row
    zero[b], which is also the NC complement of t_b, is the type of the
    matrix t_b * c."""
    rs = build_root_system(name)
    zero = _descent_masks(name)
    layout = mask_layout(name)
    poset = enumerate_nc(name)
    c = coxeter_element(rs)
    comps = {mask: comp for mask, _, _, comp in poset.members()}
    pos = bit_positions(layout)
    for b in range(rs.num_positive_roots):
        row = zero[pos[b]]
        assert comps[1 << pos[b]] == row
        assert mask_type(name, row) == \
            classify_parabolic_type(rs, reflection(rs, b) * c)


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_reflection_orbits_match_matrix_oracle(name):
    rs = build_root_system(name)
    assert reflection_orbits(rs) == matrix_oracle.reflection_orbits(rs)


def in_bits(layout, table):
    """A table of masks over the positive-root indices, each entry and
    each mask moved to the mask bits of ``layout``."""
    pos = bit_positions(layout)
    found = [0] * len(table)
    for a, mask in enumerate(table):
        found[pos[a]] = sum(1 << pos[b] for b in range(len(table))
                            if mask >> b & 1)
    return tuple(found)


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_linked_roots_are_the_nonzero_cartan_pairings(name):
    """``linked[a]`` holds the other positive roots whose Cartan pairing
    with root a is nonzero, as the Gram matrix of the roots gives it."""
    rs = build_root_system(name)
    roots = rs.positive_roots
    gram = matmul(matmul(roots, rs.cartan), tuple(zip(*roots)))
    _, linked = _root_tables(name)
    assert linked == in_bits(mask_layout(name), tuple(
        sum(1 << b for b, x in enumerate(row) if x and b != a)
        for a, row in enumerate(gram)))


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_packed_root_sums_match_tuple_sums(name):
    layout = mask_layout(name)
    assert _root_tables(name) == tuple(
        in_bits(layout, table) for table in matrix_oracle.root_tables(name))
