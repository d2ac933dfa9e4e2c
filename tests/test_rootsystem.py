"""Root systems: classical invariants and diagram classification."""

from collections import Counter
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import matrix_oracle
from matrix_oracle import DynkinDiagram
from noncross.rootsystem import (SUPPORTED_AMBIENTS, build_root_system,
                                 classify_edge_list, degrees, reflect,
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
def test_degree_table_is_the_root_system_degrees(name):
    assert degrees(name) == build_root_system(name).degrees
    assert degrees(label(name)) == degrees(name)


@pytest.mark.parametrize("name", ["A9", "D9", "E9"])
def test_degree_table_refuses_what_build_refuses(name):
    # E9 is no type label: the parser refuses it before any table
    with pytest.raises(ValueError) as from_table:
        degrees(name)
    with pytest.raises(ValueError) as from_build:
        build_root_system(name)
    assert str(from_table.value) == str(from_build.value) == (
        "E components exist only in ranks 6,7,8" if name == "E9" else
        "unsupported ambient type %r (supported: %s)"
        % (name, ", ".join(SUPPORTED_AMBIENTS)))


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


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_one_letter_reflection_is_the_cartan_formula(name):
    """s_i v = v - <v, alpha_i> alpha_i, the pairing read off the Cartan
    matrix, for every positive root v and every node i."""
    rs = build_root_system(name)
    for v in rs.positive_roots:
        for i in range(rs.n):
            pairing = sum(x * row[i] for x, row in zip(v, rs.cartan))
            expected = [x - pairing * (j == i) for j, x in enumerate(v)]
            assert reflect(rs.neighbors, list(v), (i,)) == expected


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_bipartition_is_a_proper_two_coloring(name):
    """Every edge joins the two blocks, node 0 is in the first, and the
    Coxeter word is the first block then the second."""
    rs = build_root_system(name)
    first, second = rs.bipartition
    assert sorted(first + second) == list(range(rs.n))
    assert 0 in first
    for a, b in rs.edges:
        assert (a in first) != (b in first)
    assert rs.word == first + second
    assert rs.neighbors == tuple(
        tuple(sorted({b for e in rs.edges if a in e for b in e} - {a}))
        for a in range(rs.n))


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


def classify_diagram(diagram):
    """``classify_edge_list`` on the nodes and edges of a diagram."""
    return classify_edge_list(range(diagram.n), diagram.pairs())


def _outcome(classify, diagram):
    """The type a classifier gives a diagram, or its refusal message."""
    try:
        return classify(diagram)
    except ValueError as exc:
        return "ValueError: %s" % exc


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_classifier_matches_frozenset_oracle_on_subdiagrams(name):
    rs = build_root_system(name)
    diagram = DynkinDiagram.from_edges(rs.n, rs.edges)
    found = set()
    deletions = Counter()
    for size in range(diagram.n + 1):
        for subset in combinations(range(diagram.n), size):
            sub = matrix_oracle.induced(diagram, subset)
            expected = matrix_oracle.classify_diagram(sub)
            assert classify_diagram(sub) is expected
            found.add(expected)
            if size == diagram.n - 1:
                deletions[expected] += 1
    assert subdiagram_types.__wrapped__(name) == found
    assert single_node_deletions(name) == deletions


# a triangle, a degree-4 star, two branch vertices, arms (2,2,2) and
# (1,2,5), a star before a triangle and a good component before a bad one
REFUSED = {
    "triangle": (3, [(0, 1), (1, 2), (0, 2)],
                 "diagram component contains a cycle"),
    "degree-4 star": (5, [(0, 1), (0, 2), (0, 3), (0, 4)],
                      "diagram component is not of ADE shape"),
    "two branch vertices": (6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)],
                            "diagram component is not of ADE shape"),
    "arms 2,2,2": (7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)],
                   "diagram component is not of ADE shape: arms [2, 2, 2]"),
    "arms 1,2,5": (9, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6),
                       (6, 7), (7, 8)],
                   "diagram component is not of ADE shape: arms [1, 2, 5]"),
    "star then triangle": (8, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6),
                               (6, 7), (5, 7)],
                           "diagram component is not of ADE shape"),
    "path then triangle": (5, [(0, 1), (2, 3), (3, 4), (2, 4)],
                           "diagram component contains a cycle"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_classifier_refuses_non_ade_shapes(case):
    n, edges, message = REFUSED[case]
    diagram = DynkinDiagram.from_edges(n, edges)
    assert _outcome(matrix_oracle.classify_diagram, diagram) \
        == "ValueError: " + message
    with pytest.raises(ValueError) as exc:
        classify_diagram(diagram)
    assert str(exc.value) == message


@st.composite
def small_diagrams(draw):
    """Graphs on up to 9 nodes, often forests, cycles and bad shapes."""
    n = draw(st.integers(0, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=n + 1)) \
        if pairs else []
    return DynkinDiagram.from_edges(n, edges)


@settings(max_examples=400, deadline=None)
@given(small_diagrams())
def test_classifier_matches_frozenset_oracle_on_small_graphs(diagram):
    assert _outcome(classify_diagram, diagram) \
        == _outcome(matrix_oracle.classify_diagram, diagram)


def test_unsupported_ambient_rejected():
    with pytest.raises((ValueError, KeyError)):
        build_root_system("B2")
