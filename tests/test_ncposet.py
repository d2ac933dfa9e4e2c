"""Non-crossing partition posets: enumeration, order, Moebius, zeta, cache."""

import functools
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd

import pytest
import sympy

from matrix_oracle import (GroupElement, classify_parabolic_type,
                           coxeter_element, le_absolute, moved_positive_roots)
from poly_oracle import (characteristic_polynomial_by_products,
                         zeta_rows_by_polynomials, zeta_shifted)
from noncross import exact, ncposet
from noncross.decomp import all_labels_of_rank, full_table
from noncross.exact import SparsePolynomial
from noncross.ncposet import (CacheFormatError, ResourceGuardError,
                              _descent_masks, _mobius_number, build_ncm,
                              characteristic_direct, characteristic_polynomial,
                              enumerate_nc, mobius, mask_layout,
                              mobius_from_top, ncm_cardinality, read_cache,
                              write_cache, zeta_closed, zeta_direct,
                              zeta_rows)
from noncross.refdata import CHI_STAR_COEFFS, chi_star_reference
from noncross.rootsystem import (SUPPORTED_AMBIENTS, build_root_system,
                                 classify_edge_list, degree_pairs)
from noncross.triangles import assemble_dual
from noncross.typelabel import label
from noncross.weyl import (_reflection_data, bipartite_coxeter,
                           classify_moved_roots, coxeter_root_permutation,
                           enumerate_group)

# total element counts: Cat(n+1) for A_n, known values for D and E
SIZES = {
    "A1": 2, "A2": 5, "A3": 14, "A4": 42, "A5": 132,
    "D4": 50, "D5": 182, "E6": 833, "E7": 4160, "E8": 25080,
}


@pytest.mark.parametrize("name", sorted(SIZES))
def test_poset_sizes(name):
    if name == "E8":
        pytest.skip("covered by the acceptance suite")
    assert len(enumerate_nc(name)) == SIZES[name]


def test_rank_sizes_A3_narayana():
    poset = enumerate_nc("A3")
    # Narayana numbers of the rank-4 Catalan lattice
    assert poset.rank_sizes() == [1, 6, 6, 1]


def test_rank_sizes_symmetric_D5():
    sizes = enumerate_nc("D5").rank_sizes()
    assert sizes == sizes[::-1]


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _roots(layout, mask):
    """The positive-root indices of the set bits of a mask."""
    return frozenset(layout.order[i] for i in _bits(mask))


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_descent_masks_match_sympy_adjugate(name):
    # the row of root a is the zero pattern over b of
    # Z[a, b] = b^T C adj(c - I) a, here with the adjugate from sympy
    # instead of the package's kernel, and bit b standing for root b
    rs = build_root_system(name)
    c = sympy.Matrix(bipartite_coxeter(rs))
    adj = (c - sympy.eye(rs.n)).adjugate()
    vectors = matmul(rs.positive_roots,
                     (sympy.Matrix(rs.cartan) * adj).T.tolist())
    expected = tuple(sum(1 << b for b, r in enumerate(rs.positive_roots)
                         if not sum(x * y for x, y in zip(r, v)))
                     for v in vectors)
    layout = mask_layout(name)
    zero = _descent_masks(name)
    assert tuple(sum(1 << b for b in _roots(layout, zero[layout.pos[a]]))
                 for a in range(rs.num_positive_roots)) == expected


def matmul(a, b):
    """Product of two integer matrices given as sequences of rows."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def _matrix_walk(name):
    """The walk of NC by group elements: children t_a w as matrix
    products, their moved sets from the descent table (bit i of a mask
    stands for the root ``order[i]`` of the layout).  Returns the map
    moved-root mask -> matrix, and checks that no two elements share a
    moved set."""
    rs = build_root_system(name)
    _, mats = _reflection_data(name)
    zero = _descent_masks(name)
    order = mask_layout(name).order
    top = bipartite_coxeter(rs)
    found = {top: (1 << len(zero)) - 1}     # matrix -> mask
    frontier = [top]
    while frontier:
        below = []
        for mat in frontier:
            mask = found[mat]
            for i in _bits(mask):
                child = matmul(mats[order[i]], mat)
                if child not in found:
                    found[child] = mask & zero[i]
                    below.append(child)
        frontier = below
    matrices = {mask: mat for mat, mask in found.items()}
    assert len(matrices) == len(found), "moved sets are not injective"
    return matrices


def _and_walk(name):
    """NC by moved-root masks, one level at a time from the top, each
    element stepping down by every moved root: the levels, as maps from
    mask to the mask of the right complement (AND of the descent rows of
    its moved roots)."""
    zero = _descent_masks(name)
    top = (1 << len(zero)) - 1
    level = {top: None}
    while level:
        below = {}
        for mask in level:
            comp = top
            for i in _bits(mask):
                comp &= zero[i]
                below[mask & zero[i]] = None
            level[mask] = comp
        yield level
        level = below


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_subset_order_equals_absolute_order(name):
    """The moved-set containment order must agree with the definitional
    absolute order on every pair of elements."""
    rs = build_root_system(name)
    poset = enumerate_nc(name)
    matrices = _matrix_walk(name)
    assert matrices.keys() == poset.elements.keys()
    elements = list(poset.elements.values())
    for u in elements:
        gu = GroupElement(rs, matrices[u.key])
        for w in elements:
            gw = GroupElement(rs, matrices[w.key])
            assert poset.le(u, w) == le_absolute(rs, gu, gw)


def _simple_system(rs, root_indices):
    """Simple roots of the sub-root-system spanned by the given positive
    roots: the positive members not expressible as a sum of two members
    (pairwise differences, independent of the package's sum table)."""
    roots = [rs.positive_roots[i] for i in root_indices]
    rootset = set(roots)
    simples = []
    for alpha in roots:
        if not any(tuple(a - b for a, b in zip(alpha, beta)) in rootset
                   for beta in roots if beta != alpha):
            simples.append(alpha)
    return simples


def _type_of_moved_set(rs, moved):
    simples = _simple_system(rs, sorted(moved))
    edges = [(i, j) for i in range(len(simples))
             for j in range(i + 1, len(simples))
             if sum(x * cartan * y
                    for x, row in zip(simples[i], rs.cartan)
                    for cartan, y in zip(row, simples[j])) != 0]
    return classify_edge_list(range(len(simples)), edges)


@pytest.mark.parametrize("name", ["A5", "D5", "D6", "E6", "E7"])
def test_walk_matches_kernel_and_classifier_oracles(name):
    """The moved sets from the descent walk equal the per-element kernel
    route, and the sum-table types equal the pairwise classifier."""
    rs = build_root_system(name)
    layout = mask_layout(name)
    poset = enumerate_nc(name)
    matrices = _matrix_walk(name)
    assert matrices.keys() == poset.elements.keys()
    for el in poset.elements.values():
        moved = _roots(layout, el.key)
        assert moved == moved_positive_roots(
            rs, GroupElement(rs, matrices[el.key]))
        assert el.typ == _type_of_moved_set(rs, moved)


@pytest.mark.parametrize("name", ["A3", "D4", "A5", "D5", "E6", "D6"])
def test_complements_match_matrix_oracle(name):
    """complement(u) and complement(u, v), bit ANDs of masks, are the
    elements whose matrices are u^{-1} c and u^{-1} v, for every u and
    every comparable pair u <= v."""
    rs = build_root_system(name)
    poset = enumerate_nc(name)
    matrices = _matrix_walk(name)
    mask_of = {mat: mask for mask, mat in matrices.items()}
    inverses = {mask: GroupElement(rs, mat).inverse().mat
                for mask, mat in matrices.items()}
    top = matrices[poset.top.key]
    for u in poset.elements.values():
        product = matmul(inverses[u.key], top)
        assert poset.complement(u).key == mask_of[product]
        for v in poset.elements.values():
            if poset.le(u, v):
                product = matmul(inverses[u.key], matrices[v.key])
                assert poset.complement(u, v).key == mask_of[product]


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_orbit_typing_equals_per_element_classification(name):
    """Walking one head per c-conjugation orbit and rotating the rest
    gives the poset that the AND-walk of every element, classifying
    each one, gives: same masks, ranks, types and complements, and each
    level in one piece."""
    rs = build_root_system(name)
    layout = mask_layout(name)
    reference = {mask: (rs.n - depth,
                        classify_moved_roots(rs, sorted(_roots(layout,
                                                               mask))),
                        comp)
                 for depth, level in enumerate(_and_walk(name))
                 for mask, comp in level.items()}
    poset = enumerate_nc(name)
    assert {el.key: (el.rank, el.typ, el.comp)
            for el in poset.elements.values()} == reference
    assert [el.rank for el in poset.elements.values()] == \
        [el.rank for level in reversed(poset.levels) for el in level]


def _conjugate(name, mask):
    """The mask of c u c^{-1} from the mask of u, root by root through
    pi and the layout."""
    layout = mask_layout(name)
    pi = coxeter_root_permutation(name)
    return sum(1 << layout.pos[pi[a]] for a in _roots(layout, mask))


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_root_permutation_is_conjugation_by_c(name):
    """pi permutes the positive roots, and c t_b c^{-1} = t_{pi(b)}."""
    rs = build_root_system(name)
    pi = coxeter_root_permutation(name)
    assert sorted(pi) == list(range(rs.num_positive_roots))
    c = coxeter_element(rs)
    _, mats = _reflection_data(name)
    for b, t in enumerate(mats):
        assert matmul(matmul(c.mat, t), c.inverse().mat) == mats[pi[b]]


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_conjugation_orbits_stay_in_levels(name):
    """pi maps each level of NC into itself, and every orbit of
    conjugation by c on NC has a size dividing h."""
    rs = build_root_system(name)
    poset = enumerate_nc(name)
    for level in poset.levels:
        masks = {el.key for el in level}
        assert {_conjugate(name, mask) for mask in masks} == masks
    seen = set()
    for mask in poset.elements:
        if mask in seen:
            continue
        orbit = [mask]
        image = _conjugate(name, mask)
        while image != mask:
            orbit.append(image)
            image = _conjugate(name, image)
        seen.update(orbit)
        assert rs.coxeter_number % len(orbit) == 0


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_layout_rotation_is_conjugation_by_c(name):
    """The layout lays each cycle of pi out on consecutive bits, so the
    rotation of the blocks is pi root by root on every element of NC,
    carries complements along, and its h-th power is the identity."""
    rs = build_root_system(name)
    layout = mask_layout(name)
    pi = coxeter_root_permutation(name)
    assert sorted(layout.order) == list(range(rs.num_positive_roots))
    assert [layout.order[p] for p in layout.pos] == \
        list(range(rs.num_positive_roots))
    for first, size in layout.blocks:
        for j in range(size):
            succ = first + (j + 1) % size
            assert pi[layout.order[first + j]] == layout.order[succ]
    poset = enumerate_nc(name)
    conjugate = layout.conjugate
    for el in poset.elements.values():
        image = conjugate(el.key)
        assert image == _conjugate(name, el.key)
        assert poset.elements[image].comp == conjugate(el.comp)
        for _ in range(rs.coxeter_number - 1):
            image = conjugate(image)
        assert image == el.key


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_orbits_are_conjugation_cycles_and_count_the_census(name):
    """``MaskLayout.orbit`` is the cycle of ``conjugate``; the recorded
    orbits partition the poset, each one listed from its head; and the
    census counted per orbit is the element scan, key order included."""
    layout = mask_layout(name)
    poset = enumerate_nc(name)
    members = []
    for head, size in poset.orbits:
        orbit = layout.orbit(head.key)
        cycle = [head.key]
        image = layout.conjugate(head.key)
        while image != head.key:
            cycle.append(image)
            image = layout.conjugate(image)
        assert orbit == cycle and len(orbit) == size
        assert all(poset.elements[mask].typ is head.typ for mask in orbit)
        members += orbit
    assert sum(size for _, size in poset.orbits) == len(poset)
    assert sorted(members) == sorted(poset.elements)
    census = poset.pair_census()
    scan = poset.interval_census(poset.top)
    assert census == scan and list(census) == list(scan)


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_tampered_descent_row_fails_the_walk(name, monkeypatch):
    """A descent table with one bit flipped is no longer c-equivariant,
    and the walk refuses it before stepping down.  A1 has one root, a
    cycle of size 1, so its one-row table is equivariant whatever it
    holds; its tampered walk fails the type-rank check instead."""
    zero = list(_descent_masks(name))
    zero[0] ^= 1 << (len(zero) - 1)
    monkeypatch.setattr(ncposet, "_descent_masks", lambda _: tuple(zero))
    size = mask_layout(name).blocks[0][1]
    with pytest.raises(AssertionError,
                       match="c-equivariant" if size > 1 else "type rank"):
        enumerate_nc.__wrapped__(name)


def test_moebius_top_bottom_agree():
    poset = enumerate_nc("D4")
    mu_up = mobius(poset)
    mu_down = mobius_from_top(poset)
    bottom = poset.identity
    top = poset.top
    assert mu_up[(bottom.key, top.key)] == mu_down[bottom.key]


def test_moebius_guard():
    poset = enumerate_nc("A4")
    with pytest.raises(ResourceGuardError):
        mobius(poset, max_size=10)


def test_characteristic_direct_matches_reference():
    for name in ("A2", "A3", "D4", "D5"):
        assert characteristic_direct(enumerate_nc(name)) == \
            chi_star_reference(name)


def test_characteristic_polynomial_multiplicative():
    chi = characteristic_polynomial(label("A1*A2"))
    assert chi == characteristic_polynomial(label("A1")) * \
        characteristic_polynomial(label("A2"))


# a cold chi* in a fresh process, reporting the posets it enumerated
ONE_WALK = r"""
from noncross.ncposet import characteristic_polynomial, enumerate_nc
from noncross.typelabel import label
characteristic_polynomial(label("D6"))
print(enumerate_nc.cache_info().misses)
"""


def test_chi_star_enumerates_only_its_ambient():
    # the Moebius numbers of the intervals above the identity come from
    # the closed form, not from enumerating NC(D5), NC(A5), ...
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncposet.__file__)))
    child = subprocess.run([sys.executable, "-c", ONE_WALK],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True)
    assert child.stdout == "1\n"


# a snippet run in a fresh process, its stdout swallowed; prints the
# number of posets enumerated and the ambients walked
WALKS = r"""
import contextlib, io, sys
from noncross import ncposet
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(ncposet.enumerate_nc.cache_info().misses, *sorted(ncposet._WALKED))
"""


@pytest.mark.parametrize("snippet, walked", [
    ("from noncross.decomp import full_table\n"
     "full_table('E7')", "1 E7"),
    ("from noncross import linsys, triangles\n"
     "triangles.assemble_dual('E8', linsys.replay('E8').final_table)",
     "1 E8"),
    ("from noncross.cli import main\n"
     "assert main(['verify', 'e8']) == 0", "1 E8"),
])
def test_lower_censuses_come_from_one_walk(snippet, walked):
    # the lower tables and chi* read the intervals of the one poset walked
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncposet.__file__)))
    child = subprocess.run([sys.executable, "-c", WALKS, snippet],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True)
    assert child.stdout == walked + "\n"


@functools.lru_cache(maxsize=None)
def own_census(name):
    """The pair census of a fresh enumeration of NC(name)."""
    return enumerate_nc.__wrapped__(name).pair_census()


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D7", "D8",
                                  "E6", "E7", "E8"])
def test_interval_census_is_the_census_of_its_type(name):
    # [1, q] is NC of the type of q with types kept (Brady-Watt)
    poset = enumerate_nc(name)
    for t, below in poset.by_type.items():
        if t.is_irreducible:
            expected = own_census(str(t))
            assert poset.interval_census(below[0]) == expected
            assert poset.interval_census(below[-1]) == expected


def test_census_is_kept_once_per_label():
    first = ncposet.census("D5")
    first[next(iter(first))] += 1             # a copy: the kept one is intact
    kept = ncposet._census.cache_info().currsize
    assert ncposet.census(label("D5")) == own_census("D5")
    assert ncposet._census.cache_info().currsize == kept


@pytest.mark.parametrize("name", sorted(CHI_STAR_COEFFS))
def test_mobius_number_is_published_constant_term(name):
    published = chi_star_reference(name).substitute(y=0).evaluate()
    assert _mobius_number(label(name)) == published
    assert type(_mobius_number(label(name))) is int


@pytest.mark.parametrize("rank", range(1, 9))
def test_mobius_number_is_the_degree_product(rank):
    # Z_t(-1) against prod (2 - h - d)/d over the degrees of each
    # component (Chapoton 2004), on every label of the rank
    for t in all_labels_of_rank(rank):
        value = Fraction(1)
        for h, d in degree_pairs(t):
            value *= Fraction(2 - h - d, d)
        assert _mobius_number(t) == value, t
        assert type(_mobius_number(t)) is int, t


@pytest.mark.parametrize("rank", range(1, 9))
def test_zeta_rows_match_polynomial_oracle(rank):
    # the integer rows against the closed form less 1 as a Fraction
    # polynomial, times the forms' denominator: same rows, same order,
    # int right sides
    for t in all_labels_of_rank(rank):
        rows, den = zeta_rows(t)
        assert (rows, den) == zeta_rows_by_polynomials(t), t
        assert all(type(rhs) is int for _, _, rhs in rows), t


def test_zeta_rows_refuse_a_non_integral_right_side(monkeypatch):
    # over denominator 1 the A2 closed form has Fraction coefficients
    monkeypatch.setattr(ncposet, "zeta_forms", lambda n: ({}, 1))
    with pytest.raises(AssertionError, match="non-integral zeta row"):
        zeta_rows.__wrapped__(label("A2"))


@pytest.mark.parametrize("rank", range(2, 9))
def test_reducible_chi_star_is_the_product_of_its_components(rank):
    # the convolved integer y-vectors against the polynomial product of
    # the package's component chi* and of the published ones: the same
    # terms with int coefficients
    def typed(p):
        return {exp: (type(c), c) for exp, c in p.terms.items()}

    for t in all_labels_of_rank(rank):
        if t.is_irreducible:
            continue
        published = exact.ONE
        for comp in t.irreducibles():
            published = published * chi_star_reference(str(comp))
        chi = typed(characteristic_polynomial(t))
        assert chi == typed(characteristic_polynomial_by_products(t)), t
        assert chi == typed(published), t
        assert all(kind is int for kind, _ in chi.values()), t


def test_chi_star_checks_its_value_at_one(monkeypatch):
    census = ncposet.census("D4")
    census[next(iter(census))] += 1
    monkeypatch.setattr(ncposet, "census", lambda t: dict(census))
    with pytest.raises(AssertionError, match=r"chi\*\(1\) = .* NC\(D4\)"):
        characteristic_polynomial.__wrapped__("D4")


def test_doctored_census_raises_the_polynomial_sum_message(monkeypatch):
    # chi*(1) of the doctored census as the sum of y-power polynomials
    # evaluated at y = 1, the message before the coefficients were summed
    # in a list; reached through the assembly too
    d4 = label("D4")
    doctored = ncposet.census(d4)
    doctored[next(iter(doctored))] += 1
    chi = exact.ZERO
    for (t_low, t_comp), count in doctored.items():
        chi = chi + (SparsePolynomial.variable("y", t_low.rank)
                     * (count * _mobius_number(t_comp)))
    message = "chi*(1) = %s != 0 for NC(D4)" % chi.evaluate(y=1)
    table = full_table("D4")
    real = ncposet.census
    monkeypatch.setattr(ncposet, "census",
                        lambda t: dict(doctored) if t is d4 else real(t))
    with pytest.raises(AssertionError) as raised:
        characteristic_polynomial.__wrapped__("D4")
    assert str(raised.value) == message
    characteristic_polynomial.cache_clear()
    try:
        with pytest.raises(AssertionError) as raised:
            assemble_dual("D4", table)
        assert str(raised.value) == message
    finally:
        characteristic_polynomial.cache_clear()


def test_zeta_closed_counts_elements():
    # zeta at z=2 is the number of elements
    for name in ("A3", "D4", "E6"):
        assert zeta_closed(label(name)).evaluate(z=2) == SIZES[name]


def test_zeta_direct_matches_closed_A3():
    poset = enumerate_nc("A3")
    closed = zeta_closed(label("A3"))
    for z in range(1, 6):
        assert zeta_direct(poset, z) == closed.evaluate(z=z)


def test_ncm_cardinality_fuss_catalan():
    # A_n: |NC^m| is the Fuss-Catalan number binom((m+1)(n+1), n) / (n+1)
    for n in (2, 3, 4):
        for m in (1, 2, 3):
            expected = comb((m + 1) * (n + 1), n) // (n + 1)
            assert ncm_cardinality(label("A%d" % n), m) == expected


@pytest.mark.parametrize("rank", range(1, 9))
def test_degree_products_match_the_symbolic_closed_form(rank):
    # the shifted zeta vectors and |NC^m| multiply over the degree table;
    # the oracle substitutes z - 1 into the symbolic closed form
    for t in all_labels_of_rank(rank):
        vec, den = ncposet._shifted_zeta_vector(t)
        assert len(vec) == rank + 1 and den > 0 and gcd(den, *vec) == 1
        assert zeta_shifted(t).terms == {
            (0, 0, j, 0): Fraction(c, den) for j, c in enumerate(vec) if c}
        for m in range(5):
            assert ncm_cardinality(t, m) == zeta_closed(t, m).evaluate(z=2)
        assert ncm_cardinality(str(t), 2) == ncm_cardinality(t, 2)


# a CLI command run in a fresh process, its stdout swallowed; prints the
# number of root systems it built
ROOT_SYSTEMS = r"""
import contextlib, io, sys
from noncross import rootsystem
from noncross.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print(rootsystem.build_root_system.cache_info().misses)
"""


@pytest.mark.parametrize("argv, built", [
    ("verify e8", 1),
    ("decomp count E8 D4,A4", 1),
    ("chi D6", 1),
    ("mtriangle E6 --m 2", 1),
    ("zeta E8 --m 2", 0),
])
def test_closed_forms_build_no_root_system(argv, built):
    # products over degrees read the degree table: only the walked
    # ambient's root system is built
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncposet.__file__)))
    child = subprocess.run([sys.executable, "-c", ROOT_SYSTEMS, *argv.split()],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True)
    assert child.stdout == "%d\n" % built


def test_build_ncm_size_and_rank():
    ncm = build_ncm("A3", 2)
    assert len(ncm.elements) == ncm_cardinality(label("A3"), 2)
    top_rank = max(el.rank for el in ncm.elements)
    assert top_rank == 3


def test_build_ncm_guard():
    with pytest.raises(ResourceGuardError):
        build_ncm("E6", 3, guard=100)


def test_cache_roundtrip(tmp_path):
    poset = enumerate_nc("D4")
    path = str(tmp_path / "nc_D4.jsonl")
    write_cache(poset, path)
    loaded = read_cache(path, expected_ambient="D4")
    assert len(loaded) == len(poset)
    assert loaded.rank_sizes() == poset.rank_sizes()
    census_a = poset.pair_census()
    census_b = loaded.pair_census()
    assert census_a == census_b


def test_read_cache_returns_the_enumerated_poset(tmp_path):
    poset = enumerate_nc("D4")
    path = str(tmp_path / "nc_D4.jsonl")
    write_cache(poset, path)
    with open(path) as handle:
        assert handle.readline() == \
            '{"schema_version": 3, "ambient": "D4"}\n'
        assert handle.readline() == '{"mask": "0", "rank": 0, "type": "0"}\n'
    assert read_cache(path, expected_ambient="D4") is poset
    assert read_cache(path) is poset


def test_schema_2_cache_is_regenerated_once(tmp_path):
    # a mask bit stood for positive root b in schema 2, and stands for
    # the root order[b] of the c-orbit layout since schema 3
    poset = enumerate_nc("D4")
    path = str(tmp_path / "nc_D4.jsonl")
    write_cache(poset, path)
    with open(path) as handle:
        fresh = handle.read()
    with open(path, "w") as handle:
        handle.write(fresh.replace('"schema_version": 3',
                                   '"schema_version": 2', 1))
    with pytest.raises(CacheFormatError):
        read_cache(path)


@pytest.mark.parametrize("header", ["", "[", "null", "[]", "{}",
                                    '{"ambient": "B3"}',
                                    '{"ambient": ["D4"]}'])
def test_read_cache_without_ambient_rejects_bad_header(tmp_path, header):
    path = tmp_path / "nc.jsonl"
    path.write_text(header + "\n")
    with pytest.raises(CacheFormatError):
        read_cache(str(path))


# ---------------------------------------------------------------------------
# a damaged cache file is refused; lines[0] is the header, lines[1] the
# identity (records go level by level from rank 0)


def _edit(lines, index, change):
    record = json.loads(lines[index])
    change(record)
    lines[index] = json.dumps(record)


def _truncated_line(lines):
    lines[-1] = lines[-1][:-20]


def _wrong_shape(lines):
    """Set a mask bit past the 12 positive roots of D4."""
    _edit(lines, 3, lambda r: r.update(
        mask=format(int(r["mask"], 16) | 1 << 12, "x")))


def _missing_key(lines):
    _edit(lines, 3, lambda r: r.pop("type"))


def _wrong_ambient(lines):
    _edit(lines, 0, lambda r: r.update(ambient="D5"))


def _wrong_schema(lines):
    _edit(lines, 0, lambda r: r.update(schema_version=r["schema_version"] + 1))


def _tampered_type(lines):
    _edit(lines, 1, lambda r: r.update(type="A4"))


def _tampered_matrix(lines):
    """Swap a rank-2 element for the moved-root mask of a length-2 group
    element outside NC(D4) with the same type, so that only the check
    against the walk can notice."""
    rs = build_root_system("D4")
    poset = enumerate_nc("D4")
    index = next(i for i, line in enumerate(lines[1:], 1)
                 if json.loads(line)["rank"] == 2)
    typ = json.loads(lines[index])["type"]
    for key, length in enumerate_group(rs).items():
        g = GroupElement(rs, key)
        mask = sum(1 << i for i in moved_positive_roots(rs, g))
        if length == 2 and mask not in poset.elements:
            try:
                found = str(classify_parabolic_type(rs, g, check=False))
            except AssertionError:
                continue
            if found == typ:
                _edit(lines, index, lambda r: r.update(mask=format(mask, "x")))
                return
    raise AssertionError("no element outside NC(D4) of type %s" % typ)


@pytest.mark.parametrize("damage", [
    _truncated_line, _wrong_shape, _missing_key, _wrong_ambient,
    _wrong_schema, _tampered_type, _tampered_matrix,
], ids=lambda f: f.__name__.lstrip("_"))
def test_read_cache_refuses_damaged_file(tmp_path, damage):
    path = tmp_path / "nc_D4.jsonl"
    write_cache(enumerate_nc("D4"), str(path))
    lines = path.read_text().splitlines()
    damage(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheFormatError):
        read_cache(str(path), expected_ambient="D4")
    with pytest.raises(CacheFormatError):
        read_cache(str(path))


def test_respelt_cache_is_a_miss_and_rewritten(tmp_path):
    # the same records with their keys in another order
    path = tmp_path / "nc_D4.jsonl"
    write_cache(enumerate_nc("D4"), str(path))
    canonical = path.read_text()
    path.write_text("".join(
        json.dumps(dict(reversed(json.loads(line).items()))) + "\n"
        for line in canonical.splitlines()))
    with pytest.raises(CacheFormatError):
        read_cache(str(path), expected_ambient="D4")
