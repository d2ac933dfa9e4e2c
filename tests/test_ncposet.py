"""Non-crossing partition posets: enumeration, order, Moebius, zeta, cache."""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd

import pytest
import sympy

import matrix_oracle
from matrix_oracle import (GroupElement, classify_parabolic_type,
                           coxeter_element, le_absolute, moved_positive_roots)
from poly_oracle import (characteristic_polynomial_by_census,
                         characteristic_polynomial_by_products, in_powers_of_m,
                         ncm_cardinality_by_zeta, zeta_rows_by_polynomials,
                         zeta_shifted)
from walk_oracle import bit_positions, eager_walk, mask_type
from noncross import closedform, decomp, direct, ncposet, polynomial
from noncross.cli import main
from noncross.closedform import _mobius_number, zeta_closed, zeta_rows
from noncross.decomp import all_labels_of_rank, full_table
from noncross.direct import (build_ncm, characteristic_direct, mobius,
                             mobius_from_top, zeta_direct)
from noncross.ncposet import (CacheFormatError, _coxeter_word,
                              _descent_masks, characteristic_polynomial,
                              coxeter_root_permutation, enumerate_nc,
                              mask_layout, ncm_cardinality, read_cache,
                              write_cache)
from noncross.polynomial import SparsePolynomial
from noncross.refdata import CHI_STAR_COEFFS, chi_star_reference
from noncross.rootsystem import (SUPPORTED_AMBIENTS, build_root_system,
                                 classify_edge_list)
from noncross.triangles import assemble_dual
from noncross.typelabel import ResourceGuardError, degree_pairs, label
from noncross.weyl import _reflection_data, bipartite_coxeter, enumerate_group

# total element counts: Cat(n+1) for A_n, known values for D and E
SIZES = {
    "A1": 2, "A2": 5, "A3": 14, "A4": 42, "A5": 132,
    "D4": 50, "D5": 182, "E6": 833, "E7": 4160, "E8": 25080,
}


@pytest.mark.parametrize("name", sorted(SIZES))
def test_poset_sizes(name):
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
    pos = bit_positions(layout)
    assert tuple(sum(1 << b for b in _roots(layout, zero[pos[a]]))
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
    masks = _members(poset)
    assert matrices.keys() == masks.keys()
    for u in masks:
        gu = GroupElement(rs, matrices[u])
        for w in masks:
            gw = GroupElement(rs, matrices[w])
            assert poset.le(u, w) == le_absolute(rs, gu, gw)


def _members(poset):
    """The map mask -> (rank, type, complement mask) of ``members``."""
    return {mask: (rank, typ, comp)
            for mask, rank, typ, comp in poset.members()}


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
    members = _members(poset)
    assert matrices.keys() == members.keys()
    for mask, (_, typ, _) in members.items():
        moved = _roots(layout, mask)
        assert moved == moved_positive_roots(
            rs, GroupElement(rs, matrices[mask]))
        assert typ == _type_of_moved_set(rs, moved)


@pytest.mark.parametrize("name", ["A3", "D4", "A5", "D5", "E6", "D6"])
def test_complements_match_matrix_oracle(name):
    """The complement mask comp(u) of ``members`` and comp(u) & v, bit
    ANDs of masks, are the masks of the elements whose matrices are
    u^{-1} c and u^{-1} v, for every u and every comparable pair u <= v."""
    rs = build_root_system(name)
    poset = enumerate_nc(name)
    matrices = _matrix_walk(name)
    mask_of = {mat: mask for mask, mat in matrices.items()}
    inverses = {mask: GroupElement(rs, mat).inverse().mat
                for mask, mat in matrices.items()}
    top = matrices[poset.records[0][0]]
    comps = {mask: comp for mask, _, _, comp in poset.members()}
    for u, comp in comps.items():
        product = matmul(inverses[u], top)
        assert comp == mask_of[product]
        for v in comps:
            if poset.le(u, v):
                product = matmul(inverses[u], matrices[v])
                assert comp & v == mask_of[product]


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_orbit_typing_equals_per_element_classification(name):
    """Walking one head per c-conjugation orbit and rotating the rest
    gives the poset that the AND-walk of every element, classifying
    each one, gives: same masks, ranks, types and complements, and each
    level in one piece."""
    rs = build_root_system(name)
    reference = {mask: (rs.n - depth, mask_type(name, mask), comp)
                 for depth, level in enumerate(_and_walk(name))
                 for mask, comp in level.items()}
    poset = enumerate_nc(name)
    members = list(poset.members())
    assert len(members) == len(reference)
    assert _members(poset) == reference
    ranks = [rank for _, rank, _, _ in members]
    assert ranks == sorted(ranks, reverse=True)


def _conjugate(name, mask):
    """The mask of c u c^{-1} from the mask of u, root by root through
    pi and the layout."""
    layout = mask_layout(name)
    pi = coxeter_root_permutation(name)
    pos = bit_positions(layout)
    return sum(1 << pos[pi[a]] for a in _roots(layout, mask))


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_coxeter_word_inverts_c_minus_one(name):
    """With c = s_{w_1} ... s_{w_n} and beta_k = s_{w_1} ... s_{w_{k-1}}
    alpha_{w_k}, as the word's reflections build them, (I - c) omega_{w_k}
    = beta_k: in simple-root coordinates omega_j is column j of C^{-1},
    so I - c is B C, B holding beta_k in column w_k.  Each beta_k is
    alpha_{w_k} plus simple roots earlier in the word."""
    rs = build_root_system(name)
    n = rs.n
    word, reflect = _coxeter_word(rs)
    assert word == [i for block in rs.bipartition for i in block]
    betas = {}
    for k, i in enumerate(word):
        beta = reflect([int(j == i) for j in range(n)], word[:k][::-1])
        assert beta[i] == 1
        assert all(not beta[j] for j in word[k + 1:])
        betas[i] = beta
    by_columns = tuple(tuple(betas[j][r] for j in range(n)) for r in range(n))
    c = bipartite_coxeter(rs)
    assert matmul(by_columns, rs.cartan) == tuple(
        tuple(int(r == s) - x for s, x in enumerate(row))
        for r, row in enumerate(c))


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_root_permutation_by_reflections_is_the_matrix_one(name):
    """pi from n simple reflections of each root is pi from the matrix of
    c (``matrix_oracle.coxeter_root_permutation``)."""
    assert coxeter_root_permutation(name) == \
        matrix_oracle.coxeter_root_permutation(name)


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
    levels = {}
    for mask, rank, _, _ in poset.members():
        levels.setdefault(rank, set()).add(mask)
    for masks in levels.values():
        assert {_conjugate(name, mask) for mask in masks} == masks
    seen = set()
    for mask in poset.types:
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
    rotation of the blocks (``MaskLayout.orbit``) is pi root by root on
    every element of NC, carries complements along, and closes up after
    a number of steps dividing h."""
    rs = build_root_system(name)
    layout = mask_layout(name)
    pi = coxeter_root_permutation(name)
    assert sorted(layout.order) == list(range(rs.num_positive_roots))
    assert [layout.order[p] for p in bit_positions(layout)] == \
        list(range(rs.num_positive_roots))
    for first, size in layout.blocks:
        for j in range(size):
            succ = first + (j + 1) % size
            assert pi[layout.order[first + j]] == layout.order[succ]
    poset = enumerate_nc(name)
    comps = {mask: comp for mask, _, _, comp in poset.members()}
    for mask, comp in comps.items():
        orbit = layout.orbit(mask)
        assert rs.coxeter_number % len(orbit) == 0
        image = orbit[1 % len(orbit)]
        assert image == _conjugate(name, mask)
        assert comps[image] == _conjugate(name, comp)
        assert _conjugate(name, orbit[-1]) == mask


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_orbits_are_conjugation_cycles_and_count_the_census(name):
    """``MaskLayout.orbit`` is the cycle of conjugation by c; the recorded
    orbits partition the poset, ``members`` lists each one from its
    head; and the census counted per orbit is the element scan, key
    order included."""
    layout = mask_layout(name)
    poset = enumerate_nc(name)
    members = []
    for head, size, _, typ, _ in poset.records:
        orbit = layout.orbit(head)
        cycle = [head]
        image = _conjugate(name, head)
        while image != head:
            cycle.append(image)
            image = _conjugate(name, image)
        assert orbit == cycle and len(orbit) == size
        assert all(poset.types[mask] is typ for mask in orbit)
        members += orbit
    assert sum(record[1] for record in poset.records) == len(poset)
    assert sorted(members) == sorted(poset.types)
    assert members == [mask for mask, _, _, _ in poset.members()]
    census = poset.pair_census()
    scan, _ = poset._scan(poset.records[0][0])
    assert census == scan and list(census) == list(scan)


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_tampered_descent_row_fails_the_walk(name, monkeypatch):
    """A descent table with one bit flipped is no longer c-equivariant,
    and the walk refuses it before stepping down: in row 0, and in the
    middle and the last row of the largest block, the last row being the
    one that rotates back to the block's first.  A1 has one root, a
    cycle of size 1, so its one-row table is equivariant whatever it
    holds; its tampered walk fails the type-rank check instead."""
    blocks = mask_layout(name).blocks
    first, size = max(blocks, key=lambda block: block[1])
    for row, block_size in ((0, blocks[0][1]), (first + size // 2, size),
                            (first + size - 1, size)):
        zero = list(_descent_masks(name))
        zero[row] ^= 1 << (len(zero) - 1)
        monkeypatch.setattr(ncposet, "_descent_masks",
                            lambda _, zero=tuple(zero): zero)
        with pytest.raises(AssertionError,
                           match=("c-equivariant" if block_size > 1
                                  else "type rank")):
            enumerate_nc.__wrapped__(name)


def test_moebius_top_bottom_agree():
    poset = enumerate_nc("D4")
    mu_up = mobius(poset)
    mu_down = mobius_from_top(poset)
    ranked = poset.ranked()
    bottom, top = ranked[0][0], ranked[-1][0]
    assert (bottom, top) == (0, poset.records[0][0])
    assert mu_up[(bottom, top)] == mu_down[bottom]


def _refused_unlisted(oracle, monkeypatch):
    """Call an oracle on NC(E8) with ``NcPoset.members`` counting its
    calls; it must refuse from the size alone, listing no element."""
    poset = enumerate_nc("E8")
    assert len(poset) == 25_080 > direct.MAX_MOBIUS_SIZE == 10_000
    listed = []
    members = ncposet.NcPoset.members
    monkeypatch.setattr(ncposet.NcPoset, "members",
                        lambda self: listed.append(1) or members(self))
    with pytest.raises(ResourceGuardError, match="exceeds mobius guard 10000"):
        oracle(poset)
    assert not listed


def test_moebius_guard(monkeypatch):
    _refused_unlisted(mobius, monkeypatch)


@pytest.mark.parametrize("oracle", [
    mobius_from_top, characteristic_direct,
    functools.partial(zeta_direct, z=3),
], ids=["mobius_from_top", "characteristic_direct", "zeta_direct"])
def test_direct_oracles_share_the_moebius_guard(oracle, monkeypatch):
    _refused_unlisted(oracle, monkeypatch)


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
    by_type = {}
    for mask, _, typ, _ in poset.members():
        by_type.setdefault(typ, []).append(mask)
    for t, below in by_type.items():
        if t.is_irreducible:
            expected = own_census(str(t))
            assert poset._scan(below[0])[0] == expected
            assert poset._scan(below[-1])[0] == expected


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_element_view_is_the_eager_walk(name):
    """The elements expanded from the orbit records (``members``) are
    those of the eager walk, in its order, with its ranks, types and
    complements; ``ranked`` lists them level by level from the bottom,
    and the records of each type are the eager walk's orbits."""
    poset, eager = enumerate_nc(name), eager_walk(name)
    assert list(poset.members()) == \
        [tuple(el) for el in eager.elements.values()]
    assert poset.ranked() == [(el.key, el.rank)
                              for level in eager.levels for el in level]
    assert [record[:2] for record in poset.records] == \
        [(head.key, size) for head, size in eager.orbits]
    heads = {}
    for head, _ in eager.orbits:
        heads.setdefault(head.typ, []).append(head.key)
    assert {t: [record[0] for record in poset.records_of(t)]
            for t in heads} == heads
    assert poset.rank_sizes() == eager.rank_sizes()
    assert poset.type_counts() == {t: len(els)
                                   for t, els in eager.by_type.items()}
    assert list(poset.type_counts()) == list(eager.by_type)
    assert len(poset) == len(eager.elements) == len(poset.types)
    assert poset.types == {el.key: el.typ for el in eager.elements.values()}


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_censuses_from_records_are_the_element_scan(name, monkeypatch):
    """``NcPoset.census`` of every irreducible type of a fresh poset,
    asked for in order of discovery, counts what the eager walk's element
    scan counts below the first element of that type, A types read
    inside the pool of a larger interval included; where the census
    scanned the records in full, and at the top, keys in the scan's
    order."""
    poset, eager = enumerate_nc.__wrapped__(name), eager_walk(name)
    inside = []
    scan = ncposet.NcPoset._scan

    def recorded(self, q, pool=None):
        if pool is not None:
            inside.append(self.types[q])
        return scan(self, q, pool)

    monkeypatch.setattr(ncposet.NcPoset, "_scan", recorded)
    for t, below in eager.by_type.items():
        if t.is_irreducible:
            census, scanned = poset.census(t), eager.interval_scan(below[0])
            assert census == scanned, t
            if t not in inside:
                assert list(census) == list(scanned), t
    if poset.rs.n > 2:             # A1 is read inside an interval below c
        assert label("A1") in inside


@pytest.mark.parametrize("name", ["D5", "D6", "D7", "D8", "E6", "E7", "E8"])
def test_lower_censuses_are_the_interval_censuses(name):
    """The first census below the top reads every D and E type below
    it, largest first, then its own type, and keeps each once on the
    poset; each equals the census scanned below the head of the first
    c-orbit of its type.  A type with no element is refused."""
    poset = enumerate_nc.__wrapped__(name)
    first = poset.census(label("A1"))
    lower = sorted((t for t in poset.type_counts() if t.is_irreducible
                    and t.rank < poset.rs.n and t.components[0][0] != "A"),
                   key=lambda t: t.rank, reverse=True)
    assert list(poset._censuses) == lower + [label("A1")]
    assert poset.census(label("A1")) is first
    for t in lower:
        assert poset.census(t) == poset._scan(poset.records_of(t)[0][0])[0]
    assert len(poset._censuses) == len(lower) + 1
    with pytest.raises(KeyError, match="no element of type A9"):
        poset.census(label("A9"))


def test_a_pool_scan_is_the_scan_of_the_records():
    # below an element of the E7 interval of NC(E8), the census read off
    # the interval's pool is the records' scan, keys in its order, and
    # so is the pool it keeps
    poset = enumerate_nc("E8")
    _, pool = poset._scan(poset.records_of(label("E7"))[0][0])
    records, powers = pool
    assert sum(map(len, powers)) == 4160
    for t in ("E6", "D6", "A6", "D5", "A1"):
        k = next(k for k, record in enumerate(records)
                 if record[3] == label(t))
        orbit = poset.layout.orbit(records[k][0])
        for j in (powers[k][0], powers[k][-1]):
            census, below = poset._scan(orbit[j], pool)
            scanned, whole = poset._scan(orbit[j])
            assert census == scanned and list(census) == list(scanned), t
            assert below == whole, t


# a cold ``verify e8`` in a fresh process: the types of the intervals
# whose census scans the orbit records in full, and of the censuses of
# type A
SCANS = r"""
import contextlib, io
from noncross import ncposet
from noncross.cli import main
full, typeA = [], []
below, census = ncposet.NcPoset._below, ncposet.NcPoset.census
def counted_below(self, q, rotations, pool):
    if pool is None:
        full.append(str(self.types[q]))
    return below(self, q, rotations, pool)
def counted_census(self, t):
    if t.components[0][0] == "A":
        typeA.append(str(t))
    return census(self, t)
ncposet.NcPoset._below = counted_below
ncposet.NcPoset.census = counted_census
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "e8"]) == 0
print(*sorted(full), "|", *typeA)
"""


def test_verify_e8_scans_two_intervals_and_no_type_A_census():
    # chi* counts type-A elements by the closed form, and every lower D
    # and E census but E7's and D7's is read inside a smaller interval
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncposet.__file__)))
    child = subprocess.run([sys.executable, "-c", SCANS],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True)
    assert child.stdout == "D7 E7 |\n"


# a cold ``verify e8`` in a fresh process, counting the calls that list
# the elements of a walked poset
NO_ELEMENTS = r"""
import contextlib, io
from noncross import ncposet
from noncross.cli import main
listed = []
members = ncposet.NcPoset.members
def counted(self):
    listed.append(1)
    return members(self)
ncposet.NcPoset.members = counted
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "e8"]) == 0
print(len(ncposet.enumerate_nc("E8")), len(listed))
"""


def test_verify_e8_builds_no_element_object():
    # the pipeline reads the orbit records and never expands them
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncposet.__file__)))
    child = subprocess.run([sys.executable, "-c", NO_ELEMENTS],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True)
    assert child.stdout == "25080 0\n"


def test_census_is_kept_once_per_label():
    # the module census copies the census kept on the poset it reads
    first = ncposet.census("D5")
    first[next(iter(first))] += 1             # a copy: the kept one is intact
    poset = min((poset for poset in ncposet._WALKED.values()
                 if poset.records_of(label("D5"))), key=len)
    kept = dict(poset._censuses)
    assert ncposet.census(label("D5")) == own_census("D5")
    assert poset._censuses == kept and poset.census(label("D5")) is \
        kept[label("D5")][0]


# a census of a label that is not irreducible in a fresh process, before
# and after a walk: the refusal does not depend on what was walked
NOT_IRREDUCIBLE = r"""
import sys
from noncross import ncposet
if sys.argv[2] == "after":
    ncposet.enumerate_nc("A5")
try:
    ncposet.census(sys.argv[1])
except ValueError as err:
    print(err, *sorted(ncposet._WALKED))
"""


@pytest.mark.parametrize("order", ["before", "after"])
@pytest.mark.parametrize("text", ["A1*A2", "0", "A1^2"])
def test_census_refuses_a_label_that_is_not_irreducible(text, order):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncposet.__file__)))
    child = subprocess.run([sys.executable, "-c", NOT_IRREDUCIBLE, text,
                            order], env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True)
    walked = " A5" if order == "after" else ""
    assert child.stdout == "a census needs an irreducible type, not %r%s\n" \
        % (str(label(text)), walked)


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
    # the integer rows in binom(m, k) z^j, mapped to powers of m, against
    # the closed form less 1 as a Fraction polynomial, times the forms'
    # denominator: same rows, same order, int right sides
    for t in all_labels_of_rank(rank):
        rows, den = zeta_rows(t)
        assert (in_powers_of_m(rows, den, rank)
                == zeta_rows_by_polynomials(t)), t
        assert [kj for kj, _, _ in rows] == sorted(kj for kj, _, _ in rows)
        assert all(type(rhs) is int for _, _, rhs in rows), t


def test_zeta_rows_refuse_a_non_integral_right_side(monkeypatch):
    # over denominator 1 the A2 closed form has Fraction coefficients
    monkeypatch.setattr(closedform, "zeta_forms", lambda n: ({}, 1))
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
        published = polynomial.ONE
        for comp in t.irreducibles():
            published = published * chi_star_reference(str(comp))
        chi = typed(characteristic_polynomial(t))
        assert chi == typed(characteristic_polynomial_by_products(t)), t
        assert chi == typed(published), t
        assert all(kind is int for kind, _ in chi.values()), t


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_chi_star_is_the_census_sum(name):
    # chi* from the counts of each type equals the sum over the pair
    # census, the formula it replaced, with int terms
    chi = characteristic_polynomial(label(name))
    assert chi == characteristic_polynomial_by_census(name)
    assert all(type(c) is int for c in chi.terms.values())


@pytest.mark.parametrize("rank", range(2, 5))
def test_reducible_chi_star_is_the_census_sum(rank):
    for t in all_labels_of_rank(rank):
        if not t.is_irreducible:
            chi = characteristic_polynomial(t)
            assert chi == characteristic_polynomial_by_census(t), t
            assert all(type(c) is int for c in chi.terms.values()), t


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
    chi = polynomial.ZERO
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
    # both chi* caches: the polynomials and the y-vectors read off them
    characteristic_polynomial.cache_clear()
    decomp.chi_vector.cache_clear()
    try:
        with pytest.raises(AssertionError) as raised:
            assemble_dual("D4", table)
        assert str(raised.value) == message
    finally:
        characteristic_polynomial.cache_clear()
        decomp.chi_vector.cache_clear()


def test_zeta_closed_counts_elements():
    # zeta at z=2 is the number of elements
    for name in ("A3", "D4", "E6"):
        assert zeta_closed(label(name)).evaluate(z=2) == SIZES[name]


def test_zeta_closed_is_cached_once_per_value_of_m():
    # a default, a keyword and a positional m = 1 are one entry
    zeta_closed.cache_clear()
    spellings = (zeta_closed("A2"), zeta_closed("A2", m=1),
                 zeta_closed(label("A2"), 1))
    assert spellings[0] is spellings[1] is spellings[2]
    assert zeta_closed.cache_info().currsize == 1
    assert zeta_closed("A2", m=2) is not spellings[0]


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


def test_a_doctored_element_count_fails_the_walk(monkeypatch):
    real = ncposet.ncm_cardinality
    monkeypatch.setattr(ncposet, "ncm_cardinality",
                        lambda t, m: real(t, m) + 1)
    with pytest.raises(AssertionError,
                       match=r"NC\(D5\) has 182 elements, expected 183"):
        enumerate_nc.__wrapped__("D5")


@pytest.mark.parametrize("argv", [
    ["chi", "E8*A1^600"], ["chi", "D601"], ["zeta", "E8^76"],
    ["nc", "enumerate", "A601"], ["mtriangle", "E8^76"],
    ["decomp", "count", "A601", "A1"],
])
def test_no_command_counts_a_label_above_the_zeta_guard(argv, monkeypatch):
    # |NC^m| in integers has no rank guard, which only ever saw labels of
    # the walked ambients: no command reaches it with any other label
    seen, real = [], ncposet.ncm_cardinality
    monkeypatch.setattr(ncposet, "ncm_cardinality",
                        lambda t, m: seen.append(str(t)) or real(t, m))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            contextlib.suppress(SystemExit):
        main(argv)
    assert set(seen) <= set(SUPPORTED_AMBIENTS)


@pytest.mark.parametrize("rank", range(1, 9))
def test_degree_products_match_the_symbolic_closed_form(rank):
    # the shifted zeta vectors and |NC^m| multiply over the degree table,
    # every ambient among the labels; the oracles substitute z - 1 and
    # z = 2 into the closed form
    for t in all_labels_of_rank(rank):
        vec, den = closedform._shifted_zeta_vector(t)
        assert len(vec) == rank + 1 and den > 0 and gcd(den, *vec) == 1
        assert zeta_shifted(t).terms == {
            (0, 0, j, 0): Fraction(c, den) for j, c in enumerate(vec) if c}
        for m in range(5):
            count = ncm_cardinality(t, m)
            assert count == ncm_cardinality_by_zeta(t, m), t
            assert type(count) is int, t
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
    top_rank = max(rank for _, rank in ncm.elements)
    assert top_rank == 3


def _ncm_by_elements(name, m):
    """NC^m by descent over the eager walk's elements: each w_i runs
    over the elements below the complement of the ones chosen before
    it.  Returns the (key, rank) pairs in the order found."""
    eager = eager_walk(name)
    found = []

    def descend(rest, prefix):
        if len(prefix) == m:
            found.append((tuple(el.key for el in prefix),
                          eager.top.rank - sum(el.rank for el in prefix)))
            return
        for u in eager.elements.values():
            if u.key & rest.key == u.key:
                descend(eager.elements[u.comp & rest.key], prefix + [u])

    descend(eager.top, [])
    return found


@pytest.mark.parametrize("name, m", [("A2", 3), ("A3", 2), ("A3", 3),
                                     ("D4", 2)])
def test_build_ncm_is_the_descent_over_the_eager_walk(name, m):
    ncm = build_ncm(name, m)
    assert ncm.m == m
    assert ncm.elements == _ncm_by_elements(name, m)


def test_build_ncm_guard():
    assert ncm_cardinality(label("E6"), 3) == 119_966 \
        > direct.MAX_NCM_SIZE == 100_000
    with pytest.raises(ResourceGuardError,
                       match=r"\|NC\^m\| = 119966 exceeds guard 100000"):
        build_ncm("E6", 3)


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_cache_text_is_the_eager_walk_by_levels(name):
    # the header, then every element of the eager walk, level by level
    # from the identity, each level in the order of the walk
    eager = eager_walk(name)
    lines = [json.dumps({"schema_version": ncposet.CACHE_SCHEMA_VERSION,
                         "ambient": name})]
    lines += [json.dumps({"mask": format(el.key, "x"), "rank": el.rank,
                          "type": str(el.typ)})
              for level in eager.levels for el in level]
    assert ncposet._cache_text(enumerate_nc(name)) == "\n".join(lines) + "\n"


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
        if length == 2 and mask not in poset.types:
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
