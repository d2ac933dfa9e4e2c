"""Decomposition numbers: brute force, closed forms, product rule, tables."""

import importlib
import random
from itertools import permutations

import pytest

from noncross import decomp
from noncross.decomp import (DecompositionTable, all_labels_of_rank,
                             all_tuples_of_rank, canonical_tuple,
                             census_table, count_bruteforce, count_product,
                             count_typeA, full_table, orderings,
                             product_table, special_values, table_product,
                             tuple_rank)
from bruteforce_oracle import count_by_elements
from lookup_oracle import CanonicalLookup
from product_oracle import _reference_lookup, _reference_product_value
from noncross.linsys import PIN_TUPLES, replay
from noncross.ncposet import enumerate_nc
from noncross.refdata import REFERENCE_TABLE_NAMES, reference_table
from noncross.rootsystem import SUPPORTED_AMBIENTS, build_root_system
from noncross.typelabel import EMPTY_TYPE, label


def L(*names):
    return tuple(label(s) for s in names)


def test_canonical_tuple_sorts():
    assert canonical_tuple(L("A2", "A1", "A1")) == L("A1", "A1", "A2")
    assert tuple_rank(L("A1", "D4")) == 5


def test_orderings_multinomial():
    assert orderings(L("A1", "A1", "A2")) == 3      # 3!/2!
    assert orderings(L("A1", "A2", "D4")) == 6
    assert orderings(()) == 1


def test_permutation_invariance():
    # the descent in the given order does not depend on it, which
    # count_bruteforce relies on when it sorts the key
    a = count_by_elements("D4", L("A1", "A1", "A2"))
    b = count_by_elements("D4", L("A2", "A1", "A1"))
    assert a == b == count_bruteforce("D4", L("A2", "A1", "A1"))


def test_bruteforce_memo_is_kept_on_the_walked_poset():
    counts = enumerate_nc("E7")._counts
    assert count_bruteforce("E7", "A1^3,A1^4".split(",")) == 9
    held = len(counts)
    assert held
    # another spelling of the key is the same canonical key
    spellings = ("A1^4,A1^3".split(","), L("A1^4", "A1^3"),
                 ("A1^4", "0", "A1^3"))
    for key in spellings:
        assert count_bruteforce("E7", key) == 9
    assert len(counts) == held


def test_single_factor_counts_elements_of_type():
    # N(T) with rk T = n counts rank-n elements of that type
    assert count_bruteforce("A3", L("A3")) == 1
    assert count_bruteforce("D4", L("D4")) == 1
    # the three rank-3 elements of type A1^3 in NC(D4)
    assert count_bruteforce("D4", L("A1^3")) == 3


def test_empty_tuple_is_one():
    assert count_bruteforce("A3", ()) == 1


def test_typeA_closed_form_small():
    # classical: factorizations of an (n+1)-cycle into n transpositions
    # number (n+1)^(n-1)
    for n in (2, 3, 4):
        assert count_typeA(n, L(*(["A1"] * n))) == (n + 1) ** (n - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_typeA_closed_form_vs_bruteforce(n):
    name = "A%d" % n
    for s in range(0, n + 1):
        for key in all_tuples_of_rank(s):
            if any(f != "A" for t in key for f, _ in t.components):
                continue
            assert count_typeA(n, key) == count_bruteforce(name, key)


def test_product_rule_reducible_ambient():
    # N_{A1*A2}(T1,T2) must match direct brute force over the tuple splits
    factors = (full_table("A1"), full_table("A2"))
    assert count_product(factors, L("A1", "A2")) == \
        count_bruteforce("A1", L("A1")) * count_bruteforce("A2", L("A2"))
    # three choices of which tuple slot lands in the A1 component
    value = count_product(factors, L("A1", "A1", "A1"))
    expected = 3 * (count_bruteforce("A1", L("A1"))
                    * count_bruteforce("A2", L("A1", "A1")))
    assert value == expected


def test_all_labels_of_rank():
    assert set(map(str, all_labels_of_rank(1))) == {"A1"}
    assert set(map(str, all_labels_of_rank(2))) == {"A1^2", "A2"}
    assert set(map(str, all_labels_of_rank(3))) == {"A1^3", "A1*A2", "A3"}
    assert label("D4") in all_labels_of_rank(4)


def test_all_tuples_of_rank():
    tuples2 = list(all_tuples_of_rank(2))
    assert canonical_tuple(L("A1", "A1")) in tuples2
    assert canonical_tuple(L("A2")) in tuples2
    assert canonical_tuple(L("A1^2")) in tuples2
    for rank in range(1, 9):
        for key in all_tuples_of_rank(rank):
            assert tuple_rank(key) == rank
            assert key == canonical_tuple(key)


def test_lookup_deficient_expansion():
    # N(U) for rk U < n must equal the sum over one full-rank completion
    table = full_table("A3")
    direct = count_bruteforce("A3", L("A1",))
    assert table.lookup(L("A1",)) == direct
    assert table.lookup(()) == 1
    assert table.lookup(L("D4",)) == 0


def test_special_values_match_bruteforce():
    for name in ("A3", "D4", "D5"):
        rs = build_root_system(name)
        for key, value in special_values(name).items():
            assert value == count_bruteforce(name, key), (name, key)
        # sanity of the classical anchors
        n, h = rs.n, rs.coxeter_number
        sv = special_values(name)
        assert sv[canonical_tuple(L(name))] == 1
        assert sv[canonical_tuple(L("A1"))] == rs.num_positive_roots


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "D4"])
def test_full_table_matches_reference(name):
    computed = {k: v for k, v in full_table(name).entries.items() if v}
    published = {k: v for k, v in reference_table(name).items() if v}
    assert computed == published


def test_table_rejects_overfull_rank():
    table = full_table("A2")
    assert table.lookup(L("A2", "A1")) == 0


# ---------------------------------------------------------------------------
# the product rule and deficient lookups against the key-by-key oracle


def _published(name):
    return DecompositionTable(name, reference_table(name))


@pytest.mark.parametrize("ambient", [("E7", "A1"), ("D4", "D4"),
                                     ("E6", "A2"), ("D5", "A3"),
                                     ("A3", "A2", "A1"), ("D4", "A3", "A1")],
                         ids="*".join)
def test_product_rule_matches_resplitting_reference(ambient):
    # full-rank keys against the reference, rank-deficient ones against
    # its one-extra-factor sum
    factors = [_published(name) for name in ambient]
    n = sum(t.ambient.rank for t in factors)
    for s in range(n + 1):
        for key in all_tuples_of_rank(s):
            assert count_product(factors, key) == \
                _reference_product_value(factors, key), key


@pytest.mark.parametrize("ambient, key, value", [
    (("A2", "A1"), ("A1",), 4),
    (("A1", "A1"), ("A1",), 2),
    (("A1", "A1"), (), 1),
    (("A2", "A1"), (), 1),
    (("A2", "A1", "A1"), (), 1),
    (("A2", "A1", "A1"), ("A1",), 5),
    (("A2", "A1"), ("A1", "A1"), 9),
])
def test_product_rule_on_rank_deficient_keys(ambient, key, value):
    # N(A1) is the number of reflections of the product, and N() = 1;
    # N(A1, A1) on A2*A1 counts the 3 reduced factorizations of the A2
    # Coxeter element and the 3 * 2 ordered pairs taking one reflection
    # from each factor: 3 + 6 = 9.  Every factor order agrees.
    factors = [full_table(name) for name in ambient]
    for order in (factors, factors[::-1], factors[1:] + factors[:1]):
        assert count_product(order, L(*key)) == value, order


def _scrambled(key, rng):
    """The key's labels in a seeded order, some written as text, with
    empty types (the label object and its text ``0``) put in."""
    types = [str(t) if rng.random() < 0.5 else t for t in key]
    for _ in range(rng.randrange(3)):
        types.insert(rng.randrange(len(types) + 1),
                     rng.choice((EMPTY_TYPE, "0")))
    rng.shuffle(types)
    return tuple(types)


@pytest.mark.parametrize("ambient", [("A2", "A1"), ("A1", "D4"),
                                     ("A2", "A1", "A3"),
                                     ("A1", "A1", "A2", "A3")],
                         ids="*".join)
def test_product_rule_on_unsorted_text_and_empty_keys(ambient):
    # every spelling of a key must give the re-splitting reference's
    # value
    factors = [_published(name) for name in ambient]
    n = sum(t.ambient.rank for t in factors)
    rng = random.Random(7)
    for s in range(n + 1):
        for key in all_tuples_of_rank(s):
            types = _scrambled(key, rng)
            expected = _reference_product_value(factors, types)
            assert expected == _reference_product_value(factors, key), key
            assert count_product(factors, types) == expected, types


def test_canonical_tuple_parses_text_and_drops_empties():
    assert canonical_tuple(("A2", EMPTY_TYPE, label("A1"), "0", "A1")) == \
        L("A1", "A1", "A2")
    assert canonical_tuple(("0", EMPTY_TYPE)) == ()
    assert canonical_tuple(iter(L("D4", "A1"))) == L("A1", "D4")
    rng = random.Random(3)
    for key in all_tuples_of_rank(6):
        assert canonical_tuple(_scrambled(key, rng)) == key


@pytest.mark.parametrize("name", REFERENCE_TABLE_NAMES)
def test_deficient_lookup_matches_sum_over_extra_types(name):
    table = _published(name)
    n = table.ambient.rank
    for s in range(n + 2):
        for key in all_tuples_of_rank(s):
            assert table.lookup(key) == _reference_lookup(table, key), key


# ---------------------------------------------------------------------------
# the descent per c-orbit at the top against the element-by-element one


def _bruteforce_keys(name):
    """Every canonical key of rank at most 4 (rank n + 1 at most: keys
    above the ambient rank, rank-deficient keys, three-factor keys among
    them), the E7 and E8 pin tuples as text, and three seeded full-rank
    keys of three factors."""
    n = label(name).rank
    keys = [key for rank in range(min(4, n + 1) + 1)
            for key in all_tuples_of_rank(rank)]
    if name in ("E7", "E8"):
        keys += PIN_TUPLES[name]
    three = [key for key in all_tuples_of_rank(n) if len(key) == 3]
    return keys + random.Random(name).sample(three, min(3, len(three)))


@pytest.mark.parametrize("name", SUPPORTED_AMBIENTS)
def test_bruteforce_per_orbit_matches_element_descent(name):
    keys = _bruteforce_keys(name)
    expected = [count_by_elements(name, key) for key in keys]
    assert [count_bruteforce(name, key) for key in keys] == expected
    # the second pass answers from the memo kept on the walked poset
    assert [count_bruteforce(name, key) for key in keys] == expected


@pytest.mark.parametrize("name", ["D4", "D5", "E6", "D6", "D7", "A6", "A7"])
def test_bruteforce_matches_element_descent_on_appendix_keys(name):
    # every full-rank key that ``verify appendix`` brute-forces: below
    # the top, the descent runs each orbit from its head against the
    # rotations of the element, and conjugates share one memo entry
    keys = list(all_tuples_of_rank(label(name).rank))
    assert [count_bruteforce(name, key) for key in keys] == \
        [count_by_elements(name, key) for key in keys]


# ---------------------------------------------------------------------------
# the census route against the descent, the closed form and the product rule


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "E6"])
def test_census_table_matches_bruteforce(name):
    table = census_table(name)
    assert table.provenance == "census"
    for key in all_tuples_of_rank(label(name).rank):
        assert table.entries.get(key, 0) == count_bruteforce(name, key), key


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_census_table_matches_typeA_closed_form(n):
    table = census_table("A%d" % n)
    for key in all_tuples_of_rank(n):
        if any(f != "A" for t in key for f, _ in t.components):
            assert key not in table.entries, key
        else:
            assert table.entries.get(key, 0) == count_typeA(n, key), key


@pytest.mark.parametrize("ambient", ["A1*A2", "A1^2*A3", "A2*D4", "A1*E6",
                                     "A1*A2*D5"])
def test_lower_count_of_reducible_type_matches_product_rule(ambient):
    # the factors are the published tables, independent of the census
    t = label(ambient)
    factors = [DecompositionTable(c, reference_table(c))
               for c in map(str, t.irreducibles())]
    table = full_table(t)
    for s in range(t.rank + 1):
        for key in all_tuples_of_rank(s):
            expected = _reference_product_value(factors, key)
            assert table.lookup(key) == expected, key
            assert count_product(factors, key) == expected, key


# ---------------------------------------------------------------------------
# the product tables against the key-by-key oracle


@pytest.mark.parametrize("t", [t for r in range(2, 9)
                               for t in all_labels_of_rank(r)
                               if not t.is_irreducible], ids=str)
def test_lower_table_matches_product_rule(t):
    # every key of rank up to the type's, rank-deficient ones included
    table = full_table(t)
    assert table.ambient is t
    assert all(tuple_rank(key) == t.rank and value
               for key, value in table.entries.items())
    factors = [full_table(str(c)) for c in t.irreducibles()]
    for s in range(t.rank + 1):
        for key in all_tuples_of_rank(s):
            assert table.lookup(key) == \
                _reference_product_value(factors, key), key


@pytest.mark.parametrize("ambient", [("E7", "A1"), ("D4", "D4"),
                                     ("E6", "A2"), ("D5", "A3"),
                                     ("A3", "A2", "A1"), ("D4", "A3", "A1")],
                         ids="*".join)
def test_table_product_matches_resplitting_reference(ambient):
    # the factors are the published tables, independent of the census
    factors = [_published(name) for name in ambient]
    table = product_table(tuple(factors))
    assert table.ambient is label("*".join(ambient))
    for s in range(table.ambient.rank + 1):
        for key in all_tuples_of_rank(s):
            assert table.lookup(key) == \
                _reference_product_value(factors, key), key


@pytest.mark.parametrize("ambient", [("A1", "A1"), ("A2", "A1", "A1"),
                                     ("D4", "A2"), ("A2", "A1", "A3"),
                                     ("A1", "A1", "A2", "A3")],
                         ids="*".join)
def test_table_product_does_not_depend_on_factor_order(ambient):
    factors = [_published(name) for name in ambient]
    tables = [product_table(order) for order in permutations(factors)]
    for table in tables[1:]:
        assert table.ambient is tables[0].ambient
        assert table.entries == tables[0].entries
    # the empty ambient is the unit of the product
    empty = full_table(EMPTY_TYPE)
    for table in tables[:1] + factors:
        for product in (table_product(empty, table),
                        table_product(table, empty)):
            assert product.ambient is table.ambient
            assert product.entries == table.entries


@pytest.mark.parametrize("ambient, key, value", [
    (("A2", "A1"), ("A1",), 4),
    (("A1", "A1"), ("A1",), 2),
    (("A1", "A1"), (), 1),
    (("A2", "A1", "A1"), ("A1",), 5),
    (("A2", "A1"), ("A1", "A1"), 9),
])
def test_table_product_on_rank_deficient_keys(ambient, key, value):
    # the values of test_product_rule_on_rank_deficient_keys, in every
    # factor order
    for order in permutations(full_table(name) for name in ambient):
        assert product_table(order).lookup(L(*key)) == value, order


def test_product_table_is_keyed_by_tables_not_ambients():
    # two A2 tables that differ in the entry (A1, A1), which the key
    # (A1, A1, A1) of A2*A1 reads: each pair of factors gets its own table
    a2, a1 = _published("A2"), _published("A1")
    entries = dict(a2.entries)
    entries[L("A1", "A1")] += 1
    raised = DecompositionTable("A2", entries)
    key = L("A1", "A1", "A1")
    values = []
    for factors in ((a2, a1), (raised, a1)):
        values.append(count_product(factors, key))
        assert values[-1] == _reference_product_value(factors, key), factors
    assert values[0] != values[1]
    assert product_table(()) is full_table(EMPTY_TYPE)
    assert product_table(()).entries == {(): 1}
    assert product_table((a2,)) is a2


@pytest.mark.parametrize("name", ["D4", "D7", "E6", "E7"])
def test_census_table_keys_in_tuple_order(name):
    entries = census_table(name).entries
    assert list(entries) == [key for key in all_tuples_of_rank(
        label(name).rank) if key in entries]


@pytest.mark.parametrize("name", ["A1*D4", "A2*A3"])
def test_full_table_of_reducible_ambient_is_its_product(name):
    # A1*D4 once took the type-A branch and returned the A5 table
    table = full_table(name)
    assert table.ambient is label(name)
    assert table is full_table(label(name))
    assert table.entries == product_table(tuple(
        full_table(str(c)) for c in label(name).irreducibles())).entries


# every function cached per type (``typelabel.per_type``), with a small
# type it answers besides A3
PER_TYPE = {
    "rootsystem.degrees": "E6", "rootsystem.build_root_system": "D4",
    "rootsystem.subdiagram_types": "E6", "weyl._reflection_data": "D4",
    "ncposet.coxeter_root_permutation": "E6", "ncposet._root_tables": "D4",
    "ncposet.mask_layout": "E6", "ncposet._descent_masks": "D4",
    "ncposet.enumerate_nc": "E6", "ncposet.characteristic_polynomial": "D4",
    "closedform.zeta_closed": "E6", "closedform.zeta_rows": "D4",
    "decomp.full_table": "E6", "decomp.census_table": "D4",
    "linsys.replay": "D4",
}


@pytest.mark.parametrize("fn, name", [
    (fn, name) for fn, small in PER_TYPE.items() for name in ("A3", small)
] + [("decomp.full_table", name) for name in ("E7", "A1*D4", "0")])
def test_per_type_function_is_one_value_per_type(fn, name):
    # the text, the label, padded text and, for A3, its synonym D3 are one
    # call: one object, held in one cache entry
    module, attr = fn.split(".")
    fn = getattr(importlib.import_module("noncross." + module), attr)
    value = fn(name)
    size = fn.cache_info().currsize
    for spelling in [label(name), " %s " % name] + ["D3"] * (name == "A3"):
        assert fn(spelling) is value, spelling
    assert fn.cache_info().currsize == size
    if attr == "full_table":
        assert value.ambient is label(name)


def test_product_table_cache_is_bounded():
    # a caller passing fresh tables on every call: the cache keeps at
    # most 128 tuples of them instead of every tuple
    e7, a1 = reference_table("E7"), reference_table("A1")
    key = L("E7", "A1")
    for _ in range(50):
        factors = (DecompositionTable("E7", e7), DecompositionTable("A1", a1))
        assert count_product(factors, key) == 1
    info = product_table.cache_info()
    assert info.maxsize == 128
    assert info.currsize <= 128


# ---------------------------------------------------------------------------
# the probing lookup against the canonicalizing oracle


def _assert_key_contract(table):
    # the class docstring: entries holds canonical full-rank keys
    n = table.ambient.rank
    for key in table.entries:
        assert type(key) is tuple and canonical_tuple(key) == key, key
        assert tuple_rank(key) == n, (table.ambient, key)


def _spellings(key):
    """A canonical key as held, and spelt in the ways only the
    canonicalizing path reads: reversed, as text labels, as a list and
    with an empty factor."""
    return (key, key[::-1], tuple(map(str, key)), list(key),
            key[:1] + (EMPTY_TYPE,) + key[1:])


def _assert_lookup_matches_oracle(table):
    """Every canonical key of rank 0 to n + 1 in every spelling: on a
    fresh table per lookup (no deficient index), then twice on one table
    (the index built during the first pass)."""
    oracle = CanonicalLookup(table)
    keys = [key for rank in range(table.ambient.rank + 2)
            for key in all_tuples_of_rank(rank)]
    queries = [spelt for key in keys for spelt in _spellings(key)]
    for query in queries:
        fresh = DecompositionTable(table.ambient, table.entries)
        assert fresh.lookup(query) == oracle.lookup(query), query
    indexed = DecompositionTable(table.ambient, table.entries)
    for _ in range(2):
        for query in queries:
            assert indexed.lookup(query) == oracle.lookup(query), query
    # a rank-1 table meets no nonempty rank-deficient key
    assert indexed._summed == (table.ambient.rank > 1)


@pytest.mark.parametrize("name", REFERENCE_TABLE_NAMES)
def test_lookup_matches_canonicalizing_oracle(name):
    table = _published(name)
    _assert_key_contract(table)
    _assert_lookup_matches_oracle(table)


@pytest.mark.parametrize("ambient", [("E7", "A1"), ("D4", "D4"),
                                     ("A1", "A2", "D5"), ("A3", "A2", "A1")],
                         ids="*".join)
def test_product_lookup_matches_canonicalizing_oracle(ambient):
    table = product_table(tuple(_published(name) for name in ambient))
    _assert_key_contract(table)
    _assert_lookup_matches_oracle(table)


@pytest.mark.parametrize("name", ["A1", "A4", "D5", "E6"])
def test_empty_key_without_ambient_entry(name):
    # N() = 1 by convention, not by the (ambient,) entry, which this
    # table lacks: the empty key is never read from the deficient index
    entries = dict(reference_table(name))
    del entries[L(name)]
    table = DecompositionTable(name, entries)
    assert table.lookup(()) == 1
    _assert_lookup_matches_oracle(table)


def _assert_answer_map(table, monkeypatch):
    """On a table not looked up before, against the oracle: first every
    canonical key of rank at most n in its other spellings, which leave
    the answer map holding the entries and the one-extra-factor sums
    only; then those keys as they are, twice, the second time without
    canonicalizing, after which the map holds them and nothing else;
    then every key of rank n + 1, which the map does not keep.
    ``entries`` never changes."""
    oracle = CanonicalLookup(table)
    entries = dict(table.entries)
    n = table.ambient.rank
    keys = [key for rank in range(n + 1) for key in all_tuples_of_rank(rank)]
    expected = [oracle.lookup(key) for key in keys]
    for key, value in zip(keys, expected):
        for spelt in _spellings(key)[1:]:
            if spelt != key:
                assert table.lookup(spelt) == value, spelt
    # the oracle's index holds the empty key too, which counts 1 apart
    summed = set(oracle._deficient or ()) - {()}
    assert set(table._answers) == set(entries) | summed
    assert [table.lookup(key) for key in keys] == expected
    with monkeypatch.context() as patched:
        patched.setattr(decomp, "canonical_tuple", None)
        assert [table.lookup(key) for key in keys] == expected
    assert set(table._answers) == set(keys)
    for key in all_tuples_of_rank(n + 1):
        assert table.lookup(key) == 0
        assert key not in table._answers
    assert len(table._answers) == len(keys)
    assert table.entries == entries


@pytest.mark.parametrize("name", REFERENCE_TABLE_NAMES)
def test_answer_map_keeps_canonical_answers_only(name, monkeypatch):
    _assert_answer_map(_published(name), monkeypatch)


def test_product_answer_map_keeps_canonical_answers_only(monkeypatch):
    # fresh factor tables make a product table of its own, not looked up
    _assert_answer_map(product_table((_published("D4"), _published("A3"))),
                       monkeypatch)


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_held_zero_entry_answers_zero(name):
    # the published E7 and E8 tables hold keys of value 0
    table = _published(name)
    zeros = [key for key, value in table.entries.items() if value == 0]
    assert zeros
    for key in zeros:
        assert table.lookup(key) == 0
        assert table.lookup(tuple(map(str, key))) == 0
    assert len(table._answers) == len(table.entries)


def test_tables_the_package_builds_keep_the_key_contract():
    # refdata is covered above; type A, census, product and replay here
    for name in SUPPORTED_AMBIENTS:
        table = full_table(name)
        assert table.provenance in ("typeA-closed-form", "census"), name
        _assert_key_contract(table)
    for rank in range(8):
        for t in all_labels_of_rank(rank):
            _assert_key_contract(full_table(t))
    for name in ("A4", "D4", "D5", "E6"):
        _assert_key_contract(replay(name).final_table)
