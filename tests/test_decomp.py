"""Decomposition numbers: brute force, closed forms, product rule, tables."""

import random
import re
from itertools import permutations

import pytest

from noncross.decomp import (DecompositionTable, all_labels_of_rank,
                             all_tuples_of_rank, canonical_tuple,
                             census_table, count_bruteforce, count_product,
                             count_typeA, full_table, lower_table, orderings,
                             product_table, special_values, table_product,
                             tuple_rank)
from lookup_oracle import CanonicalLookup
from product_oracle import _reference_lookup, _reference_product_value
from noncross.linsys import replay
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
    a = count_bruteforce("D4", L("A1", "A1", "A2"))
    b = count_bruteforce("D4", L("A2", "A1", "A1"))
    assert a == b


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
    memo = {}
    for s in range(0, n + 1):
        for key in all_tuples_of_rank(s):
            if any(f != "A" for t in key for f, _ in t.components):
                continue
            assert count_typeA(n, key) == count_bruteforce(name, key,
                                                           _memo=memo)


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
    for key in all_tuples_of_rank(3):
        assert tuple_rank(key) == 3
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
# the census route against the descent, the closed form and the product rule


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "E6"])
def test_census_table_matches_bruteforce(name):
    table = census_table(name)
    assert table.provenance == "census"
    memo = {}
    for key in all_tuples_of_rank(label(name).rank):
        assert table.entries.get(key, 0) == \
            count_bruteforce(name, key, _memo=memo), key


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
    table = lower_table(t)
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
    table = lower_table(t)
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
    empty = lower_table(EMPTY_TYPE)
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
    assert product_table(()) is lower_table(EMPTY_TYPE)
    assert product_table(()).entries == {(): 1}
    assert product_table((a2,)) is a2


@pytest.mark.parametrize("name", ["D4", "D7", "E6", "E7"])
def test_census_table_keys_in_tuple_order(name):
    entries = census_table(name).entries
    assert list(entries) == [key for key in all_tuples_of_rank(
        label(name).rank) if key in entries]


@pytest.mark.parametrize("name", ["A1*D4", "A2*A3"])
def test_full_table_refuses_reducible_ambient(name):
    # A1*D4 used to take the type-A branch and return the A5 table
    with pytest.raises(ValueError, match=re.escape(name)):
        full_table(name)


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
    assert (indexed._deficient is None) == (table.ambient.rank == 1)


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


def test_tables_the_package_builds_keep_the_key_contract():
    # refdata is covered above; type A, census, product and replay here
    for name in SUPPORTED_AMBIENTS:
        table = full_table(name)
        assert table.provenance in ("typeA-closed-form", "census"), name
        _assert_key_contract(table)
    for rank in range(8):
        for t in all_labels_of_rank(rank):
            _assert_key_contract(lower_table(t))
    for name in ("A4", "D4", "D5", "E6"):
        _assert_key_contract(replay(name).final_table)
