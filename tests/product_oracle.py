"""The product rule key by key, kept as the reference for the product
tables of ``decomp``.

A value of a product ambient is counted on its own: every entry of the
key has its component multiset split between the first factor and the
rest in every way, only splits giving the first factor exactly its rank
count, and the two parts are counted independently, the rest by the same
rule.  A rank-deficient lookup is the sum over one extra factor of every
type of the complementary rank.  Nothing here reads an index, a
matching or a table built by ``decomp`` from other tables.
"""

from functools import lru_cache

from noncross.decomp import all_labels_of_rank, canonical_tuple, tuple_rank
from noncross.typelabel import TypeLabel


def _reference_lookup(table, types):
    """A lookup in one table, a rank-deficient key as the sum over every
    type of the complementary rank."""
    key = canonical_tuple(types)
    s, n = tuple_rank(key), table.ambient.rank
    if s > n:
        return 0
    if not key:
        return 1
    if s == n:
        return table.entries.get(key, 0)
    return sum(table.entries.get(canonical_tuple(key + (extra,)), 0)
               for extra in all_labels_of_rank(n - s))


def _reference_count_product(factors, types):
    """N(types) on the product of the factors, splitting every entry's
    component multiset between the first factor and the rest."""
    return _split_count(tuple(factors), canonical_tuple(types))


@lru_cache(maxsize=None)
def _split_count(factors, key):
    """``_reference_count_product`` of a canonical key, memoized on the
    factor tables and the key, so that the parts left for the rest are
    counted once each."""
    if not factors:
        return 0 if key else 1
    if len(factors) == 1:
        return _reference_lookup(factors[0], key)
    head, rest = factors[0], factors[1:]
    total = 0
    for left, right in _reference_component_splits(
            [t.components for t in key], head.ambient.rank):
        left_tuple = [TypeLabel(c) for c in left if c]
        right_tuple = canonical_tuple(TypeLabel(c) for c in right if c)
        total += (_reference_lookup(head, left_tuple)
                  * _split_count(rest, right_tuple))
    return total


def _reference_component_splits(component_lists, left_rank):
    """Every way to split each component list in two, as (left parts,
    right parts), whose left parts have rank ``left_rank`` in all."""
    results = []

    def recurse(i, left_acc, right_acc, left_sum):
        if left_sum > left_rank:
            return
        if i == len(component_lists):
            if left_sum == left_rank:
                results.append((list(left_acc), list(right_acc)))
            return
        comps = component_lists[i]
        seen = set()
        for mask in range(1 << len(comps)):
            left = tuple(sorted(comps[j] for j in range(len(comps))
                                if mask >> j & 1))
            if left in seen:
                continue
            seen.add(left)
            right = list(comps)
            for item in left:
                right.remove(item)
            left_acc.append(left)
            right_acc.append(tuple(right))
            recurse(i + 1, left_acc, right_acc,
                    left_sum + sum(r for _, r in left))
            left_acc.pop()
            right_acc.pop()

    recurse(0, [], [], 0)
    return results


def _reference_product_value(factors, types):
    """N(types) on the product of the factors: the re-splitting
    reference on a full-rank key, and on a rank-deficient key the sum of
    the reference over one extra factor of every type of the
    complementary rank (the empty key counts 1)."""
    key = canonical_tuple(types)
    s = tuple_rank(key)
    n = sum(t.ambient.rank for t in factors)
    if s >= n:
        return _reference_count_product(factors, key)
    if not key:
        return 1
    return sum(_reference_count_product(factors, key + (extra,))
               for extra in all_labels_of_rank(n - s))
