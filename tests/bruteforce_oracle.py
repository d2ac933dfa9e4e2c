"""The element-by-element descent, kept as the reference for
``decomp.count_bruteforce``.

Every level of the descent, the top included, runs the first factor
over every element of its type below the current element (a full-rank
last factor is forced); nothing is read per c-orbit.  Memoized on
(element, remaining suffix) within one call only.
"""

from noncross.decomp import tuple_rank
from noncross.ncposet import enumerate_nc
from noncross.typelabel import label


def count_by_elements(name, types):
    poset = enumerate_nc(name)
    types = tuple(t for t in map(label, types) if not t.is_empty)
    if tuple_rank(types) > poset.rs.n:
        return 0
    memo = {}

    def descend(el, suffix):
        if not suffix:
            return 1
        state = (el.key, suffix)
        if state not in memo:
            head, rest = suffix[0], suffix[1:]
            if not rest and head.rank == el.rank:
                # a full-rank last factor is forced
                memo[state] = 1 if el.typ == head else 0
            else:
                memo[state] = sum(descend(poset.complement(u, el), rest)
                                  for u in poset.by_type.get(head, ())
                                  if poset.le(u, el))
        return memo[state]

    return descend(poset.top, types)
