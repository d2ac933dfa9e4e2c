"""The element-by-element descent, kept as the reference for
``decomp.count_bruteforce``.

Every level of the descent, the top included, runs the first factor
over every element of its type below the current element (a full-rank
last factor is forced); nothing is read per c-orbit.  It descends over
the elements of the eager walk (``walk_oracle``), not the package's
orbit records.  Memoized on (element, remaining suffix) within one call
only.
"""

from walk_oracle import eager_walk
from noncross.decomp import tuple_rank
from noncross.typelabel import label


def count_by_elements(name, types):
    walk = eager_walk(name)
    types = tuple(t for t in map(label, types) if not t.is_empty)
    if tuple_rank(types) > walk.top.rank:
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
                memo[state] = sum(descend(walk.elements[u.comp & el.key],
                                          rest)
                                  for u in walk.by_type.get(head, ())
                                  if u.key & el.key == u.key)
        return memo[state]

    return descend(walk.top, types)
