"""The direct oracles, element by element on a small poset: the Moebius
function, chi* and multichain counts, guarded by ``MAX_MOBIUS_SIZE``,
and the m-divisible poset NC^m, guarded by ``MAX_NCM_SIZE``: the minimal
factorizations c = w0 * w1 * ... * wm ordered componentwise (opposite
order in the coordinates 1..m), graded by the length of w0, a tuple kept
as the masks of w1, ..., wm.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from .ncposet import enumerate_nc, ncm_cardinality
from .polynomial import SparsePolynomial
from .typelabel import ResourceGuardError

# the largest posets ``mobius`` and ``build_ncm`` build
MAX_MOBIUS_SIZE = 10_000
MAX_NCM_SIZE = 100_000


def _ranked(poset):
    """``poset.ranked()``, the (key, rank) pairs of its elements by
    ascending rank, once the size of the poset is within
    ``MAX_MOBIUS_SIZE``: the one guard of the direct oracles, checked
    before any element is listed."""
    if len(poset) > MAX_MOBIUS_SIZE:
        raise ResourceGuardError("poset size %d exceeds mobius guard %d"
                                 % (len(poset), MAX_MOBIUS_SIZE))
    return poset.ranked()


def mobius(poset):
    """Full Moebius function of a small poset: map (u_key, w_key) -> int.

    Works for any object with a length, ``ranked()`` (its (key, rank)
    pairs by ascending rank) and ``le`` on keys, as ``NcPoset`` and
    ``NcmPoset``.  Guarded by ``MAX_MOBIUS_SIZE`` (``_ranked``).
    """
    keys = [key for key, _ in _ranked(poset)]
    le = poset.le
    result = {}
    for i, u in enumerate(keys):
        above = [w for w in keys[i:] if le(u, w)]
        mu = {u: 1}
        for w in above[1:]:
            total = 0
            for v in above:
                if v == w:
                    break
                if le(v, w):
                    total += mu[v]
            mu[w] = -total
        for w, value in mu.items():
            result[u, w] = value
    return result


def mobius_from_top(poset):
    """mu(u, top) for every key u, by downward recursion."""
    keys = [key for key, _ in _ranked(poset)]
    keys.reverse()                        # descending rank
    le = poset.le
    mu = {keys[0]: 1}
    for i, u in enumerate(keys[1:], start=1):
        mu[u] = -sum(mu[v] for v in keys[:i] if le(u, v))
    return mu


def characteristic_direct(poset):
    """chi*(y) = sum_u mu(u, c) y^{rank u}, by direct Moebius values."""
    mu = mobius_from_top(poset)
    coeffs = Counter()
    for key, rank in _ranked(poset):
        coeffs[rank] += mu[key]
    return SparsePolynomial({(0, j, 0, 0): c for j, c in coeffs.items()})


def zeta_direct(poset, z):
    """Number of multichains x_1 <= ... <= x_{z-1}, counted exactly, in
    any poset that ``mobius`` takes, under the same guard."""
    if z < 1:
        raise ValueError("z must be >= 1")
    if z == 1:
        return 1
    keys = [key for key, _ in _ranked(poset)]
    le = poset.le
    counts = [1] * len(keys)
    for _ in range(z - 2):
        counts = [sum(count for u, count in zip(keys[:i + 1], counts)
                      if le(u, w))
                  for i, w in enumerate(keys)]
    return sum(counts)


class NcmPoset:
    """NC^m as ``elements``, (key, rank) pairs: the key is the tuple of
    the masks of w1, ..., wm (w0 is implied), ordered componentwise
    opposite in the coordinates 1..m."""

    def __init__(self, m, elements):
        self.m = m
        self.elements = elements

    def __len__(self):
        return len(self.elements)

    def ranked(self):
        """The (key, rank) pairs by ascending rank, each rank in the
        order of ``elements``."""
        return sorted(self.elements, key=itemgetter(1))

    @staticmethod
    def le(u, w):
        """u <= w  iff  w_i <=_T u_i for every coordinate i >= 1."""
        return all(b & a == b for a, b in zip(u, w))


def build_ncm(name, m):
    """Enumerate NC^m: minimal factorizations c = w0 w1 ... wm.

    A tuple is produced by choosing w1 below c, then w2 below the
    complement w1^{-1} c, and so on; minimality of the total length is
    automatic.  Each choice runs over ``NcPoset.members``: the complement
    of u below the rest r has the mask comp(u) & r.  The rank of a tuple
    is the length of w0.  Refuses (ResourceGuardError) when the
    closed-form cardinality exceeds ``MAX_NCM_SIZE``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    poset = enumerate_nc(name)
    expected = ncm_cardinality(name, m)
    if expected > MAX_NCM_SIZE:
        raise ResourceGuardError("|NC^m| = %d exceeds guard %d"
                                 % (expected, MAX_NCM_SIZE))
    members = [(mask, rank, comp) for mask, rank, _, comp in poset.members()]
    n = poset.rs.n
    elements = []
    prefix = []

    def descend(rest, depth, length):
        if depth == m:
            elements.append((tuple(prefix), n - length))
            return
        for mask, rank, comp in members:
            if mask & rest == mask:
                prefix.append(mask)
                descend(comp & rest, depth + 1, length + rank)
                prefix.pop()

    descend(poset.records[0][0], 0, 0)
    if len(elements) != expected:
        raise AssertionError("NC^m size %d != closed form %d"
                             % (len(elements), expected))
    return NcmPoset(m, elements)
