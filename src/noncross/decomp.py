"""Decomposition numbers: counts of minimal factorizations of a Coxeter
element into elements of prescribed parabolic types.

``N(T_1, ..., T_d)`` counts tuples (c_1, ..., c_d) with c_1 c_2 ... c_d
lying below the Coxeter element c in absolute order, lengths adding up,
and type(c_i) = T_i.  The count is invariant under permuting the T_i, so
tables are keyed by the canonical sorted tuple.

Five routes are implemented:

* ``count_bruteforce`` -- recursive descent over the enumerated poset
  (the oracle the other routes are checked against);
* ``count_typeA`` -- closed product formula for type A;
* ``count_product`` -- one value of a reducible ambient from its factor
  tables: each entry splits its components between the first factor
  and the rest, and the m copies of one label in a key are spread over
  its distinct splits at once, each spread counted once with the
  multinomial weight m! / (k_1! ... k_J!) of the positions it stands
  for;
* ``table_product`` -- the whole table of a product ambient from the
  tables of its two factors, in one pass over pairs of entries, each
  pair counted over the partial matchings of its labels;
  ``count_product`` is its per-key oracle;
* ``census_table`` -- every full-rank value of one ambient from its pair
  census.  The prefix q = c_1 ... c_{d-1} of a factorization is a
  parabolic Coxeter element of some type S, and [1, q] is isomorphic to
  NC(W_S) with types kept (Brady-Watt), so

      N_W(T_1, ..., T_d) = sum_S N_W(S, T_d) * N_S(T_1, ..., T_{d-1}),

  where N_W(S, T_d) is the pair census and N_S is the lower table of S
  (``lower_table``: the production table of an irreducible S, the
  ``table_product`` of its first component and the rest otherwise,
  built once per type).

``full_table`` builds the complete table for one ambient: the closed
form for type A, the census for D and E; ``production_table`` is its
per-ambient cache, which the CLI and the verify suites read.
Rank-deficient tuples are looked up by summing one extra factor over all
types of the complementary rank.  The functions that walk NC import
``ncposet`` when called, so a type-A lookup loads none of ``ncposet``,
``weyl`` and ``exact``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import comb, factorial, prod
from operator import attrgetter, itemgetter

from .rootsystem import build_root_system, single_node_deletions
from .typelabel import TypeLabel, label, EMPTY_TYPE, ResourceGuardError

# the order of TypeLabel.__lt__, compared without calling it
_SORT_KEY = attrgetter("_key")
_RANK = attrgetter("rank")
_AMBIENT = attrgetter("ambient")


def canonical_tuple(types):
    """Canonical (sorted) key for an unordered tuple of type labels:
    text labels are parsed and empty factors dropped.  The empty type
    has rank 0, so it sorts first and the empties are a prefix of the
    sorted list."""
    out = list(types)
    try:
        out.sort(key=_SORT_KEY)
    except AttributeError:                # text labels
        out = [label(t) if isinstance(t, str) else t for t in out]
        out.sort(key=_SORT_KEY)
    if out and out[0] is EMPTY_TYPE:
        start = 1
        while start < len(out) and out[start] is EMPTY_TYPE:
            start += 1
        del out[:start]
    return tuple(out)


def tuple_rank(types):
    return sum(map(_RANK, types))


def orderings(types):
    """Number of distinct orderings of a canonical tuple (multinomial)."""
    counts = {}
    for t in types:
        counts[t] = counts.get(t, 0) + 1
    return factorial(len(types)) // prod(factorial(k) for k in counts.values())


# ---------------------------------------------------------------------------
# brute force over the enumerated poset


def count_bruteforce(name, types, _memo=None):
    """Count factorizations by recursive descent over NC.

    Works for any rank sum up to the ambient rank (rank-deficient tuples
    simply leave part of the Coxeter element unused).  Tuples with rank
    sum above the ambient rank return 0.  Memoized on (complement
    element, remaining suffix); ``_memo`` may share one dict between
    calls for the same ambient.
    """
    from .ncposet import enumerate_nc
    poset = enumerate_nc(name)
    types = tuple(label(t) if isinstance(t, str) else t for t in types)
    if any(t.is_empty for t in types):
        types = tuple(t for t in types if not t.is_empty)
    if tuple_rank(types) > poset.rs.n:
        return 0
    memo = {} if _memo is None else _memo

    def descend(el, suffix):
        if not suffix:
            return 1
        state = (el.key, suffix)
        cached = memo.get(state)
        if cached is not None:
            return cached
        head, rest = suffix[0], suffix[1:]
        total = 0
        if not rest and head.rank == el.rank:
            # full-rank last factor is forced
            total = 1 if el.typ == head else 0
        else:
            for u in poset.by_type.get(head, ()):
                if poset.le(u, el):
                    total += descend(poset.complement(u, el), rest)
        memo[state] = total
        return total

    return descend(poset.top, types)


# ---------------------------------------------------------------------------
# closed form in type A


def count_typeA(n, types):
    """Decomposition number for ambient A_n by the closed product formula.

    Every entry must be a type-A label A1^{m_1} A2^{m_2} ...; the value is

        (n+1)^(d-1) * C(n+1, rank_sum + 1)
        * prod_i  (n - rank(T_i))! / (n - rank(T_i) + 1 - sum_j m_j^(i))!
                  / prod_j m_j^(i)!

    i.e. each factor contributes a multinomial coefficient divided by
    n - rank(T_i) + 1.
    """
    types = canonical_tuple(types)
    if any(family != "A" for t in types for family, _ in t.components):
        raise ValueError("count_typeA needs all-A entries, got %r"
                         % (tuple(str(t) for t in types),))
    s = tuple_rank(types)
    if s > n:
        return 0
    d = len(types)
    if d == 0:
        return 1
    value = Fraction((n + 1) ** (d - 1)) * comb(n + 1, s + 1)
    for t in types:
        m_total = len(t.components)
        slots = n - t.rank + 1
        if m_total > slots:
            return 0
        # multinomial: slots! / ((slots - m_total)! * prod multiplicity!)
        counts = {}
        for comp in t.components:
            counts[comp] = counts.get(comp, 0) + 1
        mult = Fraction(factorial(slots),
                        factorial(slots - m_total)
                        * prod(factorial(k) for k in counts.values()))
        value *= mult / slots
    if value.denominator != 1:
        raise AssertionError("non-integral type-A count")
    return int(value)


# ---------------------------------------------------------------------------
# products of ambients


def count_product(factors, types, _memo=None):
    """Decomposition number for a reducible ambient from factor tables.

    ``factors`` is a sequence of DecompositionTable objects, one per
    irreducible factor of the ambient.  Each entry type T_i is split as
    a disjoint union T_i = U_i * V_i over the first factor and the rest;
    only splittings that are full-rank in the first factor contribute
    (the others vanish), and the two parts are counted independently.

    The sum runs over the positions of the key, but its terms depend
    only on the multisets of parts, so it walks the distinct labels of
    the canonical key instead: the m copies of a label spread over its
    distinct splits k_1 + ... + k_J = m in m! / (k_1! ... k_J!) ways
    (``_label_spreads``), and each such spread is counted once with that
    multinomial weight.  A spread that puts more rank in the first
    factor than it holds is pruned; at a leaf the first part has exactly
    its rank and is read from its entries, and so is the rest when one
    factor is left.

    A rank-deficient key is counted through the one-extra-factor
    identity, as ``DecompositionTable.lookup`` counts it: the sum of the
    full-rank values of the key with one more factor of every type of
    the complementary rank; the empty key counts 1.

    ``_memo`` optionally shares the values of the product over two or
    more factors, keyed by (ambients of the factors, canonical tuple);
    share one memo only between calls with the same ``factors``.
    """
    factors = tuple(factors)
    key = canonical_tuple(types)
    if len(factors) < 2:
        if factors:
            return factors[0]._lookup_canonical(key)
        return 0 if key else 1
    s = sum(map(_RANK, key))
    n = 0
    for f in factors:
        n += f.ambient.rank
    if s >= n:
        return _product(factors, key, _memo)
    if not key:
        return 1
    # one extra factor of every type of the complementary rank
    return sum(_product(factors, canonical_tuple(key + (extra,)), _memo)
               for extra in all_labels_of_rank(n - s))


def _product(factors, key, memo):
    """``count_product`` over two or more factors, of a canonical key of
    at least their total rank."""
    if memo is not None:
        state = (tuple(map(_AMBIENT, factors)), key)
        cached = memo.get(state)
        if cached is not None:
            return cached
    head, rest = factors[0], factors[1:]
    entries = head.entries
    last = rest[0].entries if len(rest) == 1 else None
    groups = [(t, len(tuple(copies))) for t, copies in groupby(key)]
    spreads = [_label_spreads(t, m) for t, m in groups]
    leaf = len(groups)
    reach = [0] * (leaf + 1)              # rank of the labels from g on
    for g in range(leaf - 1, -1, -1):
        t, m = groups[g]
        reach[g] = reach[g + 1] + t.rank * m

    def walk(g, room, left, right):
        # room: rank still to be placed in the head factor, at most
        # reach[g]; it is 0 at the leaf
        if g == leaf:
            # the head part has the head's rank: a full-rank entry, or
            # the empty key of a rank-0 head; a last part of more than
            # its factor's rank (the key's rank is at least the total)
            # has no entry
            left_key = tuple(sorted(left, key=_SORT_KEY))
            value = entries.get(left_key, 0) if left_key else 1
            if not value:
                return 0
            right_key = tuple(sorted(right, key=_SORT_KEY))
            if last is not None:
                return value * (last.get(right_key, 0) if right_key else 1)
            return value * _product(rest, right_key, memo)
        total = 0
        later = reach[g + 1]
        for left_rank, left_part, right_part, weight in spreads[g]:
            if left_rank > room:
                break
            if room - left_rank <= later:
                value = walk(g + 1, room - left_rank,
                             left + left_part, right + right_part)
                if value:
                    total += weight * value
        return total

    room = head.ambient.rank
    total = walk(0, room, (), ()) if room <= reach[0] else 0
    if memo is not None:
        memo[state] = total
    return total


@lru_cache(maxsize=None)
def _label_spreads(t, m):
    """The ways to spread m copies of the label t over its distinct
    splits (``_entry_splits``): k_j copies take split j, k_1 + ... + k_J
    = m.  Each is ``(left rank, left parts, right parts, weight)`` with
    the weight m! / (k_1! ... k_J!), the number of ways to choose which
    copies take which split; sorted by left rank."""
    splits = _entry_splits(t)
    spreads = []

    def place(j, copies, left_rank, left, right, weight):
        # copies: the copies not yet given a split
        left_part, right_part, part_rank = splits[j]
        if j == len(splits) - 1:            # the last split takes them all
            spreads.append((left_rank + copies * part_rank,
                            left + left_part * copies,
                            right + right_part * copies, weight))
            return
        for k in range(copies + 1):
            place(j + 1, copies - k, left_rank + k * part_rank,
                  left + left_part * k, right + right_part * k,
                  weight * comb(copies, k))

    place(0, m, 0, (), (), 1)
    spreads.sort(key=itemgetter(0))
    return tuple(spreads)


@lru_cache(maxsize=None)
def _entry_splits(t):
    """The distinct ways to split one label's components into two parts,
    as ``(left part, right part, left rank)`` in the order of the first
    subset mask giving each left part; a part is a 1-tuple holding its
    label, or empty when it has no components.  ``count_product`` gives
    each copy of a label in its key one of these splits
    (``_label_spreads``)."""
    comps = t.components
    seen = set()
    splits = []
    for mask in range(1 << len(comps)):
        # comps is sorted, so equal sub-multisets give equal subsequences
        left = tuple(c for j, c in enumerate(comps) if mask >> j & 1)
        if left in seen:
            continue
        seen.add(left)
        right = tuple(c for j, c in enumerate(comps) if not mask >> j & 1)
        splits.append(((TypeLabel(left),) if left else (),
                       (TypeLabel(right),) if right else (),
                       sum(r for _, r in left)))
    return tuple(splits)


def table_product(head, rest):
    """The full-rank table of the product ambient head x rest, built from
    the full-rank tables of the two factors in one pass over pairs of
    entries.

    The nonidentity factors of a factorization of the product's Coxeter
    element stand in d slots: a slot holds a factor from one side, or a
    matched pair a x b of one from each.  For an entry (K1, v1) of the
    head, one (K2, v2) of the rest and one partial matching of their
    labels, the slot sequences number d! / prod(slot multiplicity)!, and
    each stands for v1 * v2 factorizations; so the matching adds
    v1 * v2 * d! / prod(slot multiplicity)! to the ordered count of the
    key K of the slot types, and N(K) is that sum divided by
    orderings(K).  The slot multiplicities refine those of K, so each
    term divided by orderings(K) is an integer: v1 * v2 times the weight
    of ``_matchings``.  ``count_product`` is the per-key oracle of these
    tables.
    """
    acc = {}
    rest_entries = [(key, value)
                    for key, value in rest.entries.items() if value]
    for head_key, value in head.entries.items():
        if not value:
            continue
        for rest_key, other in rest_entries:
            scale = value * other
            for key, weight in _matchings(head_key, rest_key):
                acc[key] = acc.get(key, 0) + scale * weight
    return DecompositionTable(head.ambient * rest.ambient, acc,
                              provenance="product")


@lru_cache(maxsize=None)
def _matchings(left_key, right_key):
    """Every partial matching of the labels of two canonical keys, as
    (key K of the slot types, weight prod(multiplicity in K)! /
    prod(slot multiplicity)!).  A matching puts x_ij copies of the i-th
    distinct left label with the j-th distinct right label; the copies
    left over are slots of their own.  Cached: the tables of a process
    meet few distinct pairs of keys (265 in the 1,002 pairs of entries
    behind the 48 reducible tables of rank at most 7)."""
    left = [(t, len(tuple(copies))) for t, copies in groupby(left_key)]
    right = [(t, len(tuple(copies))) for t, copies in groupby(right_key)]
    out = []
    caps = [m for _, m in right]
    slots = []

    def leaf():
        # (label, multiplicity), one per distinct slot; slots of one type
        # weigh the multinomial of their multiplicities, a product of
        # binomials along the run
        final = slots + [(t, k) for (t, _), k in zip(right, caps) if k]
        final.sort(key=_slot_order)
        key = []
        weight = 1
        previous = run = None
        for t, k in final:
            key += [t] * k
            if t is previous:
                run += k
                weight *= comb(run, k)
            else:
                previous, run = t, k
        out.append((tuple(key), weight))

    def match(i, j, free):
        # free: the copies of left label i not matched to right labels
        # before j
        if j == len(right):
            if free:
                slots.append((left[i][0], free))
            if i + 1 == len(left):
                leaf()
            else:
                match(i + 1, 0, left[i + 1][1])
            if free:
                slots.pop()
            return
        cap = caps[j]
        match(i, j + 1, free)
        if free and cap:
            joined = _joined(left[i][0], right[j][0])
            for x in range(1, min(free, cap) + 1):
                slots.append((joined, x))
                caps[j] = cap - x
                match(i, j + 1, free - x)
                slots.pop()
            caps[j] = cap

    if left:
        match(0, 0, left[0][1])
    else:
        leaf()
    return tuple(out)


@lru_cache(maxsize=None)
def _joined(a, b):
    """The label a x b of a matched slot."""
    return a * b


def _slot_order(slot):
    """A (label, multiplicity) slot sorts by its label."""
    return slot[0]._key


# ---------------------------------------------------------------------------
# tables


class DecompositionTable:
    """Full-rank decomposition numbers for one ambient type.

    ``entries`` maps canonical full-rank tuples to integers; lookups of
    tuples with rank sum above the ambient rank return 0, and
    rank-deficient lookups are resolved through the one-extra-factor
    identity (sum over all types of the complementary rank).  Those
    sums are read from an index built on the first such lookup, in one
    pass over ``entries``; ``entries`` is not to be changed after
    construction (no caller does).
    """

    def __init__(self, ambient, entries, provenance="bruteforce"):
        self.ambient = ambient if isinstance(ambient, TypeLabel) else label(ambient)
        self.entries = dict(entries)
        self.provenance = provenance
        self._deficient = None

    def lookup(self, types):
        return self._lookup_canonical(canonical_tuple(types))

    def _lookup_canonical(self, key):
        """``lookup`` of a key that is already canonical."""
        s = tuple_rank(key)
        n = self.ambient.rank
        if s > n:
            return 0
        if not key:
            return 1
        if s == n:
            return self.entries.get(key, 0)
        if self._deficient is None:
            self._deficient = self._deficient_index()
        return self._deficient.get(key, 0)

    def _deficient_index(self):
        """N(key) for every rank-deficient key one factor short of an
        entry: each full-rank entry adds its value to the key left by
        removing one copy of any one of its distinct factors (the factor
        removed is the one extra factor of the identity)."""
        n = self.ambient.rank
        index = {}
        for key, value in self.entries.items():
            if tuple_rank(key) != n:
                continue
            for i, t in enumerate(key):
                if i and key[i - 1] == t:
                    continue                  # one copy per distinct factor
                rest = key[:i] + key[i + 1:]
                index[rest] = index.get(rest, 0) + value
        return index


@lru_cache(maxsize=None)
def all_labels_of_rank(r):
    """Every ADE type label of the given rank (any component mix)."""
    if r == 0:
        return (EMPTY_TYPE,)
    irreducibles = []
    for k in range(1, r + 1):
        irreducibles.append(("A", k))
        if 4 <= k:
            irreducibles.append(("D", k))
        if k in (6, 7, 8):
            irreducibles.append(("E", k))
    irreducibles = [c for c in irreducibles if c[1] <= r]
    found = set()

    def build(start, remaining, acc):
        if remaining == 0:
            found.add(TypeLabel(list(acc)))
            return
        for i in range(start, len(irreducibles)):
            fam, k = irreducibles[i]
            if k <= remaining:
                acc.append((fam, k))
                build(i, remaining - k, acc)
                acc.pop()

    build(0, r, [])
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def all_tuples_of_rank(total):
    """All canonical tuples (multisets of nonempty labels) with the given
    rank sum, as a tuple."""
    pool = sorted(t for r in range(1, total + 1)
                  for t in all_labels_of_rank(r))
    results = []

    def build(start, remaining, acc):
        if remaining == 0:
            results.append(tuple(acc))
            return
        for i in range(start, len(pool)):
            t = pool[i]
            if t.rank <= remaining:
                acc.append(t)
                build(i, remaining - t.rank, acc)
                acc.pop()

    build(0, total, [])
    return tuple(canonical_tuple(t) for t in results)


def full_table(name, max_elements=30_000):
    """Complete full-rank table for one irreducible ambient.

    Type A takes the closed formula, D and E the census (both are
    checked against brute force in the tests).  Guarded by the poset
    size, which is known in closed form before anything is enumerated.
    """
    ambient = label(name)
    n = ambient.rank
    if ambient.components[0][0] == "A":
        entries = {}
        for key in all_tuples_of_rank(n):
            if any(f != "A" for t in key for f, _ in t.components):
                continue
            value = count_typeA(n, key)
            if value:
                entries[key] = value
        return DecompositionTable(ambient, entries, provenance="typeA-closed-form")
    from .ncposet import ncm_cardinality
    size = ncm_cardinality(ambient, 1)
    if size > max_elements:
        raise ResourceGuardError(
            "table for %s needs a %d-element poset (guard %d)"
            % (name, size, max_elements))
    return census_table(name)


@lru_cache(maxsize=None)
def production_table(name):
    """The full-rank table of an irreducible ambient by its cheapest
    exact route, ``full_table``: closed form for type A, the census for
    D and E.  The linear system is the paper's route, checked against
    it by the replay suites."""
    return full_table(name)


@lru_cache(maxsize=None)
def census_table(name):
    """Complete full-rank table for one irreducible ambient, from its
    pair census: N(T_1, ..., T_d) = sum over S of census[S, T_d] times
    N_S(T_1, ..., T_{d-1}), with T_d the last (highest-sorting) entry of
    the canonical key.  Each census pair (S, T) walks the entries of
    ``lower_table(S)`` whose last label sorts at or below T, so that T
    ends the key they make; a key no pair reaches vanishes.  The entries
    come out in ``all_tuples_of_rank`` order.  ``ncposet.census`` reads
    the census off an interval of a poset already walked, so the lower
    tables share the highest ambient's walk."""
    from .ncposet import census
    ambient = label(name)
    acc = {}
    for (prefix_type, last), count in census(ambient).items():
        if last.is_empty:
            continue
        bound = last._key
        for prefix, value in lower_table(prefix_type).entries.items():
            if not prefix or prefix[-1]._key <= bound:
                key = prefix + (last,)
                acc[key] = acc.get(key, 0) + count * value
    entries = {key: acc[key] for key in all_tuples_of_rank(ambient.rank)
               if key in acc}
    return DecompositionTable(ambient, entries, provenance="census")


# the table of the empty ambient: N() = 1
_EMPTY_TABLE = DecompositionTable(EMPTY_TYPE, {(): 1}, provenance="empty")


@lru_cache(maxsize=None)
def lower_table(t):
    """The full-rank table of an ambient type T of lower rank, reducible
    allowed: the production table of an irreducible T, and otherwise the
    ``table_product`` of its first component's table and the table of
    the rest, so product types that share trailing factors share
    tables."""
    if t.is_empty:
        return _EMPTY_TABLE
    if t.is_irreducible:
        return production_table(str(t))
    return table_product(lower_table(TypeLabel(t.components[:1])),
                         lower_table(TypeLabel(t.components[1:])))


def lower_count(t, types):
    """N_T(types) for an ambient type T of lower rank, reducible allowed:
    a lookup in ``lower_table(T)``, so a rank-deficient key goes through
    the one-extra-factor identity as in any table."""
    return lower_table(t).lookup(types)


# ---------------------------------------------------------------------------
# special values


def special_values(name):
    """The directly-known decomposition values for an ambient:

    * N() = 1 and N(ambient) = 1;
    * N(A1) = number of positive roots;
    * N(A1, A1, ..., A1) (n factors) = n! h^n / |W|;
    * N(T, A1) for every corank-1 type T: (h/2) times the number of
      single-node deletions of the diagram of type T (0 when T is not a
      deletion type).
    """
    rs = build_root_system(name)
    ambient = label(name)
    n, h = rs.n, rs.coxeter_number
    values = {
        canonical_tuple(()): 1,
        canonical_tuple((ambient,)): 1,
        canonical_tuple(("A1",)): rs.num_positive_roots,
    }
    all_a1 = canonical_tuple(("A1",) * n)
    chains = Fraction(factorial(n) * h ** n, rs.group_order)
    if chains.denominator != 1:
        raise AssertionError("non-integral reflection factorization count")
    values[all_a1] = int(chains)
    deletions = single_node_deletions(name)
    a1 = label("A1")
    for t in all_labels_of_rank(n - 1):
        values[canonical_tuple((t, a1))] = h * deletions.get(t, 0) // 2
    return values
