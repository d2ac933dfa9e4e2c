"""Decomposition numbers: counts of minimal factorizations of a Coxeter
element into elements of prescribed parabolic types.

``N(T_1, ..., T_d)`` counts tuples (c_1, ..., c_d) with c_1 c_2 ... c_d
lying below the Coxeter element c in absolute order, lengths adding up,
and type(c_i) = T_i.  The count is invariant under permuting the T_i, so
tables are keyed by the canonical sorted tuple.

Four routes are implemented:

* ``count_bruteforce`` -- recursive descent over the enumerated poset,
  ``NcPoset.count`` (the oracle the other routes are checked against);
* ``count_typeA`` -- closed product formula for type A;
* ``table_product`` -- the whole table of a product ambient from the
  tables of its two factors, in one pass over pairs of entries, each
  pair counted over the partial matchings of its labels;
  ``product_table`` folds it over any number of factor tables, once per
  tuple of tables, and ``count_product`` is a lookup in that fold;
* ``census_table`` -- every full-rank value of one ambient from its pair
  census.  The prefix q = c_1 ... c_{d-1} of a factorization is a
  parabolic Coxeter element of some type S, and [1, q] is isomorphic to
  NC(W_S) with types kept (Brady-Watt), so

      N_W(T_1, ..., T_d) = sum_S N_W(S, T_d) * N_S(T_1, ..., T_{d-1}),

  where N_W(S, T_d) is the pair census and N_S is the full table of S.

``full_table`` is the one table of each type, built once per process
and cached on its label, so every spelling of the type shares it; the
CLI, the verify suites, the census and the split rows of the linear
system read it.
A table answers every lookup from one map: a canonical key it has
answered before (0 included) is one ``dict.get``, and a rank-deficient
key sums one extra factor over all types of the complementary rank.
chi* of NC (``chi_vector``) lives here too, beside the type-A counts
it reads: the element counts by type of a type-A poset are one-factor
decomposition numbers.

The functions that walk NC import ``ncposet`` when called, so a type-A
lookup, and chi* or an M-triangle of type A, load none of ``ncposet``,
``weyl`` and ``exact``; the closed form divides once in integers, so it
loads no ``fractions`` either.  ``special_values`` alone builds a root
system, so only it imports ``rootsystem``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import comb, factorial, prod
from operator import attrgetter

from .typelabel import EMPTY_TYPE, TypeLabel, degrees, label, per_type

# The largest rank whose chi* is computed; a larger type raises
# ResourceGuardError.  The cost grows about as rank^2.3: at the bound,
# chi* of A1^4000 takes 9 s on a 2-core host.
MAX_CHI_RANK = 4000

# the order of TypeLabel.__lt__, compared without calling it
_SORT_KEY = attrgetter("_key")
_RANK = attrgetter("rank")


def canonical_tuple(types):
    """Canonical (sorted) key for an unordered tuple of type labels:
    text labels are parsed and empty factors dropped.  The empty type
    has rank 0, so it sorts first and the empties are a prefix of the
    sorted list."""
    out = list(types)
    try:
        out.sort(key=_SORT_KEY)
    except AttributeError:                # text labels
        out = [label(t) for t in out]
        out.sort(key=_SORT_KEY)
    if out and out[0] is EMPTY_TYPE:
        start = 1
        while start < len(out) and out[start] is EMPTY_TYPE:
            start += 1
        del out[:start]
    return tuple(out)


def tuple_rank(types):
    return sum(map(_RANK, types))


@lru_cache(maxsize=4096)
def orderings(types):
    """Number of distinct orderings of a canonical tuple (multinomial)."""
    counts = {}
    for t in types:
        counts[t] = counts.get(t, 0) + 1
    return factorial(len(types)) // prod(factorial(k) for k in counts.values())


# ---------------------------------------------------------------------------
# brute force over the enumerated poset


def count_bruteforce(name, types):
    """Count factorizations by recursive descent over the walked NC
    (``NcPoset.count``), the key canonicalized first.  Works for any rank
    sum up to the ambient rank (rank-deficient tuples simply leave part
    of the Coxeter element unused); a larger rank sum returns 0.
    """
    from .ncposet import enumerate_nc
    poset = enumerate_nc(name)
    types = canonical_tuple(types)
    if tuple_rank(types) > poset.rs.n:
        return 0
    return poset.count(types)


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
    num, den = (n + 1) ** (d - 1) * comb(n + 1, s + 1), 1
    for t in types:
        m_total = len(t.components)
        slots = n - t.rank + 1
        if m_total > slots:
            return 0
        # multinomial: slots! / ((slots - m_total)! * prod multiplicity!)
        counts = {}
        for comp in t.components:
            counts[comp] = counts.get(comp, 0) + 1
        num *= factorial(slots)
        den *= (factorial(slots - m_total) * slots
                * prod(factorial(k) for k in counts.values()))
    value, rest = divmod(num, den)
    if rest:
        raise AssertionError("non-integral type-A count")
    return value


# ---------------------------------------------------------------------------
# characteristic polynomials


@lru_cache(maxsize=None)
def chi_vector(t):
    """chi* of NC of a type (a label) as integer y-coefficients, lowest
    power first, over the denominator 1: the factor of ``tuple_sums`` for
    the dual M-triangle.  The cached lists are shared and not to be
    changed.

    A reducible type takes the product of its components' chi*, their
    vectors convolved.  For an irreducible type of rank n, the interval
    [u, c] of NC is NC of the type of u^{-1} c (Armstrong), and
    u -> u^{-1} c is a bijection of NC that takes rank r to rank n - r,
    so chi*(y) = sum over the elements v of mu(type of v) * y^{n - rank v}:
    the number of elements of each type (``_type_counts``) times its
    closed-form Moebius number.  The coefficients are summed in a list
    indexed by the power of y.  Raises ``AssertionError`` unless
    chi*(1) = 0, and ``ResourceGuardError`` above rank ``MAX_CHI_RANK``.
    """
    from .closedform import _convolve, _guard_rank, _mobius_number
    _guard_rank(t, MAX_CHI_RANK, "chi*")
    if t.is_irreducible:
        n = t.rank
        coeffs = [0] * (n + 1)
        for s, count in _type_counts(t).items():
            coeffs[n - s.rank] += count * _mobius_number(s)
        at_one = sum(coeffs)
        if at_one:
            raise AssertionError("chi*(1) = %s != 0 for NC(%s)"
                                 % (at_one, t))
    else:
        coeffs = [1]
        for comp in t.irreducibles():
            coeffs = _convolve(coeffs, chi_vector(comp)[0])
    return coeffs, 1


def _type_counts(t):
    """The number of elements of each type in NC of an irreducible type
    t, by type.  Type A takes the closed form: the one-factor
    decomposition number ``count_typeA(n, (S,))`` of every type S with
    A components only, so no A poset or interval is scanned.  D and E
    sum the pair ``ncposet.census`` over its first factor, the counts of
    each complement type u^{-1} c, as u -> u^{-1} c is a bijection.  An
    unsupported A ambient is refused (``typelabel.degrees``) before any
    count, with the error its walk raised."""
    if t.components[0][0] == "A":
        degrees(t)
        n = t.rank
        return {s: count_typeA(n, (s,)) for r in range(n + 1)
                for s in all_labels_of_rank(r)
                if all(family == "A" for family, _ in s.components)}
    from .ncposet import census
    counts = {}
    for (_, s), count in census(t).items():
        counts[s] = counts.get(s, 0) + count
    return counts


# ---------------------------------------------------------------------------
# products of ambients


def count_product(factors, types):
    """Decomposition number for a reducible ambient from factor tables.

    ``factors`` is a sequence of DecompositionTable objects, one per
    irreducible factor of the ambient; the value is a lookup of
    ``types`` in their ``product_table``, so a rank-deficient key goes
    through the one-extra-factor identity as in any table, and the empty
    key counts 1.
    """
    return product_table(tuple(factors)).lookup(types)


@lru_cache(maxsize=128)
def product_table(factors):
    """The full-rank table of the product of a tuple of factor tables:
    the empty ambient's table for no factor, the factor itself for one,
    and otherwise the ``table_product`` of the first factor and the
    product of the rest, so products that share trailing factors share
    tables.  Cached on the table objects, not on their ambients: two
    tables of one ambient are different factors, and a table's entries
    never change after construction.  The cache keeps the 128 tuples
    used last, so a caller passing fresh tables on every call does not
    grow it without bound; all the verify suites together use 62."""
    if not factors:
        return _EMPTY_TABLE
    if len(factors) == 1:
        return factors[0]
    return table_product(factors[0], product_table(factors[1:]))


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
    of ``_matchings``.
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

    ``entries`` maps canonical full-rank tuples to integers: every key
    is the ``canonical_tuple`` of itself (sorted nonempty labels) and
    has rank sum equal to the ambient rank.  Every table the package
    builds keeps to that, and ``entries`` is not to be changed after
    construction (no caller does).

    ``lookup`` takes any tuple of labels and answers from one map,
    ``_answers``, probed first with the key exactly as given: labels are
    interned, so a tuple equal to a key held is that key, and a hit is
    the answer, 0 included.  On a miss the key is canonicalized: 0 above
    the ambient rank, 1 for the empty key, the entry at full rank (0 if
    none), and otherwise the one-extra-factor identity (sum over all
    types of the complementary rank).  The map starts as a copy of
    ``entries``; the first rank-deficient miss adds those sums for every
    nonempty key one factor short of an entry, in one pass over
    ``entries``; and the answer to a key passed in already canonical
    with rank at most the ambient rank is kept.  Other spellings (text
    labels, a list, an unsorted tuple, empty factors) are answered the
    same way and not kept, so the map holds at most one item per
    canonical key of rank at most the ambient rank: the entries, the
    sums and the keys callers asked for.
    """

    def __init__(self, ambient, entries, provenance="bruteforce"):
        self.ambient = label(ambient)
        self.entries = dict(entries)
        self.provenance = provenance
        self._answers = dict(self.entries)
        self._summed = False

    def lookup(self, types):
        try:
            value = self._answers.get(types)
        except TypeError:                     # unhashable, such as a list
            value = None
        if value is not None:
            return value
        key = canonical_tuple(types)
        s = tuple_rank(key)
        n = self.ambient.rank
        if s > n:
            return 0
        if not key:
            value = 1
        elif s == n:
            value = self.entries.get(key, 0)
        else:
            if not self._summed:
                self._add_deficient_sums()
            value = self._answers.get(key, 0)
        if key == types:
            self._answers[key] = value
        return value

    def _add_deficient_sums(self):
        """Add to the answers N(key) for every nonempty rank-deficient key
        one factor short of an entry: each full-rank entry adds its value
        to the key left by removing one copy of any one of its distinct
        factors (the factor removed is the one extra factor of the
        identity).  An entry of one factor leaves the empty key, which
        counts 1 by convention and is not summed.  Until now the answers
        held no rank-deficient key but the empty one, so nothing kept is
        overwritten; the sums are made apart and merged in one update, so
        that two threads summing at once both merge the same values."""
        sums = {}
        for key, value in self.entries.items():
            if len(key) < 2:
                continue
            for i, t in enumerate(key):
                if i and key[i - 1] == t:
                    continue                  # one copy per distinct factor
                rest = key[:i] + key[i + 1:]
                sums[rest] = sums.get(rest, 0) + value
        self._answers.update(sums)
        self._summed = True


def _multisets(pool, total):
    """Every multiset of the items of ``pool``, a list of (rank, item)
    pairs, whose ranks sum to ``total``: a tuple of items in pool order
    per multiset, the multisets in lexicographic order of pool
    positions."""
    found = []

    def build(start, remaining, acc):
        if remaining == 0:
            found.append(tuple(acc))
            return
        for i in range(start, len(pool)):
            rank, item = pool[i]
            if rank <= remaining:
                acc.append(item)
                build(i, remaining - rank, acc)
                acc.pop()

    build(0, total, [])
    return found


@lru_cache(maxsize=None)
def all_labels_of_rank(r):
    """Every ADE type label of the given rank (any component mix)."""
    irreducibles = []
    for k in range(1, r + 1):
        irreducibles.append((k, ("A", k)))
        if 4 <= k:
            irreducibles.append((k, ("D", k)))
        if k in (6, 7, 8):
            irreducibles.append((k, ("E", k)))
    return tuple(sorted(map(TypeLabel, _multisets(irreducibles, r))))


def one_extra_factor(key, n):
    """The rank-n tuples that add one factor to a canonical key, one per
    type of the complementary rank and all distinct: N(key) is the sum
    of their entries (a full-rank key is its own only tuple)."""
    return tuple(canonical_tuple(key + (extra,))
                 for extra in all_labels_of_rank(n - tuple_rank(key)))


@lru_cache(maxsize=None)
def all_tuples_of_rank(total):
    """All canonical tuples (multisets of nonempty labels) with the given
    rank sum, as a tuple: ``_multisets`` over the sorted pool yields
    each one sorted."""
    pool = sorted(t for r in range(1, total + 1)
                  for t in all_labels_of_rank(r))
    return tuple(_multisets([(t.rank, t) for t in pool], total))


@per_type
def full_table(ambient):
    """Complete full-rank table for any type, built once per label and
    shared (not to be changed) by every spelling of it.  Irreducible
    type A takes the closed formula, D and E the census (both checked
    against brute force in the tests), a reducible type the
    ``product_table`` of its components' tables, and 0 the table of
    N() = 1.  The linear system is the paper's route, checked against
    these by the replays.
    """
    if not ambient.is_irreducible:
        return product_table(tuple(map(full_table, ambient.irreducibles())))
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
    return census_table(ambient)


@per_type
def census_table(ambient):
    """Complete full-rank table for one irreducible ambient, built once
    per label, from its pair census: N(T_1, ..., T_d) = sum over S of
    census[S, T_d] times N_S(T_1, ..., T_{d-1}), with T_d the last
    (highest-sorting) entry of the canonical key.  Each census pair
    (S, T) walks the entries of ``full_table(S)`` whose last label sorts
    at or below T, so that T ends the key they make; a key no pair
    reaches vanishes.  The entries come out in ``all_tuples_of_rank``
    order.  ``ncposet.census`` reads the census off an interval of a
    poset already walked, so the lower tables share the highest
    ambient's walk."""
    from .ncposet import census
    acc = {}
    for (prefix_type, last), count in census(ambient).items():
        if last.is_empty:
            continue
        bound = last._key
        for prefix, value in full_table(prefix_type).entries.items():
            if not prefix or prefix[-1]._key <= bound:
                key = prefix + (last,)
                acc[key] = acc.get(key, 0) + count * value
    entries = {key: acc[key] for key in all_tuples_of_rank(ambient.rank)
               if key in acc}
    return DecompositionTable(ambient, entries, provenance="census")


# the table of the empty ambient: N() = 1
_EMPTY_TABLE = DecompositionTable(EMPTY_TYPE, {(): 1}, provenance="empty")


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
    from .rootsystem import build_root_system, single_node_deletions
    rs = build_root_system(name)
    ambient = label(name)
    n, h = rs.n, rs.coxeter_number
    values = {
        canonical_tuple(()): 1,
        canonical_tuple((ambient,)): 1,
        canonical_tuple(("A1",)): rs.num_positive_roots,
    }
    all_a1 = canonical_tuple(("A1",) * n)
    chains, rest = divmod(factorial(n) * h ** n, rs.group_order)
    if rest:
        raise AssertionError("non-integral reflection factorization count")
    values[all_a1] = chains
    deletions = single_node_deletions(name)
    a1 = label("A1")
    for t in all_labels_of_rank(n - 1):
        values[canonical_tuple((t, a1))] = h * deletions.get(t, 0) // 2
    return values
