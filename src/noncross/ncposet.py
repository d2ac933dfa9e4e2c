"""Posets of non-crossing partitions NC(W) and their m-divisible versions.

``NC`` is the interval below a (bipartite) Coxeter element c in the
absolute order, graded by reflection length.  Enumeration walks down
from c: the elements covered by w are exactly ``t_alpha * w`` for the
positive roots alpha in the moved space of w, so each BFS level is
produced without any filtering.  An element is known by its set of
moved positive roots, a bit mask, which doubles as

* the order test:  u <=_T w  iff  moved(u) is a subset of moved(w)
  (the subspace map is injective and order-preserving on the interval;
  this is cross-checked against the definitional test in the test
  suite), and
* the parabolic type of the element: the simple roots of the sub-root
  system of its moved roots are the bits with no root partner in the
  mask, and their Dynkin diagram is classified, all in the bit space of
  the masks (``_root_tables``, ``classify_simple_roots``).

Moved-root sets without per-element linear algebra.  Let the walk
reach u = t_{a_j} ... t_{a_1} c.  Reflection lengths add along it, so
c u^{-1} = t_{a_1} ... t_{a_j} is a reduced product of j reflections
and, by Carter's lemma, Mov(c u^{-1}) = span(a_1, ..., a_j)
(Brady-Watt: moved spaces add when lengths add).  If u x = x then
(c - I) x = (c u^{-1} - I) x, so (c - I) Fix(u) lies in Mov(c u^{-1});
both sides have dimension n - l(u) and c - I is invertible (c fixes no
nonzero vector), hence

    Fix(u) = (c - I)^{-1} Mov(c u^{-1}) = span((c - I)^{-1} a_i).

The moved space is the Cartan-orthogonal complement of the fixed space,
so a root b is moved by u exactly when Z[a_i, b] = 0 for every i, with
``Z[a, b] = <b, (c - I)^{-1} a>``.  Its zero pattern is one K x K table
per ambient (K positive roots), read off the Coxeter word with no
elimination.  Write c = s_{w_1} ... s_{w_n} (the word of
``weyl.bipartite_coxeter``: the first color block, then the second) and
beta_k = s_{w_1} ... s_{w_{k-1}} alpha_{w_k}.  The reflections after
s_{w_k} fix the fundamental weight omega_{w_k}, and s_{w_k} takes it to
omega_{w_k} - alpha_{w_k}, so

    (I - c) omega_{w_k} = beta_k.

The beta_k are a basis, so c - I is invertible, and for
a = sum_k y_k beta_k, as <b, omega_j> = b_j, the coefficient of
alpha_j in b,

    Z[a, b] = -sum_k y_k b_{w_k}.

Each beta_k is alpha_{w_k} plus simple roots earlier in the word, so
y comes from a by back-substitution in integers.  Z is bilinear, so a
row is a sum of the rows of the simple roots, each packed into one int
with a byte per root b.  The moved set of the child t_a w is the moved
set of w intersected with the zero pattern of row a of Z: one AND of
two masks per element.

Complements from the same table.  If u x = x then
(u^{-1} c - I) c^{-1} x = (I - c^{-1}) x; both sides below have
dimension n - l(u), so Mov(u^{-1} c) = (I - c^{-1}) Fix(u), and a root
b is moved by u^{-1} c exactly when (I - c^{-1})^{-1} b is orthogonal to
every moved root a of u.  As c preserves the Cartan form,
<a, (I - c^{-1})^{-1} b> = -Z[a, b], so

    moved(u^{-1} c) = AND of zero[a] over the moved roots a of u.

For u <= v <= c, lengths add along u^{-1} c = (u^{-1} v)(v^{-1} c),
along v = (u^{-1} v)(v^{-1} u v) and along c = v (v^{-1} c).  So
Mov(u^{-1} c) = Mov(u^{-1} v) + Mov(v^{-1} c), Mov(u^{-1} v) lies in
Mov(v), and Mov(v) meets Mov(v^{-1} c) only in 0.  A root b = x + y
moved by u^{-1} c and by v, with x in Mov(u^{-1} v) and y in
Mov(v^{-1} c), has y = b - x in Mov(v), so y = 0 and

    moved(u^{-1} v) = moved(u^{-1} c) & moved(v).

One orbit of conjugation by c at a time.  The map u -> c u c^{-1}
sends NC onto itself: it keeps the absolute order and fixes c.  It
moves the space c Mov(u), so on moved sets it is the permutation pi of
the positive roots with pi(b) = the index of +-c b
(``coxeter_root_permutation``, c b as n simple reflections of the
root b), applied root by root.  The mask
bits are laid out along the cycles of pi (``mask_layout``): bit i stands
for the positive root order[i], and the roots of each cycle take
consecutive bits in the cycle's order, so conjugation by c rotates each
cycle's block of bits by one place, a few shifts of the whole mask.  It
keeps reflection length, so each orbit lies inside one level, and
orbit sizes divide the Coxeter number h, as c^h = 1; this is the cyclic
action behind the cyclic sieving of NC(W).  The descent table is
equivariant: along each block, rotate(zero[i]) = zero[i + 1] and the
last row rotates to the first (checked once per ambient, one block's
``MaskLayout.orbit`` at a time), so the children of c u c^{-1} are the
rotations of the children of u, and the complement of c u c^{-1} is
c (u^{-1} c) c^{-1}, the rotation of the complement of u.  Types are
constant on an orbit, as the parabolic subgroup of c u c^{-1} is that of
u conjugated by c.  Enumeration therefore steps down, ANDs out the
complement and classifies only from one head per orbit, and keeps each
orbit as one record: its head, size, rank and type and the head's
complement (the other members and their complements are rotations of
these), with the type of every member's mask.  That is the only store of
the poset: an element is its mask, and the direct oracles (``direct``:
Moebius function, multichains, NC^m) and the cache text expand the
records into masks (``NcPoset.members``).  On the reflections the orbits
are the cycles of pi, and ``reflection_orbits`` types each orbit's t c,
the complement of t, from one row of the descent table.

Censuses from intervals.  For q in NC of type S, the interval [1, q] is
NC(W_S) with types kept (Brady-Watt), and the complement of u <= q in
it has the mask comp(u) & moved(q), by the identity above.  So the pair
census of every type below an enumerated ambient is read off one of its
intervals, and a process walks only its highest ambient.  The orbit
records serve it by conjugation: u = c^j x c^{-j}, x the head of its
orbit, lies below q exactly when x lies below q_j = c^{-j} q c^j, and
then comp(u) & moved(q) is the rotation of comp(x) & moved(q_j), of
the same type.  Each orbit is scanned from its head against the
rotations of q, and so is the brute-force descent below the top
(``NcPoset.count``).  The scan keeps the members it finds, per orbit,
as the pool of [1, q]; an interval [1, q'] with q' <= q lies inside
it, so its census is read off the pool alone.  One method reads every
census, ``NcPoset.census(t)``, and keeps each on the poset with its
pool.  At the top it counts per c-orbit (``pair_census``).
Below it, the first call reads the D and E types largest first, and
every type, A included, is read off the smallest interval already read
that holds it: in NC(E8) only the E7 and D7 intervals scan the records,
E6 is read inside [1, q_E7] and D6, D5 and D4 each inside the interval
before.  chi* needs no census of type A: it counts elements by type
(``decomp.chi_vector``), and type A has a closed form for that.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import lru_cache
from operator import attrgetter, itemgetter

from .rootsystem import build_root_system, classify_edge_list
from .typelabel import SUPPORTED_AMBIENTS, degree_pairs, label, per_type

CACHE_SCHEMA_VERSION = 3

_RANK = attrgetter("rank")


class NcPoset:
    """The full typed poset NC for one ambient, kept per c-orbit.

    The walk stores ``records``, one (head mask, orbit size, rank, type,
    complement mask of the head) per orbit of conjugation by c, level by
    level from the top in order of discovery, and ``types``, the type of
    every element by its moved-root mask.  ``records_of`` lists the
    records of one type.  An element is its mask: ``members`` expands
    the records, ``ranked`` lists the masks by rank for the direct
    oracles, and ``le`` is the order on masks.  Decomposition numbers
    read the store only through ``census`` and ``count``, both memoized.
    """

    def __init__(self, rs, layout, records, types):
        self.rs = rs
        self.layout = layout
        self.records = records
        self.types = types
        self._by_type = {}           # TypeLabel -> its records
        for record in records:
            self._by_type.setdefault(record[3], []).append(record)
        # the pool of [1, c] (``_scan``): every record, all its powers
        self._whole = records, [range(record[1]) for record in records]
        self._counts = {}            # the memo of count
        self._censuses = {}          # the memo of census: (census, pool)

    def __len__(self):
        return len(self.types)

    def members(self):
        """Every element as (mask, rank, type, complement mask), orbit by
        orbit in the order of the records, each orbit from its head: the
        other members and their complements are the rotations of the
        head's (``MaskLayout.orbit``)."""
        orbit = self.layout.orbit
        for head, _, rank, typ, comp in self.records:
            for mask, image in zip(orbit(head), orbit(comp)):
                yield mask, rank, typ, image

    def ranked(self):
        """The (mask, rank) of every element by ascending rank, each rank
        in the order of ``members``."""
        return sorted([(mask, rank) for mask, rank, _, _ in self.members()],
                      key=itemgetter(1))

    @staticmethod
    def le(u, w):
        """u <=_T w via moved-root containment, on masks."""
        return u & w == u

    def records_of(self, t):
        """The records of the c-orbits of type t, in order of discovery
        (empty when NC has no element of type t)."""
        return self._by_type.get(t, ())

    def rank_sizes(self):
        sizes = [0] * (self.rs.n + 1)
        for _, size, rank, _, _ in self.records:
            sizes[rank] += size
        return sizes

    def type_counts(self):
        """The number of elements of each type, types in order of
        discovery."""
        return {t: sum(record[1] for record in records)
                for t, records in self._by_type.items()}

    def rotations(self, q):
        """The masks of c^{-j} q c^j for j = 0, ..., h - 1, from the mask
        of q: u = c^j x c^{-j} lies below q exactly when x lies below the
        j-th of them."""
        found = self.layout.orbit(q)
        back = found[:1] + found[:0:-1]
        return back * (self.rs.coxeter_number // len(back))

    def census(self, t):
        """The pair census of NC(t), for t the type of an element of the
        poset (a label): a ``Counter`` of (type(u), type(u^{-1} q)) over
        the u <= q for one q of type t, as [1, q] is NC(t) with types kept
        (Brady-Watt).  Each census is kept on the poset with the pool of
        its interval (``_scan``).

        At the top it is ``pair_census``.  Below it, the first call reads
        the D and E types of the poset largest first, then t: each off the
        smallest interval already read that holds it, below its first
        member in that interval's pool, or off every record below its
        first head when no interval below the top holds it.  A type with
        no element in the poset raises ``KeyError``.
        """
        memo = self._censuses
        if t not in self._by_type:
            raise KeyError("NC(%s) has no element of type %s"
                           % (self.rs.typ, t))
        if t not in memo and t == self.records[0][3]:
            memo[t] = self.pair_census(), None
        elif t not in memo:
            for s in sorted((s for s in self._by_type
                             if s.is_irreducible and s.rank < self.rs.n
                             and s.components[0][0] != "A"),
                            key=_RANK, reverse=True) + [t]:
                if s not in memo:
                    # the pool of the smallest interval read that holds
                    # s; None, every record, for the top or when none does
                    pool = min(((sum(counts.values()), held)
                                for counts, held in memo.values()
                                if any(u == s for u, _ in counts)),
                               key=itemgetter(0), default=(0, None))[1]
                    records, powers = pool or self._whole
                    k = next(k for k, record in enumerate(records)
                             if record[3] == s)
                    q = self.layout.orbit(records[k][0])[powers[k][0]]
                    memo[s] = self._scan(q, pool)
        return memo[t][0]

    def _scan(self, q, pool=None):
        """The census of [1, q] and the pool of [1, q]: the orbits with a
        member u = c^j x c^{-j} below q, as two parallel lists, their
        records and, per orbit, the powers j of those members as a
        ``bytes`` (j < h <= 30), in the order of the scan.

        The member u of the orbit of a head x lies below q when x lies
        below q_j = c^{-j} q c^j, and then u^{-1} q is conjugate to
        comp(x) & q_j, of the same type.  So the orbits of the levels up
        to the rank of q are scanned from their heads against the
        ``rotations`` of q, highest level first, each orbit's members in
        order (``_below``).  Without a pool every orbit of the records is
        scanned; given the pool of an interval above q, only its members
        are, as every u <= q lies in it.  The census and its key order are
        the same either way: the pool keeps the records in order and each
        orbit's powers ascending."""
        rotations, types = self.rotations(q), self.types
        found = list(self._below(q, rotations, pool))
        return (Counter((typ, types[comp & rotations[j]])
                        for (_, _, _, typ, comp), powers in found
                        for j in powers),
                ([record for record, _ in found],
                 [bytes(powers) for _, powers in found]))

    def _below(self, q, rotations, pool):
        """The one member-finding loop: per orbit of the pool (every
        record for None) with a member c^j x c^{-j} below q, its record
        and the ascending powers j of those members, x below q_j, the
        j-th of the ``rotations`` of q."""
        qrank = self.types[q].rank
        for record, candidates in zip(*(pool or self._whole)):
            if record[2] <= qrank:
                head, powers = record[0], None
                for j in candidates:
                    if head & rotations[j] == head:
                        if powers is None:
                            powers = [j]
                        else:
                            powers.append(j)
                if powers is not None:
                    yield record, powers

    def pair_census(self):
        """Counts of (type(w), type(w^{-1} c)) over all elements: the
        full-rank two-factor decomposition counts of the ambient.

        Conjugation by c keeps the type of w and, as it rotates the
        complement with w, the type of w^{-1} c, so each c-orbit is
        counted once, from its head, weighted by its size.  The keys come
        in the order of ``_scan`` of the top, which counts the same pairs
        element by element.
        """
        types = self.types
        counts = Counter()
        for _, size, _, typ, comp in self.records:
            counts[typ, types[comp]] += size
        return counts

    def count(self, key):
        """The decomposition number of a canonical key of rank sum at most
        the ambient rank, by recursive descent.  The first factor runs
        over the c-orbits of its type (``records_of``).  At the top, each
        orbit is descended from its head, weighted by its size (as in
        ``pair_census``).  Below, at an element w, the member c^j x c^{-j}
        of the orbit of a head x lies below w when x lies below
        w_j = c^{-j} w c^j (``rotations``); conjugation by c keeps the
        counts, so it is descended at comp(x) & w_j, conjugate to its
        complement in w.  The descent is memoized on (element mask,
        remaining suffix) in ``_counts``, which every call shares; below
        the top, the conjugates of an element also share the entry of the
        least mask of their orbit, as their counts are equal.
        """
        memo, of_type, records_of = self._counts, self.types, self.records_of
        top = self.records[0][0]

        def descend(w, suffix):
            if not suffix:
                return 1
            state = (w, suffix)
            cached = memo.get(state)
            if cached is not None:
                return cached
            head, rest = suffix[0], suffix[1:]
            total = 0
            if not rest and head.rank == of_type[w].rank:
                # full-rank last factor is forced
                total = 1 if of_type[w] == head else 0
            elif w == top:
                # conjugation by c keeps factorizations and their types, so
                # each c-orbit of the first factor is descended from its head
                for _, size, _, _, comp in records_of(head):
                    total += size * descend(comp, rest)
            else:
                rotations = self.rotations(w)
                least = (min(rotations), suffix)
                total = memo.get(least)
                if total is None:
                    total = 0
                    for x, size, _, _, comp in records_of(head):
                        for wj in rotations[:size]:
                            if x & wj == x:
                                total += descend(comp & wj, rest)
                    memo[least] = total
            memo[state] = total
            return total

        return descend(top, key)


class MaskLayout:
    """The layout of the moved-root masks of one ambient: bit i stands for
    the positive root ``order[i]``, and the roots of each cycle of pi
    (``coxeter_root_permutation``) take consecutive bits in the
    cycle's order, starting from its lowest root.  ``blocks`` holds the
    (first bit, size) of each cycle, in the order of their lowest roots."""

    __slots__ = ("order", "blocks", "_keep", "_wraps")

    def __init__(self, pi):
        order, blocks = [], []
        seen = [False] * len(pi)
        for start in range(len(pi)):
            first = len(order)
            cur = start
            while not seen[cur]:
                seen[cur] = True
                order.append(cur)
                cur = pi[cur]
            if len(order) > first:
                blocks.append((first, len(order) - first))
        self.order = tuple(order)
        self.blocks = tuple(blocks)
        lasts = {}                        # block size -> its last bits
        for first, size in blocks:
            lasts[size] = lasts.get(size, 0) | 1 << (first + size - 1)
        self._keep = ((1 << len(order)) - 1) ^ sum(lasts.values())
        self._wraps = tuple((last, size - 1) for size, last in lasts.items())

    def orbit(self, mask):
        """The masks of the c-orbit of u from the mask of u: u, c u c^{-1},
        c^2 u c^{-2} and so on until it comes back to u, each the one
        before with every block rotated by one place, its last bit
        wrapping to its first."""
        keep, wraps = self._keep, self._wraps
        found = [mask]
        image = mask
        while True:
            rotated = (image & keep) << 1
            for last, shift in wraps:
                rotated |= (image & last) >> shift
            if rotated == mask:
                return found
            found.append(rotated)
            image = rotated


def _coxeter_word(rs):
    """The word w_1 ... w_n of the bipartite Coxeter element c (the order
    of ``weyl.bipartite_coxeter``: the first color block, then the
    second, ascending node index in each), and ``reflect(root,
    letters)``, which applies s_i for each letter i in turn, first letter
    first, to a root held as a list of simple-root coefficients, in
    place: s_i replaces coefficient i by the sum of its neighbors' less
    itself, as the diagram is simply laced."""
    word = [i for block in rs.bipartition for i in block]
    neighbors = [[] for _ in range(rs.n)]
    for a, b in rs.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)

    def reflect(root, letters):
        for i in letters:
            root[i] = sum(root[j] for j in neighbors[i]) - root[i]
        return root

    return word, reflect


@per_type
def coxeter_root_permutation(name):
    """The permutation pi of the positive-root indices by the bipartite
    Coxeter element c: pi[b] is the index of the positive one of c.b and
    -c.b, c.b being the n simple reflections of the word of c applied to
    the root b, the last letter first.  Conjugation by c maps the
    reflection t_b to t_{pi[b]}, and an element moving the roots S to one
    moving pi(S)."""
    rs = build_root_system(name)
    word, reflect = _coxeter_word(rs)
    letters = word[::-1]
    roots = rs.positive_roots
    index = {r: i for i, r in enumerate(roots)}
    pi = []
    for root in roots:
        image = tuple(reflect(list(root), letters))
        found = index.get(image)
        pi.append(found if found is not None
                  else index[tuple(-x for x in image)])
    if sorted(pi) != list(range(len(pi))):
        raise AssertionError("c does not permute the positive roots")
    return tuple(pi)


@per_type
def mask_layout(name):
    """The ``MaskLayout`` of the named ambient."""
    return MaskLayout(coxeter_root_permutation(name))


@per_type
def _root_tables(name):
    """Root partners and linked roots over the bits of ``mask_layout``,
    root_k the root of bit k: ``partners[k]`` masks the a with
    root_k - root_a a positive root, ``linked[a]`` the other roots that
    pair nonzero with root_a.  Simply laced, two positive roots pair to
    -1 when their sum is a root, to +1 when their difference is, else to
    0, so one pass over the triples root_a + root_b = root_k fills both.
    A root packs into one int, a field per simple-root coefficient, each
    wide enough for twice the largest coefficient, so that packed
    positive roots add with no carry between fields."""
    roots = build_root_system(name).positive_roots
    width = (2 * max(map(max, roots))).bit_length()
    packed = [sum(c << width * i for i, c in enumerate(roots[r]))
              for r in mask_layout(name).order]
    index = {p: i for i, p in enumerate(packed)}
    partners = [0] * len(roots)
    linked = [0] * len(roots)
    for a, p in enumerate(packed):
        for b in range(a + 1, len(roots)):
            k = index.get(p + packed[b])
            if k is not None:
                partners[k] |= 1 << a | 1 << b
                linked[a] |= 1 << b | 1 << k
                linked[b] |= 1 << a | 1 << k
                linked[k] |= 1 << a | 1 << b
    return tuple(partners), tuple(linked)


@lru_cache(maxsize=None)
def _classify_edges(k, edges):
    return classify_edge_list(range(k), edges)


def classify_simple_roots(linked, simples):
    """The type of the sub-root system with simple roots at the ascending
    bits ``simples``; its Dynkin diagram has an edge wherever ``linked``
    pairs two.  Moved roots lie in a subspace, so with root_k and root_a
    so is root_k - root_a: the simple roots of a mask (its members not
    the sum of two members) are its bits k with no partner in it."""
    edges = tuple((i, j) for i, a in enumerate(simples)
                  for j in range(i + 1, len(simples))
                  if linked[a] >> simples[j] & 1)
    return _classify_edges(len(simples), edges)


# a byte of a packed row of Z biased by 128 -> "1" if the value is 0
_ZERO_BYTE = bytes.maketrans(bytes(range(256)),
                             b"0" * 128 + b"1" + b"0" * 127)


@per_type
def _descent_masks(name):
    """The rows zero[i] of the zero pattern of Z[a, b] = <b, (c - I)^{-1} a>,
    in exact integers, for a = the root of bit i, each a mask over the
    bits of b (``mask_layout``).  The Coxeter word gives the basis
    beta_k = (I - c) omega_{w_k}; a simple root is sum_k y_k beta_k, y by
    back-substitution, and Z[alpha_i, b] = -sum_k y_k b_{w_k} (see the
    module docstring).

    A row is packed into one int, a byte per bit of b: Z is bilinear, so
    the row of a root a is sum_i a_i times the packed row of alpha_i,
    itself sum_j v_i[j] times the packed coefficients b_j.  Each value
    fits a signed byte: c keeps the Cartan form and its eigenvalues are
    e^{2 pi i m / h} with 0 < m < h, so |Z[a, b]| <= |a| |b| /
    |1 - e^{2 pi i / h}| = 1 / sin(pi / h) <= h / 2, at most 15 here.
    Biased by 128 in every byte, the row's bytes read 128 exactly where
    Z vanishes."""
    rs = build_root_system(name)
    n = rs.n
    word, reflect = _coxeter_word(rs)
    # beta_k = s_{w_1} ... s_{w_{k-1}} alpha_{w_k}: coefficient 1 at w_k,
    # the others at letters before it
    betas = [reflect([int(j == i) for j in range(n)], word[:k][::-1])
             for k, i in enumerate(word)]
    roots, order = rs.positive_roots, mask_layout(name).order
    size = len(roots)
    # coefficient j of every root b, a byte per bit of b
    coeffs = [int.from_bytes(bytes(roots[b][j] for b in order), "little")
              for j in range(n)]
    simple = []
    for i in range(n):
        # v[w_k] = y_k for alpha_i = sum_k y_k beta_k, so that the row of
        # alpha_i is -(b . v) over the roots b
        rest, v = [int(j == i) for j in range(n)], [0] * n
        for k in range(n - 1, -1, -1):
            y = v[word[k]] = rest[word[k]]
            if y:
                rest = [x - y * z for x, z in zip(rest, betas[k])]
        simple.append(sum(y * packed for y, packed in zip(v, coeffs) if y))
    bias = int.from_bytes(b"\x80" * size, "little")
    zero = []
    for a in order:
        row = bias + sum(x * packed for x, packed in zip(roots[a], simple)
                         if x)
        zero.append(int(row.to_bytes(size, "little")
                        .translate(_ZERO_BYTE)[::-1], 2))
    return tuple(zero)


def reflection_orbits(rs):
    """Orbits of the reflections under conjugation by the bipartite
    Coxeter element: the cycles of ``coxeter_root_permutation``, the
    blocks of ``mask_layout``.

    Returns a list of dicts with keys ``size``, ``representative`` (a
    positive-root index b, the lowest of its cycle), and
    ``product_type``, the type of t_b c.  As t_b is an involution, t_b c
    is its right complement in NC; t_b moves no positive root but b, so
    t_b c moves the roots of the row of b in the descent table, typed
    as the walk types a mask.  Orbit sizes are checked to be h or h/2.
    """
    zero = _descent_masks(rs.typ)
    layout = mask_layout(rs.typ)
    partners, linked = _root_tables(rs.typ)
    h = rs.coxeter_number
    orbits = []
    for first, size in layout.blocks:
        if size not in (h, h // 2):
            raise AssertionError("orbit size %d not in {h, h/2}" % size)
        row = zero[first]
        typ = classify_simple_roots(linked, [
            k for k in range(row.bit_length())
            if row >> k & 1 and not partners[k] & row])
        if typ.rank != rs.n - 1:
            raise AssertionError("type rank %d of t*c != n - 1" % typ.rank)
        orbits.append({"size": size, "representative": layout.order[first],
                       "product_type": typ})
    return orbits


@per_type
def enumerate_nc(name):
    """Enumerate and type the poset NC for the named ambient.

    Walks down from the bipartite Coxeter element by moved-root masks,
    one orbit of conjugation by c at a time: only the orbit's head steps
    down, ANDs out its complement and collects its simple roots, all in
    one pass over its bits, and is classified; the rest of the orbit
    comes by rotation (``MaskLayout.orbit``) and takes the head's type.
    The poset keeps one record per orbit and the type of every mask
    (``NcPoset``).  The descent table is checked to be c-equivariant,
    each head's type rank against its level, each orbit size to divide
    h, and the element count against the closed form (two elements
    sharing a mask would collapse into one)."""
    rs = build_root_system(name)
    zero = _descent_masks(name)
    layout = mask_layout(name)
    orbit_of = layout.orbit
    partners, linked = _root_tables(name)
    for first, size in layout.blocks:
        # rotate(zero[i]) = zero[i + 1] along the block and the last row
        # rotates to the first: the rows repeat the first row's orbit
        found = orbit_of(zero[first])
        if found * (size // len(found)) != list(zero[first:first + size]):
            raise AssertionError("descent rows %d to %d are not "
                                 "c-equivariant" % (first, first + size - 1))
    h = rs.coxeter_number
    top = (1 << len(zero)) - 1
    records, types = [], {}
    orbits = [[top]]
    for rank in range(rs.n, -1, -1):
        seen, below = set(), []         # the orbits one level down
        for orbit in orbits:
            head = orbit[0]
            comp, rest, simples = top, head, []
            while rest:
                low = rest & -rest
                rest ^= low
                bit = low.bit_length() - 1
                row = zero[bit]
                comp &= row
                if not partners[bit] & head:
                    simples.append(bit)
                child = head & row
                if child not in seen:
                    found = orbit_of(child)
                    if h % len(found):
                        raise AssertionError("orbit size %d does not divide "
                                             "h = %d" % (len(found), h))
                    seen.update(found)
                    below.append(found)
            typ = classify_simple_roots(linked, simples)
            if typ.rank != rank:
                raise AssertionError("type rank %d != level %d"
                                     % (typ.rank, rank))
            records.append((head, len(orbit), rank, typ, comp))
            types.update(dict.fromkeys(orbit, typ))
        orbits = below
    expected = ncm_cardinality(name, 1)
    if len(types) != expected:
        raise AssertionError("NC(%s) has %d elements, expected %d"
                             % (name, len(types), expected))
    poset = NcPoset(rs, layout, records, types)
    _WALKED[name] = poset
    return poset


# the posets enumerate_nc has built in this process, by ambient label
_WALKED = {}


def census(t):
    """The pair census of NC of an irreducible type (a label or its
    text): counts of (type(u), type(u^{-1} c)) over its elements, a copy
    of ``NcPoset.census`` of the smallest poset walked so far that has
    an element of type t.  NC(t) is walked only when none has.  A
    reducible or empty type is refused with ``ValueError``."""
    t = label(t)
    if not t.is_irreducible:
        raise ValueError("a census needs an irreducible type, not %r"
                         % str(t))
    walked = [poset for poset in _WALKED.values() if poset.records_of(t)]
    poset = min(walked, key=len) if walked else enumerate_nc(t)
    return dict(poset.census(t))


def ncm_cardinality(t, m):
    """|NC^m| for the given type (a label or its text): the Fuss-Catalan
    number prod_i (mh + d_i)/d_i over the degrees d_i of each component
    of Coxeter number h, one integer division, checked exact."""
    num = den = 1
    for h, d in degree_pairs(label(t)):
        num, den = num * (m * h + d), den * d
    value, rest = divmod(num, den)
    if rest:
        raise AssertionError("non-integral NC^m cardinality")
    return value


# ---------------------------------------------------------------------------
# characteristic polynomials


@per_type
def characteristic_polynomial(t):
    """chi* of NC of any type (a label or its text): the polynomial in y
    of its integer coefficients, ``decomp.chi_vector`` past its cache, so
    that ``__wrapped__`` computes chi* afresh.  The cached polynomials are
    shared and not to be changed."""
    from .decomp import chi_vector
    from .polynomial import SparsePolynomial
    coeffs, _ = chi_vector.__wrapped__(t)
    return SparsePolynomial({(0, j, 0, 0): c for j, c in enumerate(coeffs)})


# ---------------------------------------------------------------------------
# poset cache files
#
# No command reads or writes these files: a walk of NC(E8) costs less
# than checking a cache hit, which walks it again.  The functions stay
# for the span names perfbench/tracer.py wraps.


def _cache_text(poset):
    """The cache file of an enumerated poset, as a record stream.

    One JSON object per line: a header with the schema version and the
    ambient label, then one record per element, level by level, with
    its moved-root mask (hexadecimal), rank and type.
    """
    import json
    header = {
        "schema_version": CACHE_SCHEMA_VERSION,
        "ambient": str(poset.rs.typ),
    }
    lines = [json.dumps(header)]
    for mask, rank, typ, _ in sorted(poset.members(), key=itemgetter(1)):
        lines.append(json.dumps({"mask": format(mask, "x"), "rank": rank,
                                 "type": str(typ)}))
    return "\n".join(lines) + "\n"


def write_cache(poset, path):
    """Write ``_cache_text`` of an enumerated poset to ``path``.  The
    write is atomic (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    import tempfile     # here, so that only a cache write pays for it
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_cache_text(poset).encode("ascii"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class CacheFormatError(ValueError):
    """The cache file is not the text of a fresh enumeration: damaged,
    stale, of another version or for an unsupported ambient."""


def read_cache(path, expected_ambient=None):
    """The poset NC whose cache file write_cache wrote at ``path``.

    The file must hold, byte for byte, the text of a fresh enumeration
    of its ambient: ``expected_ambient`` when given, else the ambient
    its header names.  Returns ``enumerate_nc``'s poset; any damaged,
    stale or differently spelt content raises ``CacheFormatError``.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    name = expected_ambient
    if name is None:
        import json
        try:
            name = json.loads(data.partition(b"\n")[0])["ambient"]
        except (ValueError, TypeError, KeyError) as err:
            raise CacheFormatError("bad cache header (%s: %s)"
                                   % (type(err).__name__, err)) from None
    name = str(name)
    if name not in SUPPORTED_AMBIENTS:
        raise CacheFormatError("cache for unsupported ambient %r" % name)
    poset = enumerate_nc(name)
    if data != _cache_text(poset).encode("ascii"):
        raise CacheFormatError("cache is not the enumeration of NC(%s)"
                               % name)
    return poset
