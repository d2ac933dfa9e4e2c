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
* the parabolic type of the element (classification of the sub-root
  system spanned by the moved roots).

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
``Z[a, b] = <b, (c - I)^{-1} a> = b^T C (c - I)^{-1} a``.  Its zero
pattern is one K x K table per ambient (K positive roots), found in
integers from one kernel: as c - I is invertible, the kernel of the
n x 2n matrix [c - I | -I] has one basis vector per simple root alpha_i,
a positive multiple of ((c - I)^{-1} alpha_i, e_i).  Z is linear in a,
so over a common scale the row of a non-simple root r is the row of
the positive root r - alpha_i plus the row of alpha_i.  The moved set
of the child t_a w is the moved set of w intersected with the zero
pattern of row a of Z: one AND of two masks per element.

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
(``weyl.coxeter_root_permutation``), applied root by root.  The mask
bits are laid out along the cycles of pi (``mask_layout``): bit i stands
for the positive root order[i], and the roots of each cycle take
consecutive bits in the cycle's order, so conjugation by c rotates each
cycle's block of bits by one place, a few shifts of the whole mask.  It
keeps reflection length, so each orbit lies inside one level, and
orbit sizes divide the Coxeter number h, as c^h = 1; this is the cyclic
action behind the cyclic sieving of NC(W).  The descent table is
equivariant, rotate(zero[i]) = zero[pos[pi(order[i])]] (checked once
per ambient), so the children of c u c^{-1} are the rotations of the
children of u, and the complement of c u c^{-1} is c (u^{-1} c) c^{-1},
the rotation of the complement of u.  Types are constant on an orbit,
as the parabolic subgroup of c u c^{-1} is that of u conjugated by c.
Enumeration therefore steps down, ANDs out the complement and
classifies only from one head per orbit, and makes the other elements
of the orbit, with their complements, by rotation.  On the reflections
the orbits are the cycles of pi, and ``reflection_orbits`` types each
orbit's t c, the complement of t, from one row of the descent table.

Censuses from intervals.  For q in NC of type S, the interval [1, q] is
NC(W_S) with types kept (Brady-Watt), and the complement of u <= q in
it has the mask comp(u) & moved(q), by the identity above.  So the pair
census of every type below an enumerated ambient is read off one of its
intervals (``census``), and a process walks only its highest ambient.

One zeta identity.  ``zeta_rows`` compares the closed-form zeta
polynomial of NC^m with its decomposition-number expansion in integers,
for the zeta rows of ``linsys`` and ``triangles.zeta_identity_check``.

The m-divisible poset NC^m consists of minimal-length factorizations
c = w0 * w1 * ... * wm ordered componentwise (opposite order in the
coordinates 1..m); it is graded by the length of w0.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from . import exact
from .exact import SparsePolynomial, Z as _Z, M as _M, int_kernel
from .rootsystem import SUPPORTED_AMBIENTS, build_root_system, degree_pairs
from .typelabel import ResourceGuardError, label
from .weyl import (_matmul, _minus_eye, bipartite_coxeter,
                   classify_moved_roots, coxeter_root_permutation)

CACHE_SCHEMA_VERSION = 3


class NcElement:
    """One element u of NC: its moved-root mask ``key`` (bit i set when
    positive root ``mask_layout(ambient).order[i]`` is moved), rank,
    type, and ``comp``, the mask of its right complement u^{-1} c.
    Compared by identity."""

    __slots__ = ("key", "rank", "typ", "comp")

    def __init__(self, key, rank, typ, comp):
        self.key = key
        self.rank = rank
        self.typ = typ
        self.comp = comp

    def __repr__(self):
        return "<NcElement %x rank=%d type=%s>" % (self.key, self.rank,
                                                   self.typ)


class NcPoset:
    """The full typed poset NC for one ambient type."""

    def __init__(self, rs, elements, levels, by_type, orbits, identity,
                 top):
        self.rs = rs
        self.elements = elements     # moved-root mask -> NcElement
        self.levels = levels         # levels[k] = NcElements of rank k
        self.by_type = by_type       # TypeLabel -> list of NcElements
        self.orbits = orbits         # (head NcElement, size) per c-orbit
        self.identity = identity
        self.top = top

    def __len__(self):
        return len(self.elements)

    def le(self, u, w):
        """u <=_T w via moved-root containment."""
        return u.key & w.key == u.key

    def complement(self, u, w=None):
        """The complement u^{-1} w of u <= w (default w = top), as a poset
        element."""
        mask = u.comp if w is None else u.comp & w.key
        return self.elements[mask]

    def rank_sizes(self):
        return [len(level) for level in self.levels]

    def interval_census(self, q):
        """A ``Counter`` of (type(u), type(u^{-1} q)) over the u <= q.

        The interval [1, q] is NC of the type of q with types kept
        (Brady-Watt), so these are the full-rank two-factor decomposition
        counts of that type.  The levels up to the rank of q are scanned,
        highest first.
        """
        elements, qkey = self.elements, q.key
        return Counter((u.typ, elements[u.comp & qkey].typ)
                       for level in reversed(self.levels[:q.rank + 1])
                       for u in level if u.key & qkey == u.key)

    def pair_census(self):
        """Counts of (type(w), type(w^{-1} c)) over all elements: the
        full-rank two-factor decomposition counts of the ambient.

        Conjugation by c keeps the type of w and, as it rotates the
        complement with w, the type of w^{-1} c, so each c-orbit is
        counted once, from its head, weighted by its size.  Orbits come
        level by level, highest first, so the keys come in the order of
        ``interval_census(top)``, which counts the same pairs element by
        element.
        """
        elements = self.elements
        counts = Counter()
        for head, size in self.orbits:
            counts[head.typ, elements[head.comp].typ] += size
        return counts


class MaskLayout:
    """The layout of the moved-root masks of one ambient: bit i stands for
    the positive root ``order[i]``, and the roots of each cycle of pi
    (``weyl.coxeter_root_permutation``) take consecutive bits in the
    cycle's order, starting from its lowest root.  ``blocks`` holds the
    (first bit, size) of each cycle, in the order of their lowest roots,
    and ``pos`` inverts ``order``."""

    __slots__ = ("order", "pos", "blocks", "_keep", "_wraps")

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
        self.pos = tuple(sorted(range(len(order)), key=order.__getitem__))
        self.blocks = tuple(blocks)
        lasts = {}                        # block size -> its last bits
        for first, size in blocks:
            lasts[size] = lasts.get(size, 0) | 1 << (first + size - 1)
        self._keep = ((1 << len(order)) - 1) ^ sum(lasts.values())
        self._wraps = tuple((last, size - 1) for size, last in lasts.items())

    def conjugate(self, mask):
        """The mask of c u c^{-1} from the mask of u: each block rotated
        by one place, its last bit wrapping to its first."""
        image = (mask & self._keep) << 1
        for last, shift in self._wraps:
            image |= (mask & last) >> shift
        return image

    def orbit(self, mask):
        """The masks of the c-orbit of u from the mask of u: u, c u c^{-1},
        c^2 u c^{-2} and so on, each the ``conjugate`` of the one before,
        until it comes back to u; the rotation runs inline."""
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

    def roots(self, mask):
        """The ascending positive-root indices of the set bits of a mask."""
        order = self.order
        return sorted(order[i] for i in range(mask.bit_length())
                      if mask >> i & 1)


@lru_cache(maxsize=None)
def mask_layout(name):
    """The ``MaskLayout`` of the named ambient."""
    return MaskLayout(coxeter_root_permutation(name))


@lru_cache(maxsize=None)
def _descent_masks(name):
    """The rows zero[i] of the zero pattern of Z[a, b] = b^T C (c - I)^{-1} a,
    in exact integers, for a = the root of bit i, each a mask over the
    bits of b (``mask_layout``).  The kernel of [c - I | -I] gives
    (c - I)^{-1} alpha_i up to a positive factor; over their lcm, the
    value rows of the simple roots add up to those of the others (see
    the module docstring)."""
    rs = build_root_system(name)
    n = rs.n
    c_minus_eye = _minus_eye(bipartite_coxeter(rs))
    if int_kernel(c_minus_eye):
        raise ValueError("c - I is singular")
    kernel = int_kernel([row + [-(i == j) for j in range(n)]
                         for i, row in enumerate(c_minus_eye)])
    scale = lcm(*(y[n + i] for i, y in enumerate(kernel)))
    # v_i = C (c - I)^{-1} alpha_i times scale, so Z[alpha_i, b] = b . v_i
    # times a positive factor common to all rows
    vectors = _matmul([[x * (scale // y[n + i]) for x in y[:n]]
                       for i, y in enumerate(kernel)],
                      tuple(zip(*rs.cartan)))
    roots = rs.positive_roots
    order = mask_layout(name).order
    columns = [roots[b] for b in order]
    values = [[sum(x * y for x, y in zip(r, v)) for r in columns]
              for v in vectors]
    index = {r: a for a, r in enumerate(roots)}
    for r in roots[n:]:                 # by height: r - alpha_i comes first
        for i, coeff in enumerate(r):
            lower = index.get(r[:i] + (coeff - 1,) + r[i + 1:])
            if lower is not None:
                break
        values.append([x + y for x, y in zip(values[lower], values[i])])
    return tuple(sum(1 << j for j, x in enumerate(values[a]) if not x)
                 for a in order)


def reflection_orbits(rs):
    """Orbits of the reflections under conjugation by the bipartite
    Coxeter element: the cycles of ``coxeter_root_permutation``, the
    blocks of ``mask_layout``.

    Returns a list of dicts with keys ``size``, ``representative`` (a
    positive-root index b, the lowest of its cycle), and
    ``product_type``, the type of t_b c.  As t_b is an involution, t_b c
    is its right complement in NC; t_b moves no positive root but b, so
    t_b c moves the roots of the row of b in the descent table.  Orbit
    sizes are checked to be h or h/2.
    """
    name = str(rs.typ)
    zero = _descent_masks(name)
    layout = mask_layout(name)
    h = rs.coxeter_number
    orbits = []
    for first, size in layout.blocks:
        if size not in (h, h // 2):
            raise AssertionError("orbit size %d not in {h, h/2}" % size)
        typ = classify_moved_roots(rs, layout.roots(zero[first]))
        if typ.rank != rs.n - 1:
            raise AssertionError("type rank %d of t*c != n - 1" % typ.rank)
        orbits.append({
            "size": size,
            "representative": layout.order[first],
            "product_type": typ,
        })
    return orbits


@lru_cache(maxsize=None)
def enumerate_nc(name):
    """Enumerate and type the poset NC for the named ambient.

    Walks down from the bipartite Coxeter element by moved-root masks,
    one orbit of conjugation by c at a time: only the orbit's head steps
    down, ANDs out its complement and is classified, and the rest of
    the orbit, with complements and type, comes by rotation
    (``MaskLayout.orbit``; the complements of the orbit are the orbit of
    the head's complement).  Each element stores its mask, rank, type
    and complement mask; levels list the orbits in order of discovery,
    and ``orbits`` holds each orbit's head and size, level by level
    from the top.  The descent table is checked to be c-equivariant,
    each head's type rank against its level, each orbit size to divide
    h, and the element count against the closed form (two elements
    sharing a mask would collapse into one).
    """
    rs = build_root_system(name)
    zero = _descent_masks(name)
    layout = mask_layout(name)
    conjugate, orbit_of = layout.conjugate, layout.orbit
    order, pos = layout.order, layout.pos
    pi = coxeter_root_permutation(name)
    for i, row in enumerate(zero):
        if conjugate(row) != zero[pos[pi[order[i]]]]:
            raise AssertionError("descent row %d is not c-equivariant" % i)
    h = rs.coxeter_number
    top = (1 << len(zero)) - 1
    levels = [[] for _ in range(rs.n + 1)]
    by_type = {}
    elements = {}
    heads = []
    orbits = [[top]]
    for rank in range(rs.n, -1, -1):
        seen, below = set(), []         # the orbits one level down
        for orbit in orbits:
            head = orbit[0]
            comp, rest, moved = top, head, []
            while rest:
                low = rest & -rest
                rest ^= low
                bit = low.bit_length() - 1
                row = zero[bit]
                comp &= row
                moved.append(order[bit])
                child = head & row
                if child not in seen:
                    found = orbit_of(child)
                    if h % len(found):
                        raise AssertionError("orbit size %d does not divide "
                                             "h = %d" % (len(found), h))
                    seen.update(found)
                    below.append(found)
            moved.sort()
            typ = classify_moved_roots(rs, moved)
            if typ.rank != rank:
                raise AssertionError("type rank %d != level %d"
                                     % (typ.rank, rank))
            typed = []
            for mask, comp in zip(orbit, orbit_of(comp)):
                el = elements[mask] = NcElement(mask, rank, typ, comp)
                typed.append(el)
            heads.append((typed[0], len(typed)))
            levels[rank] += typed
            by_type.setdefault(typ, []).extend(typed)
        orbits = below
    expected = ncm_cardinality(label(name), 1)
    if len(elements) != expected:
        raise AssertionError("NC(%s) has %d elements, expected %d"
                             % (name, len(elements), expected))
    poset = NcPoset(rs=rs, elements=elements, levels=levels,
                    by_type=by_type, orbits=heads, identity=levels[0][0],
                    top=levels[rs.n][0])
    _WALKED[name] = poset
    return poset


# the posets enumerate_nc has built in this process, by ambient name
_WALKED = {}


def census(t):
    """The pair census of NC of an irreducible type (a label or its
    text): counts of (type(u), type(u^{-1} c)) over its elements.  Each
    call returns a copy of the one census kept per type."""
    return dict(_census(label(t)))


@lru_cache(maxsize=None)
def _census(t):
    """The census of type t, read off the interval [1, q] below the first
    element q of type t in the smallest poset enumerated so far that has
    one: [1, q] is NC(W_t) with types kept (Brady-Watt).  NC(t) is
    enumerated only when no enumerated poset has an element of type t.
    When q is the top, the census is counted per c-orbit
    (``pair_census``)."""
    walked = [poset for poset in _WALKED.values() if t in poset.by_type]
    if not walked:
        return enumerate_nc(str(t)).pair_census()
    poset = min(walked, key=len)
    q = poset.by_type[t][0]
    if q is poset.top:
        return poset.pair_census()
    return poset.interval_census(q)


# ---------------------------------------------------------------------------
# Moebius functions and characteristic polynomials


def mobius(poset, max_size=10_000):
    """Full Moebius function of a small poset: map (u_key, w_key) -> int.

    Works for any object exposing ``elements`` (iterable of items with a
    ``key`` and ``rank``) and ``le``.  Guarded by ``max_size``.
    """
    items = _sorted_items(poset)
    if len(items) > max_size:
        raise ResourceGuardError("poset size %d exceeds mobius guard %d"
                                 % (len(items), max_size))
    result = {}
    for i, u in enumerate(items):
        above = [w for w in items[i:] if poset.le(u, w)]
        mu = {u.key: 1}
        for w in above[1:]:
            total = 0
            for v in above:
                if v.key == w.key:
                    break
                if poset.le(v, w):
                    total += mu[v.key]
            mu[w.key] = -total
        for w_key, value in mu.items():
            result[(u.key, w_key)] = value
    return result


def _sorted_items(poset):
    items = list(poset.elements.values()) if isinstance(poset.elements, dict) \
        else list(poset.elements)
    items.sort(key=lambda e: e.rank)
    return items


def mobius_from_top(poset):
    """mu(u, top) for every u, by downward recursion."""
    items = _sorted_items(poset)
    items.reverse()                       # descending rank
    mu = {items[0].key: 1}
    for i, u in enumerate(items[1:], start=1):
        total = 0
        for v in items[:i]:
            if poset.le(u, v):
                total += mu[v.key]
        mu[u.key] = -total
    return mu


def characteristic_direct(poset):
    """chi*(y) = sum_u mu(u, c) y^{rank u}, by direct Moebius values."""
    mu = mobius_from_top(poset)
    result = exact.ZERO
    for el in poset.elements.values():
        result = result + SparsePolynomial.variable("y", el.rank) * mu[el.key]
    return result


@lru_cache(maxsize=None)
def _mobius_number(t):
    """mu(0,1) of NC of the given type, an int: the value Z_t(-1) of
    its zeta polynomial, the constant term of ``_shifted_zeta_vector``
    over its denominator, prod_i (d_i - 2h)/d_i over the degrees of each
    component (= (-1)^n prod_i (h + d_i - 2)/d_i, Chapoton 2004)."""
    vec, den = _shifted_zeta_vector(t)
    value, rest = divmod(vec[0], den)
    if rest:
        raise AssertionError("non-integral Moebius number of NC(%s)" % t)
    return value


@lru_cache(maxsize=None)
def characteristic_polynomial(t):
    """chi* of NC of any type (a label or its text).  The cached
    polynomials are shared and not to be changed.

    A reducible type takes the product of its components' chi*, their
    integer y-vectors convolved (``_chi_vector``).  For an irreducible
    type, the interval [u, c] of NC is NC of the type of
    u^{-1} c, so chi*(y) = sum over factorizations c = u (u^{-1} c) of
    N(type u, type u^{-1}c) * mu(type of complement) * y^{rank u}, from
    the pair ``census``; the identity term is the type's own Moebius
    number.  The coefficients are summed in a list indexed by the power
    of y.  Raises ``AssertionError`` unless chi*(1) = 0.
    """
    t = label(t)
    if t.is_irreducible:
        coeffs = [0] * (t.rank + 1)
        for (t_low, t_comp), count in census(t).items():
            coeffs[t_low.rank] += count * _mobius_number(t_comp)
        at_one = sum(coeffs)
        if at_one:
            raise AssertionError("chi*(1) = %s != 0 for NC(%s)"
                                 % (at_one, t))
    else:
        coeffs = [1]
        for comp in t.irreducibles():
            coeffs = _convolve(coeffs, _chi_vector(comp))
    return SparsePolynomial({(0, j, 0, 0): c for j, c in enumerate(coeffs)})


def _chi_vector(t):
    """The integer coefficients of chi*(t), lowest power of y first."""
    vec = [0] * (t.rank + 1)
    for (_, j, _, _), c in characteristic_polynomial(t).terms.items():
        vec[j] = c
    return vec


# ---------------------------------------------------------------------------
# zeta polynomials


def zeta_direct(poset, z):
    """Number of multichains x_1 <= ... <= x_{z-1}, counted exactly."""
    if z < 1:
        raise ValueError("z must be >= 1")
    if z == 1:
        return 1
    items = _sorted_items(poset)
    counts = [1] * len(items)
    for _ in range(z - 2):
        new = []
        for i, w in enumerate(items):
            total = 0
            for j, u in enumerate(items[:i + 1]):
                if poset.le(u, w):
                    total += counts[j]
            new.append(total)
        counts = new
    return sum(counts)


@lru_cache(maxsize=None)
def zeta_closed(t, m=1):
    """Closed-form zeta polynomial of NC^m of the given type, in z.

    ``m`` may be an integer or the symbol ``"m"`` for the fully symbolic
    two-variable version.  For each irreducible component with Coxeter
    number h and degrees d_i the factor is prod_i ((z-1) m h + d_i)/d_i;
    components multiply.  The cached polynomials are shared and not to
    be changed.
    """
    t = label(t)
    m_poly = _M if m == "m" else exact.poly(m)
    result = exact.ONE
    for h, d in degree_pairs(t):
        result = result * ((_Z - 1) * m_poly * h + d) * Fraction(1, d)
    return result


def _convolve(a, b):
    """The coefficients of the product of two polynomials in one
    variable."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _prefix_product(products, tup, factor):
    """The product over the labels t of a tuple of the integer vectors
    over denominators ``factor(t)``, as (vector, denominator).
    ``products`` memoizes it per tuple and starts as {(): ([1], 1)}: the
    product of a tuple is one convolution from its prefix's."""
    got = products.get(tup)
    if got is None:
        vec, den = _prefix_product(products, tup[:-1], factor)
        last_vec, last_den = factor(tup[-1])
        got = products[tup] = (_convolve(vec, last_vec), den * last_den)
    return got


@lru_cache(maxsize=None)
def _scaled_binomials(n):
    """The coefficients of n! binom(m, k) in m, lowest power first, for
    k = 0..n: integers, n!/k! times the falling factorial m (m-1) ...
    (m-k+1), built one factor at a time.  The cached lists are shared
    and not to be changed."""
    n_factorial = factorial(n)
    binomials, falling = [], [1]
    for k in range(n + 1):
        binomials.append([c * (n_factorial // factorial(k))
                          for c in falling])
        falling = _convolve(falling, [-k, 1])
    return binomials


def _binomial_sum(by_length, n):
    """The sum over k of n! binom(m, k) times ``by_length[k]``, an integer
    vector in a second variable (k <= n), as a map (power of m, power of
    the second variable) -> nonzero int."""
    binomials = _scaled_binomials(n)
    totals = {}
    for k, vec in by_length.items():
        for i, b in enumerate(binomials[k]):
            if b:
                for j, c in enumerate(vec):
                    if c:
                        totals[i, j] = totals.get((i, j), 0) + b * c
    return {ij: c for ij, c in totals.items() if c}


@lru_cache(maxsize=None)
def _shifted_zeta_vector(t):
    """The closed-form zeta polynomial of NC(t) at z - 1, the factor a
    type contributes to the decomposition-number expansion of the zeta
    polynomial of NC^m, as integer z-coefficients (lowest power first)
    over a denominator, in lowest terms.

    An irreducible type of Coxeter number h has prod_i ((z-2) h + d_i)/d_i,
    the product of the vectors (d_i - 2h, h) over prod_i d_i; a reducible
    type takes the product of its components' vectors.  Each gcd(h, d_i)
    divides d_i, so an irreducible vector is primitive once reduced, and
    by Gauss's lemma so is a product of them: the reducible products are
    in lowest terms too."""
    vec, den = [1], 1
    if t.is_irreducible:
        for h, d in degree_pairs(t):
            vec, den = _convolve(vec, [d - 2 * h, h]), den * d
        common = gcd(den, *vec)
        return [c // common for c in vec], den // common
    for comp in t.irreducibles():
        comp_vec, comp_den = _shifted_zeta_vector(comp)
        vec, den = _convolve(vec, comp_vec), den * comp_den
    return vec, den


@lru_cache(maxsize=None)
def zeta_forms(n):
    """The decomposition-number expansion of the zeta polynomial of NC^m
    at rank n,

        sum over tuples T of orderings(T) binom(m, len T) prod Z_t(z - 1),

    with Z_t the closed-form zeta polynomial of NC(t)
    (``_shifted_zeta_vector``), in the full-rank decomposition numbers:
    a rank-deficient tuple's number is the sum over the full-rank tuples
    it extends by one factor, so its term adds to each of them.  Returns (forms, den):
    ``forms`` maps (power of m, power of z) to {full-rank tuple: nonzero
    int}, all over the one denominator ``den``; the cached maps are
    shared and not to be changed.

    A tuple's product is a polynomial in z alone, an integer z-vector
    over a denominator, one convolution from its prefix's
    (``_prefix_product``).  Each full-rank tuple sums its terms per
    tuple length k as one z-vector over a common denominator, and
    n! binom(m, k), which has integer coefficients for k <= n, enters
    once per tuple and length (``_binomial_sum``)."""
    from .decomp import (all_labels_of_rank, all_tuples_of_rank,
                         canonical_tuple, orderings)
    products = {(): ([1], 1)}
    for s in range(1, n + 1):
        for tup in all_tuples_of_rank(s):
            _prefix_product(products, tup, _shifted_zeta_vector)
    common = lcm(*(den for _, den in products.values()))
    by_tuple = {}                         # full-rank tuple -> {k: z-vector}
    for s in range(1, n + 1):
        for tup in all_tuples_of_rank(s):
            vec, den = products[tup]
            scale = orderings(tup) * (common // den)
            if s == n:
                targets = (tup,)
            else:
                targets = tuple(canonical_tuple(tup + (extra,))
                                for extra in all_labels_of_rank(n - s))
            for var in targets:
                by_length = by_tuple.setdefault(var, {})
                acc = by_length.setdefault(len(tup), [0] * (n + 1))
                for j, c in enumerate(vec):
                    acc[j] += scale * c
    forms = {}
    for var, by_length in by_tuple.items():
        for mz, c in _binomial_sum(by_length, n).items():
            forms.setdefault(mz, {})[var] = c
    return forms, factorial(n) * common


@lru_cache(maxsize=None)
def zeta_rows(t):
    """The closed-form zeta polynomial of NC^m of type t (a label or its
    text) less 1 against its expansion, ``zeta_forms``, in m and z.

    Returns (rows, den): one ((i, j), form, rhs) per power m^i z^j where
    either side is nonzero, in order of i, then j; ``form`` is the map of
    ``zeta_forms`` ({} if none) and ``rhs`` the closed form's coefficient
    times ``den``, the forms' denominator, an int (else AssertionError).
    The cached rows are shared and not to be changed."""
    t = label(t)
    forms, den = zeta_forms(t.rank)
    closed, closed_den = (zeta_closed(t, m="m") - 1).numerators()
    rows = []
    for i, j in sorted(forms.keys() | {(i, j) for _, _, j, i in closed}):
        rhs, rest = divmod(closed.get((0, 0, j, i), 0) * den, closed_den)
        if rest:
            raise AssertionError("non-integral zeta row m^%d z^%d of %s"
                                 % (i, j, t))
        rows.append(((i, j), forms.get((i, j), {}), rhs))
    return rows, den


def ncm_cardinality(t, m):
    """|NC^m| for the given type (a label or its text): the Fuss-Catalan
    number prod_i (mh + d_i)/d_i over the degrees d_i of each component
    of Coxeter number h, the closed-form zeta at z = 2."""
    value = Fraction(1)
    for h, d in degree_pairs(label(t)):
        value *= Fraction(m * h + d, d)
    if value.denominator != 1:
        raise AssertionError("non-integral NC^m cardinality")
    return int(value)


# ---------------------------------------------------------------------------
# m-divisible non-crossing partitions


class NcmElement:
    """Element of NC^m: the tuple (w1,...,wm); w0 is implied."""

    __slots__ = ("key", "parts", "rank")

    def __init__(self, parts, rank):
        self.parts = parts
        self.rank = rank
        self.key = tuple(p.key for p in parts)

    def __repr__(self):
        return "<NcmElement rank=%d>" % self.rank


class NcmPoset:
    """NC^m with componentwise-opposite order in coordinates 1..m."""

    def __init__(self, nc, m, elements):
        self.nc = nc
        self.m = m
        self.elements = elements

    def __len__(self):
        return len(self.elements)

    def le(self, u, w):
        """u <= w  iff  w_i <=_T u_i for every coordinate i >= 1."""
        return all(up.key & wp.key == wp.key
                   for up, wp in zip(u.parts, w.parts))


def build_ncm(name, m, guard=100_000):
    """Enumerate NC^m: minimal factorizations c = w0 w1 ... wm.

    A tuple is produced by choosing w1 below c, then w2 below the
    complement w1^{-1} c, and so on; minimality of the total length is
    automatic.  The rank of a tuple is the length of w0.  Refuses
    (ResourceGuardError) when the closed-form cardinality exceeds
    ``guard``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    poset = enumerate_nc(name)
    expected = ncm_cardinality(label(name), m)
    if expected > guard:
        raise ResourceGuardError("|NC^m| = %d exceeds guard %d"
                                 % (expected, guard))
    n = poset.rs.n
    elements = []
    prefix = []

    def descend(rest, depth):
        if depth == m:
            rank = n - sum(p.rank for p in prefix)
            elements.append(NcmElement(tuple(prefix), rank))
            return
        for u in poset.elements.values():
            if u.key & rest.key == u.key:
                prefix.append(u)
                descend(poset.complement(u, rest), depth + 1)
                prefix.pop()

    descend(poset.top, 0)
    if len(elements) != expected:
        raise AssertionError("NC^m size %d != closed form %d"
                             % (len(elements), expected))
    return NcmPoset(nc=poset, m=m, elements=elements)


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
    header = {
        "schema_version": CACHE_SCHEMA_VERSION,
        "ambient": str(poset.rs.typ),
    }
    lines = [json.dumps(header)]
    for level in poset.levels:
        for el in level:
            record = {
                "mask": format(el.key, "x"),
                "rank": el.rank,
                "type": str(el.typ),
            }
            lines.append(json.dumps(record))
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
