"""Closed forms read off the degree table: the zeta polynomial of NC^m
(``zeta_closed``), the Moebius number of NC (``_mobius_number``) and the
one sum over decomposition tuples that expands them (``tuple_sums``).
The closed forms read ``typelabel.degree_product`` in integers.  None
walks NC, so this module loads no ``ncposet`` and no ``weyl``, and the
degree table is ``typelabel``'s, so it loads no ``rootsystem``.

One zeta identity.  ``zeta_rows`` compares the closed-form zeta
polynomial of NC^m with its decomposition-number expansion in integers,
per binom(m, k) z^j (the row space of a comparison per m^k z^j), for the
zeta rows of ``linsys`` and ``triangles.zeta_identity_check``.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from math import comb, gcd, lcm

from .polynomial import SparsePolynomial, _coeff, _ratio
from .typelabel import ResourceGuardError, degree_product, per_type

# The largest ranks whose zeta polynomial is computed (a larger type
# raises ResourceGuardError); the cost grows about as rank^2.8, for
# numeric and symbolic m alike.  At the bounds, on a 2-core host: E8^75
# 0.18 s (0.41 s at m = 1000), with m symbolic E8^12 0.04 s; past them,
# E8^300 takes 8.6 s at m = 2.
MAX_ZETA_RANK = 600
MAX_SYMBOLIC_ZETA_RANK = 100


def _guard_rank(t, bound, what):
    if t.rank > bound:
        raise ResourceGuardError("%s of %s: rank %d exceeds guard %d"
                                 % (what, t, t.rank, bound))


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


@per_type
def zeta_closed(t, m=1):
    """Closed-form zeta polynomial of NC^m of the given type, in z: the
    product over the degrees d_i of each component, h its Coxeter number,
    of ((z-1) m h + d_i)/d_i, the ``degree_product`` at (m, -m) over
    prod d_i.  ``m`` is an exact number or the symbol ``"m"``, whose
    product is the one at (1, 0) in u = m (z-1).  The cached polynomials
    are shared and not to be changed.  Raises ``TypeError`` for an inexact
    m and ``ResourceGuardError`` above rank ``MAX_ZETA_RANK``, or
    ``MAX_SYMBOLIC_ZETA_RANK`` for symbolic m.
    """
    if m == "m":
        _guard_rank(t, MAX_SYMBOLIC_ZETA_RANK, "symbolic zeta polynomial")
        vec, den = degree_product(t, 1, 0)
        return SparsePolynomial({
            (0, 0, j, k): _ratio((-1) ** (k - j) * comb(k, j) * vec[k], den)
            for j in range(t.rank, -1, -1) for k in range(t.rank, j - 1, -1)})
    _guard_rank(t, MAX_ZETA_RANK, "zeta polynomial")
    m = _coeff(m)   # an int of any integer type: no fixed-width product
    vec, den = degree_product(t, m, -m)
    return SparsePolynomial({(0, 0, j, 0): _ratio(vec[j], den)
                             for j in range(t.rank, -1, -1) if vec[j]})


def _convolve(a, b):
    """The coefficients of the product of two polynomials in one
    variable.  The inner loop steps the output index (faster than
    adding two indices per term; the sums over tuples run it most)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for y in b:
                out[i] += x * y
                i += 1
    return out


def tuple_sums(n, factor, weigh):
    """The one sum over decomposition tuples, behind ``zeta_forms`` and
    ``triangles.assemble_dual``: over the nonempty canonical tuples T of
    rank s <= n, w orderings(T) binom(m, len T) prod_{t in T} factor(t),
    with (w, keys) = ``weigh(T, s)``, added to each key.  ``factor(t)``
    is an integer vector in one variable v, lowest power first, over a
    denominator; none is asked for on account of a tuple of weight 0.
    In integers, per binom(m, k) v^j: a tuple's product is one
    convolution from its prefix's, summed per key and length k.  Returns
    (sums, den): ``sums`` maps (k, power of v) to {key: nonzero int}, the
    coefficients of binom(m, k) v^j, all over ``den``, the lcm of the
    products' denominators."""
    from .decomp import all_tuples_of_rank, orderings
    products, dens = {(): [1]}, {(): 1}   # per tuple, memoized
    weights, spread = {}, {}
    for s in range(1, n + 1):
        for tup in all_tuples_of_rank(s):
            w, keys = weigh(tup, s)
            if w:
                # a convolution per prefix not yet memoized, usually the
                # tuple alone; a loop, as a recursive closure is a cycle
                start = len(tup)
                while tup[:start - 1] not in products:
                    start -= 1
                for i in range(start, len(tup) + 1):
                    vec, den = factor(tup[i - 1])
                    products[tup[:i]] = _convolve(products[tup[:i - 1]], vec)
                    dens[tup[:i]] = dens[tup[:i - 1]] * den
                weights[tup], spread[tup] = w * orderings(tup), keys
    common = lcm(*dens.values())
    zero = [0] * (n + 1)
    by_key = defaultdict(lambda: defaultdict(zero.copy))  # key, k -> vector
    for tup, scale in weights.items():
        vec, scale = products[tup], scale * (common // dens[tup])
        for key in spread[tup]:
            acc = by_key[key][len(tup)]
            for j, c in enumerate(vec):
                acc[j] += scale * c
    sums = defaultdict(dict)
    for key, by_length in by_key.items():
        for k, acc in by_length.items():
            for j, c in enumerate(acc):
                if c:
                    sums[k, j][key] = c
    return dict(sums), common


@lru_cache(maxsize=None)
def _shifted_zeta_vector(t):
    """The closed-form zeta polynomial of NC(t) at z - 1, the factor a
    type contributes to the decomposition-number expansion of the zeta
    polynomial of NC^m, as integer z-coefficients (lowest power first)
    over a denominator, in lowest terms.

    A type is the product over its degrees d_i, h_i the Coxeter number
    of the component of d_i, of ((z-2) h_i + d_i)/d_i: the
    ``degree_product`` at (1, -2) over prod_i d_i, reduced by their gcd.
    Each gcd(h, d_i) divides d_i, so the vector of an irreducible type
    is primitive once reduced, and by Gauss's lemma so is a product of
    them: reducing the whole product once is reducing each component's."""
    vec, den = degree_product(t, 1, -2)
    common = gcd(den, *vec)
    return [c // common for c in vec], den // common


@lru_cache(maxsize=None)
def zeta_forms(n):
    """The decomposition-number expansion of the zeta polynomial of NC^m
    at rank n, the sum over tuples T of orderings(T) binom(m, len T)
    prod Z_t(z - 1), Z_t the closed-form zeta polynomial of NC(t)
    (``_shifted_zeta_vector``), in the full-rank decomposition numbers:
    a rank-deficient tuple's number is the sum over the full-rank tuples
    it extends by one factor (``one_extra_factor``), so its term adds
    to each of them.  Returns (forms, den), the ``tuple_sums``: ``forms``
    maps (k, power of z) to {full-rank tuple of k or k + 1 factors:
    nonzero int}, the coefficients of binom(m, k) z^j, all over ``den``;
    the cached maps are shared and not to be changed."""
    from .decomp import one_extra_factor
    return tuple_sums(n, _shifted_zeta_vector,
                      lambda tup, s: (1, one_extra_factor(tup, n)))


@per_type
def zeta_rows(t):
    """The closed-form zeta polynomial of NC^m of type t (a label or its
    text) less 1 against its expansion, ``zeta_forms``, per binom(m, k) z^j.

    Returns (rows, den): one ((k, j), form, rhs) per binom(m, k) z^j where
    either side is nonzero, in order of k, then j; ``form`` is the map of
    ``zeta_forms`` ({} if none) and ``rhs`` the closed form's coefficient
    times ``den``, the forms' denominator, an int (else AssertionError):
    the k-th forward difference at m = 0 of the closed form at m = 0..n,
    the ``degree_product`` at (m, -m), over prod d (at k = 0, where no
    form is, the closed form less 1 is 0).  The cached rows are shared
    and not to be changed."""
    n = t.rank
    forms, den = zeta_forms(n)
    values, dens = zip(*(degree_product(t, m, -m) for m in range(n + 1)))
    closed_den = dens[0]
    rows = []
    for k in range(1, n + 1):
        values = [[b - a for a, b in zip(u, v)]
                  for u, v in zip(values, values[1:])]
        for j, c in enumerate(values[0]):
            rhs, rest = divmod(c * den, closed_den)
            if rest:
                raise AssertionError("non-integral zeta row binom(m,%d) "
                                     "z^%d of %s" % (k, j, t))
            form = forms.get((k, j), {})
            if form or rhs:
                rows.append(((k, j), form, rhs))
    return rows, den
