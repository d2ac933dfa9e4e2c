"""M-triangles of m-divisible non-crossing partition posets.

The dual M-triangle of NC^m is assembled exactly from a table of
decomposition numbers together with the characteristic polynomials of
the rank-deficient sub-poset types; the primal triangle follows by a
degree flip.  The module also provides the direct (Moebius-function)
computation for small posets, the zeta-polynomial consistency check,
the transform producing F-triangle candidates, and the m -> -m
reciprocity checks.

The dual triangle is assembled in integers by ``closedform.tuple_sums``,
the one sum over decomposition tuples that also builds the zeta forms;
its binom(m, k), and the zeta check's, become powers of m in one place.

The checks multiply few whole polynomials.  A triangle is put at a
numeric m by ``polynomial``'s one evaluator: ``MTriangle.at`` is
``substitute(m=m)``, and the F=M transform expands the same integer
numerators (``numerators``) and divides each result only by their
common denominator.  The F=M transform and the right side of the
two-variable F-reciprocity are binomial expansions: on an M-triangle
(k <= l <= n) the term m_kl x^k y^l of y^n M((1+y)/(y-x), (y-x)/y) is
the polynomial m_kl (1+y)^k (y-x)^(l-k) y^(n-l) on its own, so nothing
is substituted as a rational function and no polynomial is divided.
Both reciprocity checks stay in integers over one denominator.  The
M-triangle check reads the primal's numerators with no value put in
and sums the flipped terms y^n M^(-m)(xy, 1/y) against them as one
integer map.  The coefficientwise F-reciprocity is read off the same
expansion as the two-variable one, one scatter pass over the nonzero
coefficients of F^(-m), with no sum over every (k, l, r, s).
The zeta check dots the table's entries with the integer rows of
``closedform.zeta_rows``, the rows ``linsys`` puts in its system, and
expands only the nonzero residuals in m.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, lcm

from . import polynomial
from .closedform import _convolve, tuple_sums, zeta_rows
from .polynomial import SparsePolynomial, _ratio
from .typelabel import label


def dual_to_primal(dual, n):
    """Flip x^k y^l -> x^(n-k) y^(n-l); the involution relating the two
    triangles of a rank-n poset."""
    terms = {}
    for exp, coeff in dual.terms.items():
        xdeg, ydeg, zdeg, mdeg = exp
        if xdeg > n or ydeg > n:
            raise ValueError("degree exceeds rank %d" % n)
        terms[(n - xdeg, n - ydeg, zdeg, mdeg)] = coeff
    return SparsePolynomial(terms)


class MTriangle:
    """Dual and primal M-triangles of NC^m, exact in x, y and m; equal
    when all four fields are."""

    def __init__(self, ambient, n, dual, primal):
        self.ambient = ambient
        self.n = n
        self.dual = dual
        self.primal = primal

    def __eq__(self, other):
        if type(other) is not MTriangle:
            return NotImplemented
        return vars(self) == vars(other)

    @classmethod
    def from_dual(cls, ambient, dual):
        ambient = label(ambient)
        n = ambient.rank
        if dual.substitute(x=0, y=0) != 1:
            raise ValueError("dual constant term is not 1")
        return cls(ambient=ambient, n=n, dual=dual,
                   primal=dual_to_primal(dual, n))

    def at(self, m):
        """The primal triangle at an exact number m (an int or a
        Fraction), as a polynomial in x and y: ``primal.substitute``."""
        return self.primal.substitute(m=m)


@lru_cache(maxsize=None)
def _pattern(a, b, e, n):
    """(1+y)^a (y-x)^b (1+x)^e by the binomial theorem, as a tuple of
    (offset, nonzero coefficient) pairs, the offset of x^i y^j being
    i (n+1) + j.  The cached tuples are shared."""
    stride = n + 1
    out = {}
    for i in range(a + 1):
        for j in range(b + 1):
            cij = comb(a, i) * comb(b, j) * (-1) ** j
            for h in range(e + 1):
                offset = (j + h) * stride + i + b - j
                out[offset] = out.get(offset, 0) + cij * comb(e, h)
    return tuple((offset, c) for offset, c in out.items() if c)


def _expand(terms, n):
    """The sum of c x^p y^q (1+y)^a (y-x)^b (1+x)^e over ``terms``, an
    iterable of (c, p, q, a, b, e) of degree p + b + e <= n in x and
    q + a + b <= n in y, in one scatter pass: each term adds c times
    the cached ``_pattern`` of (a, b, e) into a flat list indexed by
    x-degree (n+1) + y-degree.  Returns a map (x-degree, y-degree) ->
    nonzero coefficient, highest x-degree first, then highest y-degree."""
    stride = n + 1
    out = [0] * (stride * stride)
    for c, p, q, a, b, e in terms:
        base = p * stride + q
        for offset, v in _pattern(a, b, e, n):
            out[base + offset] += c * v
    return {divmod(i, stride): out[i]
            for i in range(len(out) - 1, -1, -1) if out[i]}


def _in_powers_of_m(terms, n, den):
    """The polynomial sum of c/den x^a y^b z^j binom(m, k) over
    ``terms``, a map (a, b, j, k) -> int with k <= n, in powers of m:
    c n!/k! times each coefficient of m (m-1) ... (m-k+1), over n! den."""
    scale, out, falling = factorial(n), {}, [[1]]
    for r in range(n):
        falling.append(_convolve(falling[-1], [-r, 1]))
    for (a, b, j, k), c in terms.items():
        c *= scale // factorial(k)
        row = out.setdefault((a, b, j), [0] * (n + 1))
        for i, f in enumerate(falling[k]):
            row[i] += c * f
    return SparsePolynomial({(a, b, j, i): _ratio(c, den * scale)
                             for (a, b, j), row in out.items()
                             for i, c in enumerate(row) if c})


def assemble_dual(name, table):
    """Assemble the dual M-triangle from a decomposition-number table:
    over the multisets T of nonempty types of rank s <= n, the sum of
    orderings(T) N(T) x^s binom(m, len T) prod chi*(T_i)(y), and 1 for
    the empty multiset.  It is ``closedform.tuple_sums`` over the
    y-vectors of chi*, weighted by ``table.lookup`` and keyed by s: chi*
    is computed once per label, and only for labels of tuples with a
    nonzero number.
    """
    from .decomp import chi_vector
    ambient = label(name)
    ranks = [(s,) for s in range(ambient.rank + 1)]    # keys, shared
    sums, den = tuple_sums(ambient.rank, chi_vector,
                           lambda tup, s: (table.lookup(tup), ranks[s]))
    terms = {(s, j, 0, k): c for (k, j), by_rank in sums.items()
             for s, c in by_rank.items()}
    terms[0, 0, 0, 0] = den
    return MTriangle.from_dual(ambient,
                               _in_powers_of_m(terms, ambient.rank, den))


def mtriangle_direct(ncm):
    """Primal M-triangle of an explicitly built NC^m poset, by full
    Moebius computation.  Returns a polynomial in x, y."""
    from .direct import mobius
    mu = mobius(ncm)
    rank_of = dict(ncm.elements)
    result = polynomial.ZERO
    for (u_key, w_key), value in mu.items():
        if value == 0:
            continue
        term = (SparsePolynomial.variable("x", rank_of[u_key])
                * SparsePolynomial.variable("y", rank_of[w_key]))
        result = result + term * value
    return result


def zeta_identity_check(name, table):
    """Difference between the closed-form zeta polynomial of NC^m and 1
    plus its decomposition-number expansion at the entries of ``table``,
    per power of m and z: the nonzero residuals of the integer rows of
    ``closedform.zeta_rows`` (right side less the form at the entries),
    over the forms' denominator, in powers of m.  Zero when the table is
    consistent."""
    rows, den = zeta_rows(name)
    entries = table.entries
    residuals = {(0, 0, j, k): rest for (k, j), form, rhs in rows
                 if (rest := rhs - sum(c * entries.get(var, 0)
                                       for var, c in form.items()))}
    return _in_powers_of_m(residuals, label(name).rank, den)


class FTriangleCandidate:
    """Candidate F-triangle obtained by transforming an M-triangle;
    equal when all three fields are.  ``coefficients`` maps (k, l), the
    x and y degrees of the F-triangle's terms, to an int, or to a
    Fraction where the transform is not integral."""

    def __init__(self, ambient, m, coefficients):
        self.ambient = ambient
        self.m = m
        self.coefficients = coefficients

    def __eq__(self, other):
        if type(other) is not FTriangleCandidate:
            return NotImplemented
        return vars(self) == vars(other)

    def problems(self):
        """Violations of the expected F-triangle shape, as messages."""
        found = []
        n = self.ambient.rank
        if self.coefficients.get((0, 0)) != 1:
            found.append("constant coefficient is not 1")
        for (k, l), value in sorted(self.coefficients.items()):
            if value.denominator != 1:
                found.append("coefficient of x^%d y^%d is not an integer: %s"
                             % (k, l, value))
            elif value < 0:
                found.append("coefficient of x^%d y^%d is negative: %s"
                             % (k, l, value))
            if k + l > n:
                found.append("support outside k+l <= n at x^%d y^%d" % (k, l))
        return found


class TransformFailure(ValueError):
    """The input is not an M-triangle, so its F=M transform is not a
    polynomial."""


def fm_transform(mt, m):
    """F(x, y) = y^n M^m((1+y)/(y-x), (y-x)/y) at a numeric m.

    Each term m_kl x^k y^l of M^m with k <= l <= n gives
    m_kl (1+y)^k (y-x)^(l-k) y^(n-l).  A degree above n raises
    ValueError.  A term with k > l raises TransformFailure: F is the
    numerator y^n (y-x)^n M^m((1+y)/(y-x), (y-x)/y) divided by (y-x)^n,
    and with t = y - x the terms with k > l add sum_e t^(n-e) P_e(y),
    e = k - l, to that numerator, where P_e = sum_l m_(l+e),l
    (1+y)^(l+e) y^(n-l) is nonzero because its terms have different
    lowest powers of y; so the division leaves a remainder.  A z degree
    raises TransformFailure too.
    """
    n = mt.n
    numerators, den = mt.primal.numerators(m=m)
    for var, index in (("x", 0), ("y", 1)):
        if any(key[index] > n for key in numerators):
            raise ValueError("clearing power for %s below degree" % var)
    if any(k > l for k, l, _, _ in numerators):
        raise TransformFailure("transform of %s at m=%s: nonzero remainder "
                               "in exact division" % (mt.ambient, m))
    if any(z for _, _, z, _ in numerators):
        raise TransformFailure("transform left z or m degrees behind")
    expanded = _expand(((c, 0, n - l, k, l - k, 0)
                        for (k, l, _, _), c in numerators.items()), n)
    coefficients = {kl: _ratio(c, den) for kl, c in expanded.items()}
    return FTriangleCandidate(ambient=mt.ambient, m=m,
                              coefficients=coefficients)


def reciprocity_check(mt):
    """Difference y^n M^(-m)(x y, 1/y) - M^m(x, y); zero for every
    triangle satisfying the m -> -m reciprocity.

    The term c x^k y^l z^j m^e of M^m gives (-1)^e c x^k y^(n+k-l) z^j
    m^e; both sides are summed as the primal's integer numerators
    (``numerators``) and divided by their common denominator once per
    term of the difference.  A term with l > n + k raises ValueError.
    """
    n = mt.n
    numerators, den = mt.primal.numerators()
    diff = {}
    for key, c in numerators.items():
        k, l, j, e = key
        if l > n + k:
            raise ValueError("triangle support violates k <= l <= n")
        flipped = (k, n + k - l, j, e)
        diff[flipped] = diff.get(flipped, 0) + (-c if e % 2 else c)
        diff[key] = diff.get(key, 0) - c
    return SparsePolynomial({key: _ratio(c, den)
                             for key, c in diff.items() if c})


def f_reciprocity_checks(mt, m):
    """The F-triangle forms of reciprocity at a numeric m.

    Checks, for the pair (F at m, F at -m): the two-variable identity
    F^m(x, y) = (1+x)^n F^(-m)(-x/(1+x), (y-x)/(1+x)); the alternating
    total-face-count identity for the top coefficient; and the full
    coefficientwise expansion of the two-variable identity.  Returns a
    list of failure messages (empty when all three hold).

    A transform has support r + s <= n, so the right side of the
    identity is the polynomial sum f_rs (-x)^r (y-x)^s (1+x)^(n-r-s),
    expanded in integers (the f_rs over their common denominator) in one
    pass over the nonzero f_rs.  Its coefficient of x^k y^l is the
    coefficientwise expectation sum_rs (-1)^(r+s+l) binom(n-r-s,
    k+l-r-s) binom(s, l) f_rs, which is compared with f_kl at every
    k + l <= n, in order of k, then l.
    """
    n = mt.n
    f_pos = fm_transform(mt, m)
    f_neg = fm_transform(mt, -m)
    failures = []

    den = lcm(*(c.denominator for c in f_neg.coefficients.values()))
    neg = {rs: c.numerator * (den // c.denominator)
           for rs, c in f_neg.coefficients.items()}
    expanded = _expand(((-c if r % 2 else c, r, 0, 0, s, n - r - s)
                        for (r, s), c in neg.items()), n)
    rhs = {kl: _ratio(c, den) for kl, c in expanded.items()}
    if f_pos.coefficients != rhs:
        failures.append("two-variable reciprocity identity fails")

    def f_total(cand, k):
        return sum(cand.coefficients.get((l, k - l), 0)
                   for l in range(k + 1))

    top = f_pos.coefficients.get((n, 0), 0)
    alternating = sum((-1) ** k * f_total(f_neg, k) for k in range(n + 1))
    if top != alternating:
        failures.append("alternating face-count identity fails: %s != %s"
                        % (top, alternating))

    for k in range(n + 1):
        for l in range(n + 1 - k):
            if f_pos.coefficients.get((k, l), 0) != rhs.get((k, l), 0):
                failures.append("coefficientwise reciprocity fails at "
                                "x^%d y^%d" % (k, l))
    return failures
