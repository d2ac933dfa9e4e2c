"""M-triangles of m-divisible non-crossing partition posets.

The dual M-triangle of NC^m is assembled exactly from a table of
decomposition numbers together with the characteristic polynomials of
the rank-deficient sub-poset types; the primal triangle follows by a
degree flip.  The module also provides the direct (Moebius-function)
computation for small posets, the zeta-polynomial consistency check,
the transform producing F-triangle candidates, and the m -> -m
reciprocity checks.

The checks multiply few whole polynomials.  ``MTriangle.at`` only
scales each group of terms by a power of the numeric m.  The F=M
transform and the F-reciprocity substitute through
``exact.substitute_rational``, which groups terms so that each group
takes one product per substituted variable but the last.  The zeta
check dots the table's entries with ``ncposet.zeta_forms``, the forms
the zeta rows of ``linsys`` are read from.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import exact
from .exact import (X, Y, SparsePolynomial, binomial_poly, exact_divide,
                    poly, substitute_rational)
from .decomp import all_tuples_of_rank, orderings
from .ncposet import (characteristic_polynomial, mobius, zeta_closed,
                      zeta_forms)
from .typelabel import TypeLabel, label


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
        ambient = ambient if isinstance(ambient, TypeLabel) else label(ambient)
        n = ambient.rank
        if dual.coefficient(x=0, y=0) != poly(1):
            raise ValueError("dual constant term is not 1")
        return cls(ambient=ambient, n=n, dual=dual,
                   primal=dual_to_primal(dual, n))

    def at(self, m):
        """The primal triangle at a numeric m, as a polynomial in x, y."""
        return self.primal.substitute(m=poly(m))


@lru_cache(maxsize=None)
def _chi_star(t):
    return characteristic_polynomial(t)


def assemble_dual(name, table):
    """Assemble the dual M-triangle from a decomposition-number table.

    Sums, over all multisets of nonempty types with rank sum at most n,
    the number of orderings times the decomposition number times
    x^(rank sum) * prod chi*(T_i)(y) * binom(m, d); the empty multiset
    contributes the constant 1.  Terms are summed per (s, d) before
    the common factor x^s * binom(m, d) is multiplied in.
    """
    ambient = label(name) if not isinstance(name, TypeLabel) else name
    n = ambient.rank
    total = poly(1)
    for s in range(1, n + 1):
        by_length = {}
        for tup in all_tuples_of_rank(s):
            count = table.lookup(tup)
            if count == 0:
                continue
            term = poly(count * orderings(tup))
            for t in tup:
                term = term * _chi_star(t)
            d = len(tup)
            by_length[d] = by_length.get(d, exact.ZERO) + term
        x_power = X ** s
        for d in sorted(by_length):
            total = total + by_length[d] * x_power * binomial_poly(d)
    return MTriangle.from_dual(ambient, total)


def mtriangle_direct(ncm):
    """Primal M-triangle of an explicitly built NC^m poset, by full
    Moebius computation.  Returns a polynomial in x, y."""
    mu = mobius(ncm)
    rank_of = {el.key: el.rank for el in ncm.elements}
    result = exact.ZERO
    for (u_key, w_key), value in mu.items():
        if value == 0:
            continue
        term = (SparsePolynomial.variable("x", rank_of[u_key])
                * SparsePolynomial.variable("y", rank_of[w_key]))
        result = result + term * value
    return result


def zeta_identity_check(name, table):
    """Difference between the closed-form zeta polynomial of NC^m and 1
    plus its decomposition-number expansion, ``ncposet.zeta_forms``, at
    the entries of ``table``; zero in z and m when the table is
    consistent."""
    ambient = label(name) if not isinstance(name, TypeLabel) else name
    forms, den = zeta_forms(ambient.rank)
    entries = table.entries
    expansion = SparsePolynomial({
        (0, 0, j, i): Fraction(sum(c * entries.get(var, 0)
                                   for var, c in form.items()), den)
        for (i, j), form in forms.items()})
    return zeta_closed(ambient, m="m") - 1 - expansion


class FTriangleCandidate:
    """Candidate F-triangle obtained by transforming an M-triangle;
    equal when all four fields are.  ``coefficients`` maps (k, l) to an
    int, or to a Fraction where the transform is not integral."""

    def __init__(self, ambient, m, poly, coefficients):
        self.ambient = ambient
        self.m = m
        self.poly = poly
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
    """The rational substitution did not divide exactly."""


def fm_transform(mt, m):
    """F(x, y) = y^n M^m((1+y)/(y-x), (y-x)/y) at a numeric m.

    An inexact division means the input cannot be an M-triangle of the
    expected shape and raises TransformFailure.
    """
    n = mt.n
    primal = mt.at(m)
    numerator = substitute_rational(
        primal,
        {"x": (poly(1) + Y, Y - X), "y": (Y - X, Y)},
        {"x": n, "y": n})
    # true value = numerator / ((y-x)^n y^n); multiplying by y^n leaves
    # a single exact division by (y-x)^n
    try:
        result = exact_divide(numerator, (Y - X) ** n)
    except ValueError as err:
        raise TransformFailure("transform of %s at m=%d: %s"
                               % (mt.ambient, m, err)) from err
    coefficients = {}
    for exp, coeff in result.terms.items():
        xdeg, ydeg, zdeg, mdeg = exp
        if zdeg or mdeg:
            raise TransformFailure("transform left z or m degrees behind")
        coefficients[(xdeg, ydeg)] = coeff
    return FTriangleCandidate(ambient=mt.ambient, m=m, poly=result,
                              coefficients=coefficients)


def reciprocity_check(mt):
    """Difference y^n M^(-m)(x y, 1/y) - M^m(x, y); zero for every
    triangle satisfying the m -> -m reciprocity."""
    n = mt.n
    transformed = {}
    for exp, coeff in mt.primal.terms.items():
        xdeg, ydeg, zdeg, mdeg = exp
        new_ydeg = n + xdeg - ydeg
        if new_ydeg < 0:
            raise ValueError("triangle support violates k <= l <= n")
        sign = -1 if mdeg % 2 else 1
        key = (xdeg, new_ydeg, zdeg, mdeg)
        transformed[key] = transformed.get(key, 0) + sign * coeff
    return SparsePolynomial(transformed) - mt.primal


def f_reciprocity_checks(mt, m):
    """The F-triangle forms of reciprocity at a numeric m >= 1.

    Checks, for the pair (F at m, F at -m): the two-variable identity
    relating them through x -> -x/(1+x), y -> (y-x)/(1+x); the alternating
    total-face-count identity for the top coefficient; and the full
    coefficientwise expansion of the two-variable identity.  Returns a
    list of failure messages (empty when all three hold).
    """
    n = mt.n
    f_pos = fm_transform(mt, m)
    f_neg = fm_transform(mt, -m)
    failures = []

    one_plus_x = poly(1) + X
    cx, cy = f_neg.poly.degree("x"), f_neg.poly.degree("y")
    numerator = substitute_rational(
        f_neg.poly,
        {"x": (-X, one_plus_x), "y": (Y - X, one_plus_x)},
        {"x": cx, "y": cy})
    # identity: F^m = (1+x)^n F^(-m)(...); compare after clearing
    lhs = f_pos.poly * one_plus_x ** max(0, cx + cy - n)
    rhs = numerator * one_plus_x ** max(0, n - cx - cy)
    if lhs != rhs:
        failures.append("two-variable reciprocity identity fails")

    def f_total(cand, k):
        return sum(cand.coefficients.get((l, k - l), 0)
                   for l in range(k + 1))

    top = f_pos.coefficients.get((n, 0), 0)
    alternating = sum((-1) ** k * f_total(f_neg, k) for k in range(n + 1))
    if top != alternating:
        failures.append("alternating face-count identity fails: %s != %s"
                        % (top, alternating))

    from math import comb
    for k in range(n + 1):
        for l in range(n + 1 - k):
            expected = 0
            for r in range(n + 1):
                for s in range(n + 1 - r):
                    if k + l - r - s < 0 or n - r - s < 0:
                        continue
                    expected += ((-1) ** (r + s + l)
                                 * comb(n - r - s, k + l - r - s)
                                 * comb(s, l)
                                 * f_neg.coefficients.get((r, s), 0))
            if f_pos.coefficients.get((k, l), 0) != expected:
                failures.append("coefficientwise reciprocity fails at "
                                "x^%d y^%d" % (k, l))
    return failures
