"""The term-by-term polynomial routines that the grouped ones in
``exact`` and ``triangles`` replaced, kept as the reference for them.

Each term of a polynomial is built as a product of polynomials on its
own, one factor at a time, and the terms are summed: ``substitute``
multiplies a term by the cached power of each substituted value,
``substitute_rational`` by the cached powers of each numerator and
denominator, and ``zeta_identity_expansion`` multiplies the
``zeta_shifted`` polynomials of every tuple's factors as Fraction
polynomials.
"""

from noncross.decomp import all_tuples_of_rank, orderings
from noncross.exact import (VARS, ZERO, SparsePolynomial, _VAR_INDEX,
                            _coerce, binomial_poly, poly)
from noncross.ncposet import zeta_closed, zeta_shifted
from noncross.typelabel import TypeLabel, label


def substitute(p, **assignments):
    """``p.substitute(**assignments)``, one term at a time."""
    subs = {}
    for var, value in assignments.items():
        subs[_VAR_INDEX[var]] = _coerce(value)
    result = SparsePolynomial.constant(0)
    pow_cache = {}
    for exp, coeff in p.terms.items():
        term = SparsePolynomial.constant(coeff)
        for i in range(4):
            if exp[i] == 0:
                continue
            if i in subs:
                key = (i, exp[i])
                if key not in pow_cache:
                    pow_cache[key] = subs[i] ** exp[i]
                term = term * pow_cache[key]
            else:
                keep = [0, 0, 0, 0]
                keep[i] = exp[i]
                term = term * SparsePolynomial({tuple(keep): 1})
        result = result + term
    return result


def substitute_rational(p, substitutions, clearing_power):
    """``exact.substitute_rational``, one term at a time."""
    for var in substitutions:
        if clearing_power[var] < p.degree(var):
            raise ValueError("clearing power for %s below degree" % var)
    result = ZERO
    cache = {}

    def cached_pow(tag, base, k):
        key = (tag, k)
        if key not in cache:
            cache[key] = base ** k
        return cache[key]

    for exp, coeff in p.terms.items():
        term = SparsePolynomial.constant(coeff)
        for i in range(4):
            var = VARS[i]
            if var in substitutions:
                num, den = substitutions[var]
                term = term * cached_pow(("n", var), num, exp[i])
                term = term * cached_pow(("d", var), den,
                                         clearing_power[var] - exp[i])
            elif exp[i]:
                keep = [0, 0, 0, 0]
                keep[i] = exp[i]
                term = term * SparsePolynomial({tuple(keep): 1})
        result = result + term
    return result


def zeta_identity_expansion(name, table):
    """``triangles.zeta_identity_check``, one Fraction polynomial product
    per factor of every tuple."""
    ambient = label(name) if not isinstance(name, TypeLabel) else name
    n = ambient.rank
    lhs = zeta_closed(ambient, m="m")
    by_length = {}
    for s in range(1, n + 1):
        for tup in all_tuples_of_rank(s):
            count = table.lookup(tup)
            if count == 0:
                continue
            term = poly(count * orderings(tup))
            for t in tup:
                term = term * zeta_shifted(t)
            d = len(tup)
            by_length[d] = by_length.get(d, ZERO) + term
    rhs = poly(1)
    for d in sorted(by_length):
        rhs = rhs + by_length[d] * binomial_poly(d)
    return lhs - rhs
