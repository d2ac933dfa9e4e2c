"""The term-by-term polynomial routines that the grouped ones in
``polynomial`` and ``triangles`` replaced, kept as the reference for them.

Each term of a polynomial is built as a product of polynomials on its
own, one factor at a time, and the terms are summed: ``substitute``
multiplies a term by the cached power of each substituted value (a
number, or a polynomial, which ``SparsePolynomial.substitute`` refuses),
``substitute_rational`` by the cached powers of each numerator and
denominator, and ``zeta_identity_expansion`` multiplies the
``zeta_shifted`` polynomials of every tuple's factors as Fraction
polynomials.  ``zeta_shifted`` is the closed-form zeta polynomial at
z - 1 by substitution, the reference for ``closedform._shifted_zeta_vector``.

``zeta_closed_by_ring`` is ``closedform.zeta_closed`` as the package
first computed it, one ring product per degree; the references below
that read a closed form read it, so none checks
``typelabel.degree_product`` against itself.

``assemble_dual_by_products`` is the dual M-triangle as the package
first assembled it: each tuple's term a product of ``chi*``
polynomials, summed per length and multiplied by binom(m, d) as a
polynomial with Fraction coefficients.

``fm_transform_by_division`` and ``f_reciprocity_checks_by_substitution``
are the F=M transform and the F-reciprocity checks as the package first
computed them: the triangle at m by ``substitute``, the rational
substitution cleared of its denominators by ``substitute_rational``,
and for the transform a long division by (y-x)^n, ``exact_divide``;
the coefficientwise F-reciprocity sums its expectation over every
(k, l, r, s).  ``reciprocity_check_by_polynomials`` is the M-triangle
reciprocity as a difference of two Fraction polynomials.

``binomial_poly(d)`` is binom(m, d) as a polynomial in m with Fraction
coefficients, the weight of a d-tuple in the Fraction expansions.

``characteristic_polynomial_by_products`` is chi* of a reducible type
as the product of its components' chi* polynomials.

``characteristic_polynomial_by_census`` is chi* as the package first
summed it from the pair census: sum over census(S, T) of
N(S, T) mu(T) y^{rank S}, a reducible type's the product of its
components'.

``ncm_cardinality_by_zeta`` is |NC^m| as the package first computed it,
the closed-form zeta polynomial at z = 2.

``zeta_rows_by_polynomials`` is ``closedform.zeta_rows`` in powers of
m, as ``linsys`` first built it: the coefficients in m and z of the
closed-form zeta polynomial less 1, a Fraction polynomial difference,
times the forms' denominator.  ``in_powers_of_m`` maps rows in the basis
binom(m, k) z^j, as the package builds them, to those in powers m^i z^j.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from noncross.decomp import all_tuples_of_rank, orderings
from noncross import closedform, ncposet, polynomial
from noncross.closedform import zeta_forms
from noncross.ncposet import characteristic_polynomial
from noncross.polynomial import (VARS, ZERO, SparsePolynomial, Z, _VAR_INDEX,
                                 _coeff, _coerce, poly)
from noncross.triangles import FTriangleCandidate, MTriangle, TransformFailure
from noncross.typelabel import TypeLabel, degrees, label, per_type

X = SparsePolynomial.variable("x")
Y = SparsePolynomial.variable("y")
M = SparsePolynomial.variable("m")


def binomial_poly(d):
    """The polynomial binom(m, d) = m(m-1)...(m-d+1)/d! in m."""
    result = SparsePolynomial.constant(Fraction(1, factorial(d)))
    for i in range(d):
        result = result * (M - i)
    return result


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


@per_type
def zeta_closed_by_ring(t, m=1):
    """``closedform.zeta_closed``, one ring product per degree d of each
    component, h its Coxeter number."""
    if m == "m":
        closedform._guard_rank(t, closedform.MAX_SYMBOLIC_ZETA_RANK,
                               "symbolic zeta polynomial")
    else:
        closedform._guard_rank(t, closedform.MAX_ZETA_RANK, "zeta polynomial")
    m_poly = M if m == "m" else polynomial.poly(m)
    result = polynomial.ONE
    for comp in t.irreducibles():
        degs = degrees(comp)
        h = degs[-1]
        for d in degs:
            result = result * ((Z - 1) * m_poly * h + d) * Fraction(1, d)
    return result


@lru_cache(maxsize=None)
def zeta_shifted(t):
    """The closed-form zeta polynomial of NC(t) at z - 1: the factor a
    type contributes to the decomposition-number expansion of the zeta
    polynomial of NC^m."""
    return substitute(zeta_closed_by_ring(t, m=1), z=Z - 1)


def zeta_identity_expansion(name, table):
    """``triangles.zeta_identity_check``, one Fraction polynomial product
    per factor of every tuple."""
    ambient = label(name) if not isinstance(name, TypeLabel) else name
    n = ambient.rank
    lhs = zeta_closed_by_ring(ambient, m="m")
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


def _coeffs_mz(p):
    """The rational coefficients of a polynomial in m, z, as a map
    (power of m, power of z) -> coefficient."""
    coeffs = {}
    for (ex, ey, ez, em), value in p.terms.items():
        if ex or ey:
            raise ValueError("coefficient is not constant")
        coeffs[em, ez] = value
    return coeffs


def ncm_cardinality_by_zeta(t, m):
    """``ncposet.ncm_cardinality``: the closed-form zeta polynomial of
    NC^m at z = 2, a Fraction, checked integral."""
    value = zeta_closed_by_ring(label(t), m).evaluate(z=2)
    if value.denominator != 1:
        raise AssertionError("non-integral NC^m cardinality")
    return int(value)


def in_powers_of_m(rows, den, n):
    """Rows ((k, j), form, rhs) in the basis binom(m, k) z^j over ``den``,
    k <= n, as the rows ((i, j), form, rhs) in powers m^i z^j over n! den
    where either side is nonzero, in order of i, then j: each row spreads
    over the coefficients of n! ``binomial_poly(k)``, integers."""
    scale = factorial(n)
    forms, rhs = {}, {}
    for (k, j), form, value in rows:
        for (_, _, _, i), b in binomial_poly(k).terms.items():
            b = int(b * scale)
            summed = forms.setdefault((i, j), {})
            for var, c in form.items():
                summed[var] = summed.get(var, 0) + b * c
            rhs[i, j] = rhs.get((i, j), 0) + b * value
    out = []
    for key in sorted(forms.keys() | rhs.keys()):
        form = {var: c for var, c in forms.get(key, {}).items() if c}
        if form or rhs.get(key, 0):
            out.append((key, form, rhs.get(key, 0)))
    return out, den * scale


def zeta_rows_by_polynomials(t):
    """``closedform.zeta_rows`` in powers of m: the forms of ``zeta_forms``
    mapped by ``in_powers_of_m``, the right sides read off the polynomial
    closed form less 1 and multiplied by the forms' denominator."""
    ambient = label(t)
    n = ambient.rank
    binomial_forms, den = zeta_forms(n)
    rows, den = in_powers_of_m([(kj, form, 0) for kj, form
                                in binomial_forms.items()], den, n)
    forms = {ij: form for ij, form, _ in rows}
    lhs = _coeffs_mz(zeta_closed_by_ring(ambient, m="m") - poly(1))
    rows = []
    for i in range(n + 1):
        for j in range(n + 1):
            form = forms.get((i, j), {})
            rhs = _coeff(lhs.get((i, j), 0) * den)
            if form or rhs:
                rows.append(((i, j), form, rhs))
    return rows, den


def assemble_dual_by_products(name, table):
    """``triangles.assemble_dual``, one polynomial product per factor of
    every tuple with a nonzero number."""
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
                term = term * characteristic_polynomial(t)
            d = len(tup)
            by_length[d] = by_length.get(d, ZERO) + term
        x_power = X ** s
        for d in sorted(by_length):
            total = total + by_length[d] * x_power * binomial_poly(d)
    return MTriangle.from_dual(ambient, total)


def characteristic_polynomial_by_products(t):
    """``ncposet.characteristic_polynomial``, a reducible type's chi* the
    polynomial product of its components'."""
    if isinstance(t, str):
        t = label(t)
    if t.is_irreducible:
        return characteristic_polynomial(t)
    result = poly(1)
    for comp in t.irreducibles():
        result = result * characteristic_polynomial(comp)
    return result


def characteristic_polynomial_by_census(t):
    """chi* from the pair census: the interval [u, c] is NC of the type
    of u^{-1} c, so an irreducible type's chi*(y) is the sum over its
    census of N(type u, type u^{-1} c) mu(type u^{-1} c) y^{rank u};
    a reducible type's is the product of its components'."""
    if isinstance(t, str):
        t = label(t)
    if not t.is_irreducible:
        result = poly(1)
        for comp in t.irreducibles():
            result = result * characteristic_polynomial_by_census(comp)
        return result
    result = ZERO
    for (t_low, t_comp), count in ncposet.census(t).items():
        result = result + Y ** t_low.rank * (
            count * closedform._mobius_number(t_comp))
    return result


def reciprocity_check_by_polynomials(mt):
    """``triangles.reciprocity_check``: the flipped primal built as a
    polynomial, its coefficients summed as they come, minus the primal."""
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


def _quotient(a, b):
    """The exact quotient a / b of two canonical coefficients, canonical."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coeff(Fraction(a.numerator * b.denominator,
                           a.denominator * b.numerator))


def exact_divide(numerator, divisor):
    """Exact multivariate division; raises ValueError on a remainder.

    Division proceeds by cancelling the lexicographically leading term of
    the running remainder against the leading term of the divisor, which
    succeeds precisely when the divisor divides exactly.
    """
    if not divisor.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    div_lead = max(divisor.terms)
    div_coeff = divisor.terms[div_lead]
    div_terms = list(divisor.terms.items())
    remainder = dict(numerator.terms)
    quotient = {}
    while remainder:
        lead = max(remainder)
        exp = tuple(l - d for l, d in zip(lead, div_lead))
        if any(e < 0 for e in exp):
            raise ValueError("nonzero remainder in exact division")
        coeff = _quotient(remainder[lead], div_coeff)
        # the leading terms strictly decrease, so each exp comes once
        quotient[exp] = coeff
        a, b, c, d = exp
        for (p, q, r, s), dc in div_terms:
            key = (a + p, b + q, c + r, d + s)
            new = remainder.get(key, 0) - coeff * dc
            if new:
                remainder[key] = _coeff(new)
            else:
                del remainder[key]
    return SparsePolynomial(quotient)


def fm_transform_by_division(mt, m):
    """``triangles.fm_transform``: y^n M^m((1+y)/(y-x), (y-x)/y), cleared
    to y^n (y-x)^n times it and divided by (y-x)^n."""
    n = mt.n
    primal = substitute(mt.primal, m=poly(m))
    numerator = substitute_rational(
        primal,
        {"x": (poly(1) + Y, Y - X), "y": (Y - X, Y)},
        {"x": n, "y": n})
    try:
        result = exact_divide(numerator, (Y - X) ** n)
    except ValueError as err:
        raise TransformFailure("transform of %s at m=%s: %s"
                               % (mt.ambient, m, err)) from err
    coefficients = {}
    for exp, coeff in result.terms.items():
        xdeg, ydeg, zdeg, mdeg = exp
        if zdeg or mdeg:
            raise TransformFailure("transform left z or m degrees behind")
        coefficients[(xdeg, ydeg)] = coeff
    return FTriangleCandidate(ambient=mt.ambient, m=m,
                              coefficients=coefficients)


def _f_polynomial(cand):
    """The F-triangle candidate's polynomial in x and y."""
    return SparsePolynomial({(k, l, 0, 0): c
                             for (k, l), c in cand.coefficients.items()})


def f_reciprocity_checks_by_substitution(mt, m):
    """``triangles.f_reciprocity_checks``, the two-variable identity
    cleared of (1+x) by ``substitute_rational``."""
    n = mt.n
    f_pos = fm_transform_by_division(mt, m)
    f_neg = fm_transform_by_division(mt, -m)
    failures = []

    one_plus_x = poly(1) + X
    f_neg_poly, f_pos_poly = _f_polynomial(f_neg), _f_polynomial(f_pos)
    cx, cy = f_neg_poly.degree("x"), f_neg_poly.degree("y")
    numerator = substitute_rational(
        f_neg_poly,
        {"x": (-X, one_plus_x), "y": (Y - X, one_plus_x)},
        {"x": cx, "y": cy})
    lhs = f_pos_poly * one_plus_x ** max(0, cx + cy - n)
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
