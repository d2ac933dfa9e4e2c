"""Exact sparse polynomials in Q[x, y, z, m], terms held as a map from
exponent 4-tuples to coefficients, each canonical (``_coeff``): an
``int`` when integral, else a ``Fraction``, never a float.  Every
identity checked in this package is an exact polynomial identity.  Only
exact numbers are put in for variables, all by one method,
``numerators``: integer numerators over one common denominator, which
``substitute`` and ``evaluate`` turn into coefficients and ``triangles``
reads directly; each polynomial keeps that integer form once computed.
The package builds polynomials from term maps only and does no
arithmetic on them; the ring operators serve the checks outside it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Integral, Rational


def _coeff(value):
    """The canonical form of an exact number: an ``int`` when it is
    integral (numpy integers included), otherwise a ``Fraction`` in
    lowest terms.  Floats are refused with ``TypeError``."""
    kind = type(value)
    if kind is int:
        return value
    if kind is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, Rational):
        return _coeff(Fraction(value.numerator, value.denominator))
    raise TypeError("exact coefficient expected, got %s %r"
                    % (kind.__name__, value))


VARS = ("x", "y", "z", "m")
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}
_ZERO_EXP = (0, 0, 0, 0)


class SparsePolynomial:
    """Sparse exact polynomial in the variables x, y, z, m.  Its terms
    are not changed after it is built, so ``numerators`` keeps their
    integer form once computed."""

    __slots__ = ("terms", "_integers")

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = _coeff(coeff)
                if coeff:
                    cleaned[tuple(exp)] = coeff
        self.terms = cleaned

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value):
        value = _coeff(value)
        return cls({_ZERO_EXP: value} if value else {})

    @classmethod
    def variable(cls, name, power=1):
        exp = [0, 0, 0, 0]
        exp[_VAR_INDEX[name]] = power
        return cls({tuple(exp): 1})

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        result = dict(self.terms)
        for exp, coeff in other.terms.items():
            new = result.get(exp, 0) + coeff
            if new:
                result[exp] = new if type(new) is int else _coeff(new)
            else:
                del result[exp]
        out = SparsePolynomial.__new__(SparsePolynomial)
        out.terms = result
        return out

    __radd__ = __add__

    def __neg__(self):
        out = SparsePolynomial.__new__(SparsePolynomial)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        result = {}
        _add_product(result, self.terms, _coerce(other).terms)
        return _canonical(result)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = SparsePolynomial.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        return self.terms == _coerce(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- queries ----------------------------------------------------------

    def degree(self, var):
        idx = _VAR_INDEX[var]
        return max((e[idx] for e in self.terms), default=0)

    def numerators(self, **values):
        """The polynomial with numbers put in for the named variables, as
        integer numerators over one common denominator.

        Returns ``(numerators, den)``: ``numerators`` maps each exponent
        tuple, the substituted exponents set to 0, to a nonzero int, and
        the polynomial at the values is the sum of ``numerators[e] / den``
        times the monomial of e.  Every coefficient is put over the lcm of
        the coefficient denominators, and a value num/d of a variable of
        top degree D scales a term of exponent e in it by
        num^e * d^(D-e), so ``den`` is that lcm times the product of the
        d^D.  A value that is not an exact number (a float, a polynomial)
        raises ``TypeError``.
        """
        common, items, tops = self._integer_form()
        den = common
        scales = [None] * 4      # per variable: the scale of each exponent
        for var, value in values.items():
            i = _VAR_INDEX[var]
            value = _coeff(value)
            top = tops[i]
            num, d = value.numerator, value.denominator
            powers = [d ** top]
            for _ in range(top):
                powers.append(powers[-1] // d * num)
            scales[i] = powers
            den *= powers[0]
        sx, sy, sz, sm = scales
        out = {}
        for (a, b, c, e), n in items:
            if sx is not None:
                n *= sx[a]
                a = 0
            if sy is not None:
                n *= sy[b]
                b = 0
            if sz is not None:
                n *= sz[c]
                c = 0
            if sm is not None:
                n *= sm[e]
                e = 0
            key = (a, b, c, e)
            out[key] = out.get(key, 0) + n
        return {key: n for key, n in out.items() if n}, den

    def _integer_form(self):
        """(common, items, tops): the lcm of the coefficient denominators,
        the (exponent, numerator over it) pairs and the top degree of each
        variable.  Computed on the first call and kept, since the terms of
        a polynomial are not changed after it is built."""
        try:
            return self._integers
        except AttributeError:
            terms = self.terms
            common = lcm(*(c.denominator for c in terms.values()))
            self._integers = (
                common,
                [(exp, c.numerator * (common // c.denominator))
                 for exp, c in terms.items()],
                tuple(max((exp[i] for exp in terms), default=0)
                      for i in range(4)))
            return self._integers

    def substitute(self, **values):
        """The polynomial with exact numbers put in for the named
        variables, read off ``numerators``."""
        numerators, den = self.numerators(**values)
        out = SparsePolynomial.__new__(SparsePolynomial)
        out.terms = {exp: _ratio(c, den) for exp, c in numerators.items()}
        return out

    def evaluate(self, **values):
        """The value, as a Fraction, at exact numbers for every variable
        of the polynomial; an unassigned one raises ``ValueError``, naming
        the first in x, y, z, m order."""
        numerators, den = self.numerators(**values)
        for var in VARS:
            if var not in values and self.degree(var):
                raise ValueError("unassigned variable %s" % var)
        return Fraction(numerators.get(_ZERO_EXP, 0), den)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            coeff = self.terms[exp]
            monos = ["%s^%d" % (VARS[i], exp[i]) if exp[i] > 1 else VARS[i]
                     for i in range(4) if exp[i]]
            body = "*".join(monos)
            if not body:
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = body
            else:
                text = "%s*%s" % (abs(coeff), body)
            parts.append(("- " if coeff < 0 else "+ ") + text)
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]

    def __repr__(self):
        return "<SparsePolynomial %s>" % self


def _coerce(value):
    if isinstance(value, SparsePolynomial):
        return value
    return SparsePolynomial.constant(value)


def _add_product(acc, left, right):
    """Add the product of two term maps into the term map ``acc``; its
    sums are left as they fall, for ``_canonical`` to clean up."""
    right = list(right.items())
    for (a, b, c, d), c1 in left.items():
        for (p, q, r, s), c2 in right:
            exp = (a + p, b + q, c + r, d + s)
            if exp in acc:
                acc[exp] += c1 * c2
            else:
                acc[exp] = c1 * c2


def _canonical(terms):
    """The polynomial of a term map whose coefficients are exact sums:
    zeros dropped and integral Fractions made ints."""
    out = SparsePolynomial.__new__(SparsePolynomial)
    out.terms = {e: v if type(v) is int else _coeff(v)
                 for e, v in terms.items() if v}
    return out


def _ratio(num, den):
    """num / den for ints, an int when it divides exactly."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


ZERO = SparsePolynomial.constant(0)
ONE = SparsePolynomial.constant(1)
X = SparsePolynomial.variable("x")
Y = SparsePolynomial.variable("y")
Z = SparsePolynomial.variable("z")
M = SparsePolynomial.variable("m")


def poly(value):
    """Coerce a number to a SparsePolynomial."""
    return _coerce(value)
