"""Exact sparse multivariate polynomials and exact linear solving.

Polynomials live in Q[x, y, z, m]; terms are held sparsely as a map
from exponent 4-tuples to coefficients.  A coefficient is canonical: a
Python ``int`` when its value is integral, otherwise a
``fractions.Fraction`` in lowest terms, and never a float (a float
coefficient raises ``TypeError``).  Most coefficients met in this
package are integers, so most arithmetic stays in ``int``.  This is
deliberately small and dependency-free: every identity checked in this
package is an *exact* polynomial identity, so floating point is never
used.  Only exact numbers are put in for variables, all by one method,
``numerators``: integer numerators over one common denominator, which
``substitute`` and ``evaluate`` turn into coefficients and ``triangles``
reads directly.  Each polynomial keeps its coefficients' integer form
(numerators over their lcm) from its first ``numerators`` call on.  No
polynomial is substituted into another or divided by another, since the
F=M transform of ``triangles`` is a direct binomial expansion.

The linear solver works in integers throughout.  An ``Echelon`` holds
the reduced row echelon form of the rows inserted so far, each row a
sparse map to primitive integers (the equation systems here have a
handful of nonzeros per row), and takes further rows at any time, in
the order given: a row with Fraction entries is scaled to integers
first, and a caller that orders its rows well (as
``linsys.generate_equations`` does, sparse rows by descending leading
column, then the dense ones) saves work but gets the same echelon.  The
affine solution space (a particular solution plus a nullspace basis) is
read straight off its rows; only those final entries become fractions.
Integer kernels of small integer matrices (``int_kernel``) are read off
an ``Echelon`` too, so it is the package's one elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Integral, Rational

VARS = ("x", "y", "z", "m")
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}
_ZERO_EXP = (0, 0, 0, 0)


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


# ---------------------------------------------------------------------------
# exact linear systems


class LinearSystem:
    """A linear system over the rationals with named variables.

    Rows are (coefficient dict column->coefficient, rhs, provenance
    string), each number an int or a Fraction as in a polynomial.
    """

    def __init__(self, variables, rows=None):
        self.variables = variables
        self.rows = [] if rows is None else rows
        self._index = {v: i for i, v in enumerate(variables)}

    def add_row(self, coeffs, rhs, provenance=""):
        row = {}
        for var, c in coeffs.items():
            c = _coeff(c)
            if c:
                row[self._index[var]] = c
        self.rows.append((row, _coeff(rhs), provenance))

    @property
    def num_rows(self):
        return len(self.rows)

    @property
    def num_vars(self):
        return len(self.variables)


class SolutionSpace:
    """Affine solution space: particular + span(nullspace basis).  Two
    spaces are equal when all five fields are."""

    def __init__(self, variables, particular, nullspace, pivot_columns,
                 free_columns):
        self.variables = variables
        self.particular = particular        # Fractions, free variables 0
        self.nullspace = nullspace          # list of Fraction vectors
        self.pivot_columns = pivot_columns
        self.free_columns = free_columns

    def __eq__(self, other):
        if type(other) is not SolutionSpace:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def dimension(self):
        return len(self.nullspace)

    def as_dict(self):
        """The particular solution (free variables 0), as a map
        variable -> value."""
        return dict(zip(self.variables, self.particular))


class InconsistentSystemError(ValueError):
    """Raised when elimination reaches 0 = nonzero; carries provenance."""

    def __init__(self, provenance):
        super().__init__("inconsistent linear system (row: %s)" % provenance)
        self.provenance = provenance


def _combine(a, b, col):
    """The sparse row ``a * p - f * b`` with ``p = b[col]`` and ``f =
    a[col]`` divided by their gcd, so that column ``col`` drops out."""
    p, f = b[col], a[col]
    g = gcd(p, f)
    if g > 1:
        p //= g
        f //= g
    out = dict(a) if p == 1 else {c: v * p for c, v in a.items()}
    for c, v in b.items():
        new = out.get(c, 0) - f * v
        if new:
            out[c] = new
        else:
            del out[c]
    return out


def _primitive(row, lead):
    """A sparse row divided by its content, positive at column ``lead``."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


class Echelon:
    """Reduced row echelon form of a linear system, built row by row.

    Rows are sparse: a dict column -> nonzero int, the right-hand side
    under the key ``len(variables)``.  Each pivot row (``pivots``, keyed
    by its pivot column) is the primitive integer multiple, positive at
    its pivot, of a row of the reduced row echelon form: its pivot is its
    leading column and it is zero at every other pivot column.  That form
    of a row space is unique, so the echelon does not depend on the order
    of the rows, and adding rows to an echelon gives exactly the echelon
    of the longer system.

    An incoming row is scaled to integers and cleared at the pivot
    columns in its support in one pass.  Each pivot row is zero at every
    other pivot column, so subtracting it touches no other pivot entry:
    the row is scaled once by the lcm L of the pivots it meets, and for
    each such pivot column col (pivot p, row entry f before the scaling)
    ``f * (L // p)`` times the pivot row is subtracted in place.  What
    is left lies on free columns and the right-hand side, and is made
    primitive.  If a free column is left, the leading one becomes a new
    pivot and is cleared, by ``a * p - f * b``, from every pivot row
    that holds it, found through a free column -> pivot rows index.
    """

    def __init__(self, variables):
        self.variables = list(variables)
        self._index = {v: i for i, v in enumerate(self.variables)}
        self.pivots = {}     # pivot column -> primitive sparse row
        self._holders = {}   # free column -> pivot columns of rows on it

    @property
    def dimension(self):
        return len(self.variables) - len(self.pivots)

    @property
    def free_columns(self):
        return [c for c in range(len(self.variables)) if c not in self.pivots]

    def add_row(self, coeffs, rhs, provenance=""):
        """Insert the row sum(coeffs[v] * v) = rhs, keyed by variable."""
        self._insert({self._index[v]: _coeff(c)
                      for v, c in coeffs.items() if c},
                     _coeff(rhs), provenance)

    def _insert(self, row, rhs, provenance):
        """Insert a row keyed by column; raises InconsistentSystemError
        (naming ``provenance``) and leaves the echelon unchanged when the
        row reduces to 0 = nonzero."""
        nvars = len(self.variables)
        pivots = self.pivots
        denom = rhs.denominator
        for c in row.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        vec = {col: c.numerator * (denom // c.denominator)
               for col, c in row.items()}
        if rhs:
            vec[nvars] = rhs.numerator * (denom // rhs.denominator)
        met = [(col, f, pivots[col]) for col, f in vec.items()
               if col in pivots]
        if met:
            scale = lcm(*(prow[col] for col, _, prow in met))
            if scale != 1:
                vec = {c: v * scale for c, v in vec.items()}
            for col, f, prow in met:
                f *= scale // prow[col]
                for c, v in prow.items():
                    new = vec.get(c, 0) - f * v
                    if new:
                        vec[c] = new
                    else:
                        del vec[c]
        lead = min((c for c in vec if c < nvars), default=None)
        if lead is None:
            if vec:
                raise InconsistentSystemError(provenance)
            return
        vec = _primitive(vec, lead)
        holders = self._holders
        for col in holders.pop(lead, ()):
            old = pivots[col]
            new = pivots[col] = _primitive(_combine(old, vec, lead), col)
            for c in old.keys() - new.keys():
                if c != lead and c != nvars:
                    holders[c].discard(col)
            for c in new.keys() - old.keys():
                if c != nvars:
                    holders.setdefault(c, set()).add(col)
        pivots[lead] = vec
        for c in vec:
            if c != lead and c != nvars:
                holders.setdefault(c, set()).add(lead)

    def space(self):
        """The affine solution space, read off the reduced rows: each
        pivot row gives its pivot's particular value ``rhs / pivot`` and
        its entry ``-row[fc] / pivot`` in the nullspace vector of each
        free column fc."""
        nvars = len(self.variables)
        pivots = self.pivots
        pivot_cols = sorted(pivots)
        free_cols = self.free_columns
        particular = [Fraction(0)] * nvars
        for col in pivot_cols:
            row = pivots[col]
            particular[col] = Fraction(row.get(nvars, 0), row[col])
        nullspace = []
        for fc in free_cols:
            basis = [Fraction(0)] * nvars
            basis[fc] = Fraction(1)
            for col in self._holders.get(fc, ()):
                row = pivots[col]
                basis[col] = Fraction(-row[fc], row[col])
            nullspace.append(basis)

        return SolutionSpace(
            variables=list(self.variables),
            particular=particular,
            nullspace=nullspace,
            pivot_columns=pivot_cols,
            free_columns=free_cols,
        )


def echelon(system):
    """The Echelon of a LinearSystem, its rows inserted in order."""
    ech = Echelon(system.variables)
    for row, rhs, provenance in system.rows:
        ech._insert(row, rhs, provenance)
    return ech


def solve(system):
    """The affine solution space of a LinearSystem.  Given an Echelon
    instead (say one extended by pin rows), only reading the space off
    its rows is left to do."""
    if not isinstance(system, Echelon):
        system = echelon(system)
    return system.space()


def int_kernel(rows):
    """Integer basis of the right kernel of an integer matrix.

    One vector per free column fc, in column order: the primitive integer
    multiple, positive at fc, of the reduced-echelon kernel vector (1 at
    fc, ``-row[fc] / row[pc]`` at the pivot pc of each row holding fc).
    The pivot rows of an ``Echelon`` are positive at their pivots, so
    scaling by the lcm of those pivots keeps it in integers.
    """
    n = len(rows[0]) if rows else 0
    ech = Echelon(range(n))
    for r in rows:
        ech._insert({c: int(x) for c, x in enumerate(r) if x}, 0, "")
    pivots = ech.pivots
    basis = []
    for fc in ech.free_columns:
        held = ech._holders.get(fc, ())
        scale = lcm(*(pivots[pc][pc] for pc in held))
        vec = [0] * n
        vec[fc] = scale
        for pc in held:
            row = pivots[pc]
            vec[pc] = -row[fc] * scale // row[pc]
        g = gcd(*vec)
        basis.append([x // g for x in vec])
    return basis
