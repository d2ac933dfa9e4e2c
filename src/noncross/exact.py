"""Exact linear solving, one way through: integer rows in by ``add_row``,
``echelon`` eliminates, ``solve`` reads the Fraction solutions out.

Every coefficient and right-hand side is read with ``operator.index``: a
float or a ``Fraction`` raises ``TypeError``, as a repeated variable name
raises ``ValueError``.  An ``Echelon`` holds the reduced row echelon form
of the rows inserted so far, each a sparse map to primitive integers, and
takes further rows at any time; a caller that orders its rows well (as
``linsys.generate_equations`` does, sparse rows by descending leading
column, then the dense ones) saves work but gets the same echelon.  Only
the entries ``solve`` reads off its rows become fractions.  An
``Echelon`` keeps its pivot rows and nothing else; integer kernels are
read off it one way (``_kernel``).
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index


def _columns(variables):
    """The column of each variable; a repeated name raises ValueError."""
    columns = {}
    for i, v in enumerate(variables):
        if columns.setdefault(v, i) != i:
            raise ValueError("repeated variable %r" % (v,))
    return columns


def _sparse(columns, coeffs):
    """The row sum(coeffs[v] * v) keyed by column (``columns[v]``), each
    coefficient read with ``operator.index``, zeros dropped."""
    row = {}
    for var, c in coeffs.items():
        c = index(c)
        if c:
            row[columns[var]] = c
    return row


class LinearSystem:
    """A linear system over the integers with distinct named variables.

    Rows enter only by ``add_row``, kept as (coefficient dict column->
    nonzero int, int rhs, provenance string); it refuses any other number.
    """

    def __init__(self, variables):
        self.variables = variables
        self._index = _columns(variables)
        self.rows = []

    def add_row(self, coeffs, rhs, provenance=""):
        self.rows.append((_sparse(self._index, coeffs), index(rhs),
                          provenance))

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

    Integer rows come in by ``add_row``; ``solve`` reads the solutions.
    An incoming row is cleared at the pivot columns in its support in one
    pass.  Each pivot row is zero at every other pivot column, so
    subtracting it touches no other pivot entry: the row is scaled once
    by the lcm L of the pivots it meets, and for each such pivot column
    col (pivot p, row entry f before the scaling) ``f * (L // p)`` times
    the pivot row is subtracted in place.  What is left lies on free
    columns and the right-hand side, and is made primitive.  If a free
    column is left, the leading one becomes a new pivot and is cleared,
    by ``a * p - f * b``, from every pivot row that holds it, found in
    one pass over the pivot rows: only rows with smaller pivots can hold
    it, and in the sparse-first order (rows by descending leading column)
    four new pivots in five on E8 are held by none.
    """

    def __init__(self, variables):
        self.variables = list(variables)
        self._index = _columns(self.variables)
        self.pivots = {}     # pivot column -> primitive sparse row

    @property
    def dimension(self):
        return len(self.variables) - len(self.pivots)

    @property
    def free_columns(self):
        return [c for c in range(len(self.variables)) if c not in self.pivots]

    def add_row(self, coeffs, rhs, provenance=""):
        """Insert the row sum(coeffs[v] * v) = rhs, keyed by variable."""
        self._insert(_sparse(self._index, coeffs), index(rhs), provenance)

    def implies(self, coeffs, rhs):
        """Whether the row sum(coeffs[v] * v) = rhs follows from the rows
        so far: it clears to 0 = 0.  The echelon is left unchanged."""
        return not self._clear(_sparse(self._index, coeffs), index(rhs))

    def _clear(self, row, rhs):
        """A row keyed by column (the right-hand side keyed
        ``len(variables)``) cleared at the pivots it meets."""
        pivots = self.pivots
        vec = dict(row)
        if rhs:
            vec[len(self.variables)] = rhs
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
        return vec

    def _insert(self, row, rhs, provenance):
        """Insert a row keyed by column; raises InconsistentSystemError
        (naming ``provenance``) and leaves the echelon unchanged when the
        row reduces to 0 = nonzero."""
        nvars = len(self.variables)
        pivots = self.pivots
        vec = self._clear(row, rhs)
        lead = min((c for c in vec if c < nvars), default=None)
        if lead is None:
            if vec:
                raise InconsistentSystemError(provenance)
            return
        vec = _primitive(vec, lead)
        for col, old in pivots.items():
            if lead in old:
                pivots[col] = _primitive(_combine(old, vec, lead), col)
        pivots[lead] = vec


def echelon(system):
    """The Echelon of a LinearSystem, its rows inserted in order."""
    ech = Echelon(system.variables)
    for row, rhs, provenance in system.rows:
        ech._insert(row, rhs, provenance)
    return ech


def solve(ech):
    """The affine solution space of an Echelon (of a LinearSystem: ``solve(
    echelon(system))``), read off its rows: each pivot row gives its pivot
    the particular value ``rhs / pivot``, and the nullspace vector of each
    free column is its ``_kernel`` vector divided by its entry there."""
    from fractions import Fraction   # only here: the walk and lookups skip it
    nvars = len(ech.variables)
    pivots = ech.pivots
    pivot_cols = sorted(pivots)
    free_cols = ech.free_columns
    particular = [Fraction(0)] * nvars
    for col in pivot_cols:
        row = pivots[col]
        particular[col] = Fraction(row.get(nvars, 0), row[col])
    nullspace = [[Fraction(x, vec[fc]) for x in vec]
                 for fc, vec in zip(free_cols, _kernel(ech))]
    return SolutionSpace(list(ech.variables), particular, nullspace,
                         pivot_cols, free_cols)


def _kernel(ech):
    """The integer kernel of an Echelon's coefficient columns, one vector
    per free column fc, in column order: the primitive integer multiple,
    positive at fc, of the reduced-echelon kernel vector (1 at fc,
    ``-row[fc] / row[pc]`` at the pivot pc of each row holding fc).  The
    rows holding each free column are found in one pass over the pivot
    rows, skipped when none is free.  The pivot rows are positive at
    their pivots, so scaling by the lcm of those pivots keeps it in
    integers."""
    n = len(ech.variables)
    pivots = ech.pivots
    holders = {fc: [] for fc in ech.free_columns}
    if holders:
        for pc, row in pivots.items():
            for c in row:
                if c in holders:
                    holders[c].append(pc)
    basis = []
    for fc, held in holders.items():
        scale = lcm(*(pivots[pc][pc] for pc in held))
        vec = [0] * n
        vec[fc] = scale
        for pc in held:
            row = pivots[pc]
            vec[pc] = -row[fc] * scale // row[pc]
        g = gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def int_kernel(rows):
    """Integer basis of the right kernel of an integer matrix (entries
    read with ``operator.index``): the ``_kernel`` of the ``Echelon`` of
    its rows, each with right-hand side 0."""
    ech = Echelon(range(len(rows[0]) if len(rows) else 0))
    for r in rows:
        ech.add_row(dict(enumerate(r)), 0)
    return _kernel(ech)
