"""The dense fraction-free echelon that ``exact.Echelon`` replaced, kept
as the reference for the sparse reduced one.

Rows are dense integer lists with the right-hand side last.  Each row
is inserted by clearing every pivot it meets with ``a * p - f * b`` and
dividing by the content; the pivot rows are in echelon form but not
reduced, so ``space`` back-substitutes from the last pivot up.
"""

from fractions import Fraction
from math import gcd

from noncross.exact import InconsistentSystemError, SolutionSpace
from noncross.polynomial import _coeff


def _reduce_content(vec):
    """``vec`` divided by the gcd of its entries (itself when that is 1)."""
    g = 0
    for v in vec:
        if v:
            g = gcd(g, v)
            if g == 1:
                return vec
    if g > 1:
        vec = [v // g for v in vec]
    return vec


class DenseEchelon:
    """Integer row echelon form of a linear system, built row by row."""

    def __init__(self, variables):
        self.variables = list(variables)
        self._index = {v: i for i, v in enumerate(self.variables)}
        self.pivots = {}     # column -> primitive integer row, rhs last

    @classmethod
    def of(cls, system):
        """The echelon of a LinearSystem, its rows inserted in order."""
        ech = cls(system.variables)
        for row, rhs, provenance in system.rows:
            ech._insert(row, rhs, provenance)
        return ech

    @property
    def dimension(self):
        return len(self.variables) - len(self.pivots)

    @property
    def free_columns(self):
        return [c for c in range(len(self.variables)) if c not in self.pivots]

    def add_row(self, coeffs, rhs, provenance=""):
        self._insert({self._index[v]: _coeff(c)
                      for v, c in coeffs.items() if c},
                     _coeff(rhs), provenance)

    def _insert(self, row, rhs, provenance):
        nvars = len(self.variables)
        pivots = self.pivots
        denom = rhs.denominator
        for c in row.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        vec = [0] * (nvars + 1)
        for col, c in row.items():
            vec[col] = c.numerator * (denom // c.denominator)
        vec[nvars] = rhs.numerator * (denom // rhs.denominator)
        col = 0
        while col < nvars:
            if vec[col] and col in pivots:
                # both rows are zero left of col
                pivot = pivots[col]
                f, pv = vec[col], pivot[col]
                vec[col:] = _reduce_content([a * pv - f * b for a, b in
                                             zip(vec[col:], pivot[col:])])
            if vec[col]:
                break
            col += 1
        if col < nvars:
            pivots[col] = _reduce_content(vec)
        elif vec[nvars] != 0:
            raise InconsistentSystemError(provenance)

    def reduced(self):
        """The reduced pivot rows, back-substituted from the last pivot
        up: each primitive and positive at its pivot, as a dense list."""
        reduced = {}
        for col in sorted(self.pivots, reverse=True):
            vec = self.pivots[col]
            for col2, done in reduced.items():
                f = vec[col2]
                if f:
                    p = done[col2]
                    vec = _reduce_content([a * p - f * b
                                           for a, b in zip(vec, done)])
            if vec[col] < 0:
                vec = [-a for a in vec]
            reduced[col] = vec
        return reduced

    def space(self):
        nvars = len(self.variables)
        pivot_cols = sorted(self.pivots)
        free_cols = self.free_columns
        reduced = self.reduced()
        particular = [Fraction(0)] * nvars
        for col in pivot_cols:
            particular[col] = Fraction(reduced[col][nvars], reduced[col][col])
        nullspace = []
        for fc in free_cols:
            basis = [Fraction(0)] * nvars
            basis[fc] = Fraction(1)
            for col in pivot_cols:
                basis[col] = Fraction(-reduced[col][fc], reduced[col][col])
            nullspace.append(basis)

        return SolutionSpace(
            variables=list(self.variables),
            particular=particular,
            nullspace=nullspace,
            pivot_columns=pivot_cols,
            free_columns=free_cols,
        )
