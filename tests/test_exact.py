"""Exact polynomial arithmetic (``polynomial``) and fraction-free linear
algebra (``exact``)."""

from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import poly_oracle
from dense_echelon import DenseEchelon
from noncross import polynomial
from noncross.exact import (Echelon, InconsistentSystemError, LinearSystem,
                            echelon, int_kernel, solve)
from noncross.polynomial import SparsePolynomial, poly
from noncross.linsys import generate_equations

X = SparsePolynomial.variable("x")
Y = SparsePolynomial.variable("y")
M = SparsePolynomial.variable("m")
Z = SparsePolynomial.variable("z")


def test_ring_axioms_small():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (X + 1) ** 3 == X ** 3 + 3 * X ** 2 + 3 * X + 1
    assert p - p == polynomial.ZERO
    assert poly(1) == polynomial.ONE


def test_coefficient_and_degree():
    p = 3 * X ** 2 * Y - 5 * X + 7
    assert p.degree("x") == 2
    assert p.degree("y") == 1
    assert p.substitute(y=1) == 3 * X ** 2 - 5 * X + 7
    assert p.substitute(x=0, y=0).evaluate() == 7


def test_evaluate_exact_fractions():
    p = X ** 2 * Fraction(1, 2) + Fraction(1, 3)
    assert p.evaluate(x=Fraction(1, 2)) == Fraction(1, 8) + Fraction(1, 3)


# the long division and the rational substitution are the oracle of the
# F=M transform, and binom(m, d) weighs the Fraction expansions
# (tests/poly_oracle.py); these tests keep the oracle honest


def test_binomial_poly():
    b3 = poly_oracle.binomial_poly(3)
    # binom(m,3) at integer points
    for m in range(-2, 8):
        expected = comb(m, 3) if m >= 0 else Fraction((m)*(m-1)*(m-2), 6)
        assert b3.evaluate(m=m) == expected
    assert poly_oracle.binomial_poly(0) == polynomial.ONE


def test_exact_divide_roundtrip():
    num = (X - Y) ** 3 * (1 + X * Y)
    quotient = poly_oracle.exact_divide(num, (X - Y) ** 3)
    assert quotient == 1 + X * Y


def test_exact_divide_rejects_nondivisor():
    with pytest.raises(ValueError):
        poly_oracle.exact_divide(X ** 2 + 1, X - 1)


def test_substitute_rational_clearing():
    # x -> (1+y)/(y-x) with clearing power 2 in a degree-2 polynomial
    p = X ** 2
    cleared = poly_oracle.substitute_rational(p, {"x": (1 + Y, Y - X)},
                                              {"x": 2})
    assert cleared == (1 + Y) ** 2


# ---------------------------------------------------------------------------
# canonical coefficients: int when integral, else Fraction, never float


def _assert_canonical(p):
    for coeff in p.terms.values():
        assert coeff != 0
        if type(coeff) is Fraction:
            assert coeff.denominator != 1, coeff
        else:
            assert type(coeff) is int, (type(coeff), coeff)


_EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(0),
                       st.integers(0, 2))
_COEFFS = st.one_of(st.integers(-6, 6),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


def polynomials(min_terms=0):
    """Small polynomials in x, y and m with integer or rational
    coefficients (integral Fractions included)."""
    return st.dictionaries(_EXPONENTS, _COEFFS, min_size=min_terms,
                           max_size=5).map(SparsePolynomial)


def nonzero_polynomials():
    return polynomials(min_terms=1).filter(bool)


@settings(max_examples=300, deadline=None)
@given(polynomials(), nonzero_polynomials())
@example(X ** 2 + 3 * X * Y - 1, 2 * X + 3)
@example(Fraction(1, 2) * X + Y, 2 * X + 3)
def test_exact_divide_inverts_multiplication(p, q):
    product = p * q
    quotient = poly_oracle.exact_divide(product, q)
    assert quotient == p
    for result in (p, q, product, quotient):
        _assert_canonical(result)


@settings(max_examples=300, deadline=None)
@given(polynomials(), polynomials(), nonzero_polynomials(),
       st.integers(0, 3))
def test_results_have_canonical_coefficients(p, q, r, k):
    results = [p + q, p - q, p * q, q ** k, -p,
               p.substitute(m=Fraction(1, 3)),
               poly_oracle.exact_divide(p * r, r)]
    for result in results:
        _assert_canonical(result)
    assert type(p.evaluate(x=1, y=2, m=3)) is Fraction


_EXPONENTS_XYZM = st.tuples(st.integers(0, 3), st.integers(0, 2),
                           st.integers(0, 2), st.integers(0, 2))


def polynomials_xyzm(min_terms=0, max_terms=5):
    """Small polynomials in x, y, z and m, integer or rational
    coefficients."""
    return st.dictionaries(_EXPONENTS_XYZM, _COEFFS, min_size=min_terms,
                           max_size=max_terms).map(SparsePolynomial)


_SUBSTITUTED = st.lists(st.sampled_from(polynomial.VARS), min_size=1,
                        max_size=3, unique=True)


@settings(max_examples=200, deadline=None)
@given(polynomials_xyzm(), _SUBSTITUTED, st.data())
def test_substitute_matches_term_by_term_oracle(p, names, data):
    # the values are ints and Fractions, integral ones included; the
    # second substitution reads the integer form the first one kept
    for _ in range(2):
        values = {v: data.draw(_COEFFS, label=v) for v in names}
        got = p.substitute(**values)
        assert got.terms == poly_oracle.substitute(p, **values).terms
        _assert_canonical(got)


def test_substitution_examples_match_the_oracle():
    p = X ** 3 * Y ** 2 * M - 2 * X * Y * Z + Fraction(1, 3)
    for values in ({"m": Fraction(-2, 3)}, {"x": -1, "y": Fraction(5, 2)},
                   {"x": 0, "z": 3, "m": 4}):
        assert p.substitute(**values) == poly_oracle.substitute(p, **values)


def test_substitute_refuses_a_polynomial():
    with pytest.raises(TypeError, match=r"^exact coefficient expected, "
                                        r"got SparsePolynomial "):
        (X ** 2 + M * X).substitute(x=Y + 1)


def test_evaluate_names_the_first_unassigned_variable():
    with pytest.raises(ValueError, match=r"^unassigned variable y$"):
        (X + Y).evaluate(x=1)
    with pytest.raises(ValueError, match=r"^unassigned variable x$"):
        (X * M + Z).evaluate(z=1)


def test_substitute_rational_refuses_clearing_power_below_degree():
    with pytest.raises(ValueError, match="clearing power for y"):
        poly_oracle.substitute_rational(X * Y ** 2,
                                        {"x": (Y, X), "y": (X, Y)},
                                        {"x": 1, "y": 1})


def test_integral_fractions_become_ints():
    p = SparsePolynomial({(1, 0, 0, 0): Fraction(4, 2), (0, 0, 0, 0): 3})
    assert p.terms == {(1, 0, 0, 0): 2, (0, 0, 0, 0): 3}
    assert all(type(c) is int for c in p.terms.values())
    half = Fraction(1, 2) * X
    assert type((half + half).terms[(1, 0, 0, 0)]) is int
    assert type((half * 2).terms[(1, 0, 0, 0)]) is int


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        SparsePolynomial({(1, 0, 0, 0): 0.5})
    with pytest.raises(TypeError):
        poly(1.0)
    with pytest.raises(TypeError):
        X * 2.0
    with pytest.raises(TypeError):
        X.evaluate(x=0.5)
    with pytest.raises(TypeError, match=r"^exact coefficient expected, "
                                        r"got float 0\.5$"):
        (X + M).substitute(m=0.5)


def test_numpy_integers_do_not_overflow():
    big = np.int64(2 ** 62 - 1)
    p = SparsePolynomial({(1, 0, 0, 0): big}) * poly(np.int64(2 ** 62))
    assert p.terms == {(1, 0, 0, 0): (2 ** 62 - 1) * 2 ** 62}
    assert type(p.terms[(1, 0, 0, 0)]) is int
    assert (poly(big) ** 2).terms[(0, 0, 0, 0)] == (2 ** 62 - 1) ** 2
    got = (3 * X ** 2 * M - Fraction(1, 2) * X).substitute(x=big)
    assert got.terms == {(0, 0, 0, 1): 3 * (2 ** 62 - 1) ** 2,
                         (0, 0, 0, 0): Fraction(-(2 ** 62 - 1), 2)}
    assert type(got.terms[(0, 0, 0, 1)]) is int


def test_linear_solve_unique():
    system = LinearSystem(variables=("a", "b"))
    system.add_row({"a": 2, "b": 1}, 5, "r1")
    system.add_row({"a": 1, "b": -1}, 1, "r2")
    space = solve(echelon(system))
    assert space.dimension == 0
    assert space.as_dict() == {"a": 2, "b": 1}


def test_linear_solve_underdetermined():
    system = LinearSystem(variables=("a", "b", "c"))
    system.add_row({"a": 1, "b": 1}, 3, "r1")
    space = solve(echelon(system))
    assert space.dimension == 2
    values = space.as_dict()
    assert values["a"] + values["b"] == 3


def test_linear_solve_inconsistent():
    system = LinearSystem(variables=("a",))
    system.add_row({"a": 1}, 1, "r1")
    system.add_row({"a": 1}, 2, "bad-row")
    with pytest.raises(InconsistentSystemError) as exc:
        solve(echelon(system))
    assert exc.value.provenance == "bad-row"


def test_echelon_pin_row_inconsistent_names_row():
    # the pin path: a contradictory row added to an existing echelon
    system = LinearSystem(variables=("a", "b", "c"))
    system.add_row({"a": 1, "b": 1}, 3, "r1")
    system.add_row({"b": 1, "c": -1}, 1, "r2")
    ech = echelon(system)
    ech.add_row({"c": 1}, 0, "pin-c")
    pivots = {col: dict(row) for col, row in ech.pivots.items()}
    with pytest.raises(InconsistentSystemError) as exc:
        ech.add_row({"a": 1, "c": 2}, 5, "contradictory-pin")
    assert exc.value.provenance == "contradictory-pin"
    assert ech.pivots == pivots           # the failed row left no trace
    assert solve(ech).as_dict() == {"a": 2, "b": 1, "c": 0}


def _cleared(coeffs, rhs):
    """A rational row and its right side times the lcm of their
    denominators: the integer row that the solver takes, with the same
    solutions."""
    den = lcm(*(Fraction(x).denominator for x in (*coeffs.values(), rhs)))
    return {v: int(x * den) for v, x in coeffs.items()}, int(rhs * den)


def test_echelon_extended_equals_echelon_of_longer_system():
    system = LinearSystem(variables=("a", "b", "c", "d"))
    system.add_row(*_cleared({"a": 2, "b": Fraction(1, 3), "d": 1}, 4), "r1")
    system.add_row(*_cleared({"b": 3, "c": -2}, Fraction(1, 2)), "r2")
    assert system.rows == [({0: 6, 1: 1, 3: 3}, 12, "r1"),
                           ({1: 6, 2: -4}, 1, "r2")]
    longer = LinearSystem(variables=system.variables)
    longer.add_row(*_cleared({"a": 2, "b": Fraction(1, 3), "d": 1}, 4), "r1")
    longer.add_row(*_cleared({"b": 3, "c": -2}, Fraction(1, 2)), "r2")
    longer.add_row({"c": 5, "d": 1}, 7, "p1")
    longer.add_row({"a": 1, "c": 1}, -1, "p2")
    ech = echelon(system)
    assert ech.dimension == 2 and ech.free_columns == [2, 3]
    ech.add_row({"c": 5, "d": 1}, 7, "p1")
    ech.add_row({"a": 1, "c": 1}, -1, "p2")
    assert longer.rows[:2] == system.rows
    assert ech.pivots == echelon(longer).pivots
    assert solve(ech) == solve(echelon(longer))


def test_rows_of_non_integers_are_refused():
    # every coefficient and right side is read with operator.index, zeros
    # included: ints and numpy ints pass, a float or a Fraction (integral
    # ones too) raises TypeError at all three row entry points and leaves
    # the system and the echelon as they were
    rows = [({"a": 2, "b": 4, "c": -6}, 8), ({"b": 3, "c": 1}, 0),
            ({"a": 1, "c": 5}, -3)]
    system = LinearSystem(variables=("a", "b", "c", "d"))
    for coeffs, rhs in rows:
        system.add_row(coeffs, rhs)
    kept = [dict(row) for row, _, _ in system.rows]
    ech = echelon(system)
    assert [row for row, _, _ in system.rows] == kept
    system_rows = list(system.rows)
    pivots = {col: dict(row) for col, row in ech.pivots.items()}
    for bad in (0.5, 2.0, 0.0, Fraction(1, 2), Fraction(4, 2), Fraction(0)):
        for coeffs, rhs in (({"a": 1, "d": bad}, 1), ({"a": 1, "d": 1}, bad),
                            ({"d": bad}, 0)):
            with pytest.raises(TypeError):
                system.add_row(coeffs, rhs, "refused")
            with pytest.raises(TypeError):
                ech.add_row(coeffs, rhs, "refused")
            with pytest.raises(TypeError):
                ech.implies(coeffs, rhs)
    assert system.rows == system_rows
    assert ech.pivots == pivots
    assert ech.implies({"a": np.int64(3), "b": np.int32(7)}, np.int64(5))
    system.add_row({"d": np.int64(2), "a": np.int8(0)}, np.int16(4), "numpy")
    assert system.rows[-1] == ({3: 2}, 4, "numpy")
    assert all(type(x) is int for x in (*system.rows[-1][0].values(),
                                        system.rows[-1][1]))
    system.add_row({"a": 3, "b": 7}, 6, "clash")    # the sum of the rows, = 5
    with pytest.raises(InconsistentSystemError) as exc:
        solve(echelon(system))
    assert exc.value.provenance == "clash"


def test_rows_enter_only_through_add_row():
    # the constructor takes no rows, so a float row cannot pass unchecked
    # (dropped as 0 = 0 with right side 0.5, read as 0 = nonzero with 0.0)
    for rhs in (0.5, 0.0):
        rows = [({0: 2}, 1, "r"), ({0: 1.0}, rhs, "f")]
        with pytest.raises(TypeError):
            solve(echelon(LinearSystem(["a", "b"], rows=rows)))
        system = LinearSystem(["a", "b"])
        system.add_row({"a": 2}, 1, "r")
        with pytest.raises(TypeError):
            system.add_row({"a": 1.0}, rhs, "f")
        assert system.rows == [({0: 2}, 1, "r")]
    # solve reads an Echelon only; a system goes through echelon first
    with pytest.raises(AttributeError):
        solve(system)
    assert solve(echelon(system)).as_dict() == {"a": Fraction(1, 2), "b": 0}


def test_linear_system_refuses_repeated_variables():
    # a repeated name would leave a column that no row can reach
    with pytest.raises(ValueError, match="'a'"):
        LinearSystem(["a", "a"])
    with pytest.raises(ValueError):
        LinearSystem([(1, 2), (3,), (1, 2)])


def test_echelon_refuses_repeated_variables():
    with pytest.raises(ValueError, match="'a'"):
        Echelon(["a", "b", "a"])
    ech = Echelon(["a", "b", "c"])
    ech.add_row({"a": 1, "b": 1}, 2)
    assert ech.dimension == 2 and ech.free_columns == [1, 2]


def test_linear_solve_big_integer_coefficients():
    # fraction-free elimination must stay exact far beyond float precision
    big = 10 ** 30
    system = LinearSystem(variables=("a", "b"))
    system.add_row({"a": big, "b": 1}, big + 7, "r1")
    system.add_row({"a": 1, "b": big}, 7 * big + 1, "r2")
    space = solve(echelon(system))
    assert space.dimension == 0
    values = space.as_dict()
    assert values["a"] * big + values["b"] == big + 7
    assert values["a"] + values["b"] * big == 7 * big + 1


# ---------------------------------------------------------------------------
# small integer matrices: the Bareiss core against sympy


@st.composite
def int_matrices(draw, max_dim=6, max_cols=None):
    """Small integer matrices, often rank-deficient (a product of two
    thin factors) or sparse: up to max_dim rows and max_cols columns
    (default max_dim)."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_cols or max_dim))
    entries = st.integers(-9, 9)
    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n)))
        left = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                             min_size=m, max_size=m))
        right = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                              min_size=k, max_size=k))
        return [[sum(left[i][l] * right[l][j] for l in range(k))
                 for j in range(n)] for i in range(m)]
    sparse = st.one_of(st.just(0), entries)
    return draw(st.lists(st.lists(sparse, min_size=n, max_size=n),
                         min_size=m, max_size=m))


def _primitive(vec):
    """The primitive integer multiple of a rational vector, by a positive
    factor: cleared of denominators, then divided by its content."""
    denom = 1
    for x in vec:
        denom = denom * x.q // gcd(denom, x.q)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints]


@settings(max_examples=300, deadline=None)
@given(int_matrices(max_dim=8, max_cols=40))
def test_int_kernel_and_rank_match_sympy(rows):
    # wide matrices too: ``solve`` reads ``_kernel`` on the wide systems
    # of ``linsys``
    reduced, pivots = sympy.Matrix(rows).rref()
    rank = len(pivots)
    kernel = int_kernel(rows)
    # sympy's nullspace basis, from the same rref: one vector per free
    # column, 1 at that column and -rref[i, fc] at the pivot of row i;
    # its primitive integer multiple is exactly our vector
    expected = []
    for fc in range(len(rows[0])):
        if fc not in pivots:
            vec = [sympy.Integer(int(j == fc)) for j in range(len(rows[0]))]
            for i, pc in enumerate(pivots):
                vec[pc] = -reduced[i, fc]
            expected.append(_primitive(vec))
    assert kernel == expected
    assert len(kernel) == len(rows[0]) - rank
    for vec in kernel:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    # solve's nullspace of the same rows is the kernel over the entries
    # at the free columns
    system = LinearSystem(range(len(rows[0])))
    for row in rows:
        system.add_row(dict(enumerate(row)), 0)
    space = solve(echelon(system))
    assert space.nullspace == [[Fraction(x, vec[fc]) for x in vec]
                               for fc, vec in zip(space.free_columns, kernel)]


def test_int_kernel_refuses_non_integer_entries():
    # entries are read with operator.index, never truncated by int(): the
    # kernel of [3/2, 1] is spanned by (2, -3), not the (-1, 1) of [1, 1]
    for rows in ([[1.5, 1]], [[Fraction(3, 2), 1]], [[0.5, 1]], [[2, 0.0]],
                 [[Fraction(2), 1]], [[1, 0], [0, Fraction(0)]]):
        with pytest.raises(TypeError):
            int_kernel(rows)


@settings(max_examples=100, deadline=None)
@given(int_matrices(max_dim=6, max_cols=10))
def test_int_kernel_of_numpy_integers_is_the_kernel_of_ints(rows):
    kernel = int_kernel(rows)
    assert int_kernel(np.array(rows, dtype=np.int64)) == kernel
    assert int_kernel([[np.int64(x) for x in row] for row in rows]) == kernel
    assert all(type(x) is int for vec in kernel for x in vec)


# ---------------------------------------------------------------------------
# exact linear systems against sympy


@st.composite
def rational_systems(draw, max_dim=5):
    """Small rational systems as (coefficient rows, rhs), often
    rank-deficient, consistent or not."""
    rows = draw(int_matrices(max_dim=max_dim))
    scale = draw(st.lists(st.integers(1, 4), min_size=len(rows),
                          max_size=len(rows)))
    coeffs = [[Fraction(x, d) for x in r] for r, d in zip(rows, scale)]
    if draw(st.booleans()):               # consistent: rhs = A x0
        x0 = [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
              for _ in rows[0]]
        rhs = [sum(a * x for a, x in zip(r, x0)) for r in coeffs]
    else:
        rhs = [Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 3)))
               for _ in coeffs]
    return coeffs, rhs


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_solve_matches_sympy(data):
    coeffs, rhs = data
    n = len(coeffs[0])
    names = ["v%d" % i for i in range(n)]
    system = LinearSystem(variables=names)
    for i, (row, b) in enumerate(zip(coeffs, rhs)):
        system.add_row(*_cleared(dict(zip(names, row)), b), "row%d" % i)
    a = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                      for r in coeffs])
    b = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in rhs])
    rank = a.rank()
    if a.row_join(b).rank() > rank:
        with pytest.raises(InconsistentSystemError) as exc:
            solve(echelon(system))
        assert exc.value.provenance.startswith("row")
        return
    space = solve(echelon(system))
    assert len(space.pivot_columns) == rank
    assert space.dimension == n - rank
    assert sorted(space.pivot_columns + space.free_columns) == list(range(n))
    for row, value in zip(coeffs, rhs):
        assert sum(c * x for c, x in zip(row, space.particular)) == value
        for vec in space.nullspace:
            assert sum(c * x for c, x in zip(row, vec)) == 0
    # the nullspace spans sympy's: same rank alone and side by side
    ours = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in vec] for vec in space.nullspace])
    theirs = a.nullspace()
    if theirs:
        stacked = sympy.Matrix.hstack(*theirs).T
        assert ours.rank() == stacked.rank() == n - rank
        assert ours.col_join(stacked).rank() == n - rank
    else:
        assert not space.nullspace


# ---------------------------------------------------------------------------
# the sparse reduced echelon against the dense one it replaced


@st.composite
def sparse_systems(draw, max_vars=8, max_support=3, bound=6):
    """A few variables, rows of at most ``max_support`` nonzeros with int
    or Fraction entries (numerators up to +-``bound``) and rows added
    after elimination, each right-hand side either taken from one
    rational point (consistent) or drawn freely (often not)."""
    n = draw(st.integers(1, max_vars))
    point = [Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
             for _ in range(n)]
    entries = st.one_of(st.integers(-bound, bound),
                        st.builds(Fraction, st.integers(-bound, bound),
                                  st.integers(1, 4)))

    def rows(count):
        out = []
        for _ in range(count):
            cols = draw(st.sets(st.integers(0, n - 1), max_size=max_support))
            row = {c: draw(entries) for c in cols}
            if draw(st.integers(0, 5)):
                rhs = sum(c * point[col] for col, c in row.items())
            else:
                rhs = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
            out.append((row, rhs))
        return out

    return n, rows(draw(st.integers(0, 2 * n))), rows(draw(st.integers(0, 4)))


def _dense_pivots(dense):
    """The reduced rows of a ``DenseEchelon`` as sparse pivot rows."""
    return {col: {c: v for c, v in enumerate(vec) if v}
            for col, vec in dense.reduced().items()}


def _sparse_of(names, rows):
    """The echelon of a system of rational rows keyed by column, each
    cleared of its denominators before it reaches the solver."""
    system = LinearSystem(variables=names)
    for i, (row, rhs) in enumerate(rows):
        system.add_row(*_cleared({names[c]: x for c, x in row.items()}, rhs),
                       "row%d" % i)
    return echelon(system)


def _dense_of(names, rows):
    """The dense oracle's echelon of the same rows, rational as drawn."""
    dense = DenseEchelon(names)
    for i, (row, rhs) in enumerate(rows):
        dense.add_row({names[c]: x for c, x in row.items()}, rhs, "row%d" % i)
    return dense


def _check_against_dense(data):
    n, rows, pins = data
    names = ["v%d" % i for i in range(n)]
    outcomes = []
    for build in (_sparse_of, _dense_of):
        try:
            outcomes.append(build(names, rows))
        except InconsistentSystemError as exc:
            outcomes.append(exc.provenance)
    sparse, dense = outcomes
    if isinstance(sparse, str) or isinstance(dense, str):
        assert sparse == dense
        return

    def same_as_dense():
        assert solve(sparse) == dense.space()
        assert sparse.pivots == _dense_pivots(dense)

    same_as_dense()
    for i, (row, rhs) in enumerate(pins):
        coeffs = {names[c]: x for c, x in row.items()}
        before = {col: dict(r) for col, r in sparse.pivots.items()}
        failed = []
        for ech, pin in ((sparse, _cleared(coeffs, rhs)),
                         (dense, (coeffs, rhs))):
            try:
                ech.add_row(*pin, "pin%d" % i)
            except InconsistentSystemError as exc:
                failed.append(exc.provenance)
        assert failed in ([], ["pin%d" % i] * 2)
        if failed:
            assert sparse.pivots == before   # the failed row left no trace
        same_as_dense()
        for r in sparse.pivots.values():      # primitive, reduced, positive
            assert gcd(*r.values()) == 1 and 0 not in r.values()
        for col, r in sparse.pivots.items():
            assert min(r) == col and r[col] > 0
            assert not any(c in sparse.pivots for c in r if c != col)


@settings(max_examples=400, deadline=None)
@given(sparse_systems())
def test_sparse_echelon_matches_dense_oracle(data):
    _check_against_dense(data)


# Pivots 2, 3 and 5 on the free column 3; the rows below meet all three
# (scaled once by their lcm 30) and leave a new pivot, nothing, 0 = 1,
# or a new pivot cleared back from the three.
_THREE_PIVOTS = [({0: 2, 3: 1}, 1), ({1: 3, 3: -1}, 2), ({2: 5, 3: 1}, 3)]


@settings(max_examples=300, deadline=None)
@given(sparse_systems(max_support=8, bound=12))
@example((4, _THREE_PIVOTS, [({0: 4, 1: 6, 2: 10, 3: 1}, 12)]))
@example((4, _THREE_PIVOTS, [({0: 2, 1: 3, 2: 5, 3: 1}, 6)]))
@example((4, _THREE_PIVOTS, [({0: 2, 1: 3, 2: 5, 3: 1}, 7)]))
@example((4, _THREE_PIVOTS + [({0: 1, 1: 1, 2: 1, 3: 1}, 4)], []))
def test_dense_rows_match_dense_oracle(data):
    # rows on up to every column meet several pivots with distinct
    # leading entries, each cleared in the one pass after the lcm scaling
    _check_against_dense(data)


@settings(max_examples=300, deadline=None)
@given(sparse_systems(max_support=5))
@example((4, _THREE_PIVOTS, [({0: 4, 1: 6, 2: 10, 3: 1}, 12)]))
@example((4, _THREE_PIVOTS, [({0: 2, 1: 3, 2: 5, 3: 1}, 7)]))
def test_implies_matches_rank_oracle(data):
    # a row is implied exactly when appending it to the system leaves the
    # rank unchanged and the system consistent; the system's own rows and
    # their sum always are, and asking leaves the echelon as it was
    n, rows, extra = data
    names = ["v%d" % i for i in range(n)]
    try:
        ech = _sparse_of(names, rows)
    except InconsistentSystemError:
        return
    total = {}
    for row, _ in rows:
        for c, x in row.items():
            total[c] = total.get(c, 0) + x
    candidates = extra + rows + [(total, sum(rhs for _, rhs in rows))]
    for row, rhs in candidates:
        coeffs = {names[c]: x for c, x in row.items()}
        dense = _dense_of(names, rows)
        try:
            dense.add_row(coeffs, rhs)
            expected = dense.dimension == ech.dimension
        except InconsistentSystemError:
            expected = False
        pivots = {col: dict(r) for col, r in ech.pivots.items()}
        assert ech.implies(*_cleared(coeffs, rhs)) == expected
        assert ech.pivots == pivots
    for row, rhs in candidates[len(extra):]:
        assert ech.implies(*_cleared({names[c]: x for c, x in row.items()},
                                     rhs))


@settings(max_examples=300, deadline=None)
@given(sparse_systems(max_support=5), st.data())
def test_echelon_does_not_depend_on_the_row_order(data, choice):
    # a new pivot is cleared from every pivot row that holds it, whatever
    # the order of the rows before it; the pins then extend both alike
    n, rows, pins = data
    names = ["v%d" % i for i in range(n)]
    try:
        given_order = _sparse_of(names, rows)
    except InconsistentSystemError:
        return
    permuted = _sparse_of(names, choice.draw(st.permutations(rows)))

    def same():
        assert given_order.pivots == permuted.pivots
        assert solve(given_order) == solve(permuted)

    same()
    for i, (row, rhs) in enumerate(pins):
        pin = _cleared({names[c]: x for c, x in row.items()}, rhs)
        failed = []
        for ech in (given_order, permuted):
            try:
                ech.add_row(*pin, "pin%d" % i)
            except InconsistentSystemError as exc:
                failed.append(exc.provenance)
        assert failed in ([], ["pin%d" % i] * 2)
        same()


@pytest.mark.parametrize("name", ["E6", "D6", "D7"])
def test_equation_system_echelon_matches_dense_oracle(name):
    system = generate_equations(name)
    ech = echelon(system)
    assert ech.pivots == _dense_pivots(DenseEchelon.of(system))
