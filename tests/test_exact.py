"""Exact polynomial arithmetic and fraction-free linear algebra."""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from noncross import exact
from noncross.exact import (InconsistentSystemError, LinearSystem,
                            SparsePolynomial, binomial_poly, exact_divide,
                            int_adjugate, int_kernel, int_rank, poly, solve,
                            substitute_rational)

X = SparsePolynomial.variable("x")
Y = SparsePolynomial.variable("y")
M = SparsePolynomial.variable("m")
Z = SparsePolynomial.variable("z")


def test_ring_axioms_small():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (X + 1) ** 3 == X ** 3 + 3 * X ** 2 + 3 * X + 1
    assert p - p == exact.ZERO
    assert poly(1) == exact.ONE


def test_coefficient_and_degree():
    p = 3 * X ** 2 * Y - 5 * X + 7
    assert p.degree("x") == 2
    assert p.degree("y") == 1
    assert p.coefficient(x=2).evaluate(y=1) == 3
    assert p.coefficient(x=0, y=0).evaluate() == 7


def test_evaluate_exact_fractions():
    p = X ** 2 * Fraction(1, 2) + Fraction(1, 3)
    assert p.evaluate(x=Fraction(1, 2)) == Fraction(1, 8) + Fraction(1, 3)


def test_substitute_polynomial():
    p = X ** 2 + M * X
    q = p.substitute(x=Y + 1)
    assert q == (Y + 1) ** 2 + M * (Y + 1)


def test_binomial_poly():
    b3 = binomial_poly(3)
    # binom(m,3) at integer points
    for m in range(-2, 8):
        from math import comb
        expected = comb(m, 3) if m >= 0 else Fraction((m)*(m-1)*(m-2), 6)
        assert b3.evaluate(m=m) == expected
    assert binomial_poly(0) == exact.ONE


def test_exact_divide_roundtrip():
    num = (X - Y) ** 3 * (1 + X * Y)
    quotient = exact_divide(num, (X - Y) ** 3)
    assert quotient == 1 + X * Y


def test_exact_divide_rejects_nondivisor():
    with pytest.raises(ValueError):
        exact_divide(X ** 2 + 1, X - 1)


def test_substitute_rational_clearing():
    # x -> (1+y)/(y-x) with clearing power 2 in a degree-2 polynomial
    p = X ** 2
    cleared = substitute_rational(p, {"x": (1 + Y, Y - X)}, {"x": 2})
    assert cleared == (1 + Y) ** 2


def test_linear_solve_unique():
    system = LinearSystem(variables=("a", "b"))
    system.add_row({"a": 2, "b": 1}, 5, "r1")
    system.add_row({"a": 1, "b": -1}, 1, "r2")
    space = solve(system)
    assert space.dimension == 0
    assert space.as_dict() == {"a": 2, "b": 1}


def test_linear_solve_underdetermined():
    system = LinearSystem(variables=("a", "b", "c"))
    system.add_row({"a": 1, "b": 1}, 3, "r1")
    space = solve(system)
    assert space.dimension == 2
    values = space.as_dict(coeffs=(0,) * space.dimension)
    assert values["a"] + values["b"] == 3


def test_linear_solve_inconsistent():
    system = LinearSystem(variables=("a",))
    system.add_row({"a": 1}, 1, "r1")
    system.add_row({"a": 1}, 2, "bad-row")
    with pytest.raises(InconsistentSystemError):
        solve(system)


def test_linear_solve_big_integer_coefficients():
    # fraction-free elimination must stay exact far beyond float precision
    big = 10 ** 30
    system = LinearSystem(variables=("a", "b"))
    system.add_row({"a": big, "b": 1}, big + 7, "r1")
    system.add_row({"a": 1, "b": big}, 7 * big + 1, "r2")
    space = solve(system)
    assert space.dimension == 0
    values = space.as_dict()
    assert values["a"] * big + values["b"] == big + 7
    assert values["a"] + values["b"] * big == 7 * big + 1


# ---------------------------------------------------------------------------
# small integer matrices: the Bareiss core against sympy


@st.composite
def int_matrices(draw, max_dim=6, square=False):
    """Small integer matrices, often rank-deficient (a product of two
    thin factors) or sparse."""
    m = draw(st.integers(1, max_dim))
    n = m if square else draw(st.integers(1, max_dim))
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
@given(int_matrices())
def test_int_kernel_and_rank_match_sympy(rows):
    matrix = sympy.Matrix(rows)
    rank = matrix.rank()
    assert int_rank(rows) == rank
    kernel = int_kernel(rows)
    # sympy's basis has one vector per free column, 1 at that column:
    # its primitive integer multiple is exactly our vector
    expected = [_primitive(list(v)) for v in matrix.nullspace()]
    assert kernel == expected
    assert len(kernel) == len(rows[0]) - rank
    for vec in kernel:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_dim=5, square=True))
def test_int_adjugate_matches_sympy(rows):
    matrix = sympy.Matrix(rows)
    if matrix.det() == 0:
        with pytest.raises(ValueError):
            int_adjugate(rows)
        return
    adj, det = int_adjugate(rows)
    assert det == matrix.det()
    assert adj == matrix.adjugate().tolist()
