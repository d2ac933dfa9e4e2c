"""Internal consistency of the golden reference data."""

import re

import pytest

from noncross import polynomial, refdata
from noncross.decomp import canonical_tuple, tuple_rank
from noncross.polynomial import SparsePolynomial
from noncross.refdata import (CHI_STAR_COEFFS, REFERENCE_TABLE_NAMES,
                              chi_star_reference, golden_dual,
                              reference_table)
from noncross.typelabel import label
from refdata_oracle import golden_dual_by_expressions


def _typed_terms(p):
    return {exp: (type(c), c) for exp, c in p.terms.items()}


def test_chi_coefficient_lists_well_formed():
    assert len(CHI_STAR_COEFFS) == 14
    for name, coeffs in CHI_STAR_COEFFS.items():
        n = label(name).rank
        assert len(coeffs) == n + 1
        assert coeffs[0] == 1
        poly = chi_star_reference(name)
        assert poly.degree("y") == n
        # chi*(1) = 0: the Moebius column sums vanish
        assert poly.evaluate(y=1) == 0
        # the same terms as the sum of the coefficients times powers of y
        summed = polynomial.ZERO
        for i, c in enumerate(coeffs):
            summed = summed + SparsePolynomial.variable("y", n - i) * c
        assert _typed_terms(poly) == _typed_terms(summed)


def test_reference_tables_canonical_keys():
    for name in REFERENCE_TABLE_NAMES:
        n = label(name).rank
        for key, value in reference_table(name).items():
            assert key == canonical_tuple(key)
            assert tuple_rank(key) == n
            assert value >= 0


def test_reference_table_anchor_values():
    # number of positive roots = N(A1, completion) summed
    e6 = reference_table("E6")
    assert e6[canonical_tuple((label("E6"),))] == 1
    e8 = reference_table("E8")
    assert e8[canonical_tuple((label("E8"),))] == 1
    assert e8[canonical_tuple((label("D4"), label("A4")))] == 15


def test_golden_duals_constant_term():
    for name in ("E7", "E8"):
        dual = golden_dual(name)
        assert dual.substitute(x=0, y=0).evaluate(m=1) == 1
        assert dual.degree("x") == label(name).rank


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_golden_dual_is_the_published_expressions(name):
    # the text parsed in integers against the factored expressions
    # multiplied out as polynomials, term by term, with their types
    parsed, expected = golden_dual(name), golden_dual_by_expressions(name)
    assert _typed_terms(parsed) == _typed_terms(expected)
    assert str(parsed) == str(expected)
    assert golden_dual(name) is parsed


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_golden_dual_lines_have_m_degree_at_most_the_rank(name):
    n = label(name).rank
    lines = refdata._DUALS_TEXT[name].strip().splitlines()
    assert len({tuple(line.split()[:2]) for line in lines}) == len(lines)
    for line in lines:
        k, l, num, den, vec = refdata._dual_line(line)
        assert len(vec) - 1 <= n, line
        assert vec[-1] and l <= k <= n, line


@pytest.mark.parametrize("line", [
    "7 7 1/280 m (9m-2) # (9m-4)",       # a stray character
    "7 7 1/280 m (9m-2)*(9m-4)",         # factors not separated
    "7 7 1/280 m (9m-2 (9m-4)",          # an unbalanced parenthesis
    "7 7 1/280 m (9m-2)) (9m-4)",
    "7 7 m (9m-2) (9m-4)",               # a missing rational factor
    "7 7",
    "7 7 1/280 m (9m-) (9m-4)",          # a missing term
    "7 7 1/280 m () (9m-4)",
    "7 7 1/280 m^ (9m-4)",               # a missing power
    "7 7 1/0 m",
])
def test_malformed_dual_line_raises_naming_it(line):
    with pytest.raises(ValueError, match=re.escape("line %r" % line)):
        refdata._dual_line(line)


def test_golden_dual_of_another_ambient_raises_key_error():
    with pytest.raises(KeyError):
        golden_dual("E6")
