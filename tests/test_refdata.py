"""Internal consistency of the golden reference data."""

from noncross.decomp import canonical_tuple, tuple_rank
from noncross.refdata import (CHI_STAR_COEFFS, REFERENCE_TABLE_NAMES,
                              chi_star_reference, golden_dual,
                              reference_table)
from noncross.typelabel import label


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
