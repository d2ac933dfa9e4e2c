"""Linear-system derivation of the decomposition tables."""

from fractions import Fraction

import pytest

from dense_echelon import DenseEchelon
from poly_oracle import _coeffs_mz, binomial_poly, zeta_shifted
from product_oracle import _reference_product_value
from noncross import decomp, linsys
from noncross.decomp import (DecompositionTable, all_labels_of_rank,
                             all_tuples_of_rank, canonical_tuple, full_table,
                             lower_table, orderings, tuple_rank)
from noncross.exact import ZERO, LinearSystem, _coeff, echelon, poly
from noncross.linsys import (EXPECTED_DIMENSION, ROW_FAMILIES,
                             check_system_against_table, generate_equations,
                             replay, row_family)
from noncross.ncposet import zeta_closed, zeta_forms
from noncross.refdata import reference_table
from noncross.typelabel import label


def L(*names):
    return tuple(label(s) for s in names)


@pytest.mark.parametrize("name", ["A2", "A3", "D4", "D5"])
def test_small_ambients_fully_determined(name):
    report = replay(name)
    assert report.dimension == 0
    assert report.pinned_values == {}
    expected = {k: v for k, v in full_table(name).entries.items() if v}
    assert report.final_table.entries == expected


def test_equations_satisfied_by_bruteforce_table():
    for name in ("A3", "D4", "D5", "E6"):
        system = generate_equations(name)
        failures = check_system_against_table(system, full_table(name))
        assert failures == [], (name, failures[:5])


def test_equations_satisfied_by_published_tables():
    for name in ("D6", "D7"):
        table = DecompositionTable(label(name), reference_table(name),
                                   provenance="published")
        failures = check_system_against_table(generate_equations(name), table)
        assert failures == [], (name, failures[:5])


def test_E6_replay():
    report = replay("E6")
    assert report.dimension == 1
    assert report.all_assertions_pass
    expected = {k: v for k, v in reference_table("E6").items() if v}
    assert report.final_table.entries == expected


def test_D6_replay():
    report = replay("D6")
    assert report.dimension == 2
    assert report.all_assertions_pass
    expected = {k: v for k, v in reference_table("D6").items() if v}
    assert report.final_table.entries == expected


def test_D7_replay_dimension_relaxation():
    # the equation families here determine one more unknown than the
    # published account kept free; anything <= the reported freedom is fine
    report = replay("D7")
    assert report.dimension <= EXPECTED_DIMENSION["D7"]
    if report.dimension < EXPECTED_DIMENSION["D7"]:
        assert any("below" in f for f in report.flags)
    assert report.all_assertions_pass
    expected = {k: v for k, v in reference_table("D7").items() if v}
    assert report.final_table.entries == expected


def test_lower_count_matches_bruteforce():
    from noncross.decomp import count_bruteforce
    assert lower_table(label("A2")).lookup(L("A1", "A1")) == \
        count_bruteforce("A2", L("A1", "A1"))
    assert lower_table(label("A1*A2")).lookup(L("A1", "A2")) > 0
    assert lower_table(label("0")).lookup(()) == 1


def test_shared_lower_count_memo_matches_plain_product_rule():
    # every (reducible label, tuple) pair of rank 1-7 the E8 split rows
    # read, against the key-by-key oracle; the table caches start empty
    # so that product types sharing trailing factors (A1*A3^2 and
    # A2*A3^2) meet in them
    decomp.lower_table.cache_clear()
    decomp.product_table.cache_clear()
    assert decomp.lower_table.cache_info().currsize == 0
    pairs = 0
    for r in range(1, 8):
        for t in all_labels_of_rank(r):
            if t.is_irreducible:
                continue
            factors = [full_table("%s%d" % comp) for comp in t.components]
            for key in all_tuples_of_rank(r):
                assert lower_table(t).lookup(key) == \
                    _reference_product_value(factors, key), (t, key)
                pairs += 1
    assert pairs == 4046
    assert decomp.lower_table.cache_info().currsize


def test_full_table_routes():
    for name in ("A1", "A3", "A5", "A8"):
        assert full_table(name).provenance == "typeA-closed-form"
    for name in ("D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"):
        assert full_table(name).provenance == "census"


def test_variables_are_full_rank_tuples():
    system = generate_equations("E6")
    for key in system.variables:
        assert tuple_rank(key) == 6
        assert key == canonical_tuple(key)


def test_equation_budget_loose():
    system = generate_equations("E6")
    assert system.num_vars < 200
    assert system.num_rows > system.num_vars


def _fraction_back_substitution(ech):
    """The dense Fraction back-substitution of the dense oracle's pivot
    rows, kept as a reference: (particular, nullspace, pivots, free
    columns)."""
    nvars = len(ech.variables)
    pivot_cols = sorted(ech.pivots)
    free_cols = [c for c in range(nvars) if c not in ech.pivots]
    reduced = {}
    for col in reversed(pivot_cols):
        vec = [Fraction(v) for v in ech.pivots[col]]
        for col2 in pivot_cols:
            if col2 > col and vec[col2]:
                f = vec[col2]
                vec = [a - f * b for a, b in zip(vec, reduced[col2])]
        lead = vec[col]
        reduced[col] = [a / lead for a in vec]
    particular = [Fraction(0)] * nvars
    for col in pivot_cols:
        particular[col] = reduced[col][nvars]
    nullspace = []
    for fc in free_cols:
        basis = [Fraction(0)] * nvars
        basis[fc] = Fraction(1)
        for col in pivot_cols:
            basis[col] = -reduced[col][fc]
        nullspace.append(basis)
    return particular, nullspace, pivot_cols, free_cols


@pytest.mark.parametrize("name", ["E6", "D6", "D7"])
def test_integer_back_substitution_matches_fraction_reference(name):
    system = generate_equations(name)
    ech = echelon(system)
    dense = DenseEchelon.of(system)
    for key, value in replay(name).pinned_values.items():
        space = ech.space()
        assert (space.particular, space.nullspace, space.pivot_columns,
                space.free_columns) == _fraction_back_substitution(dense)
        ech.add_row({key: 1}, value, "oracle-pin")
        dense.add_row({key: 1}, value, "oracle-pin")
    space = ech.space()
    assert space.dimension == 0
    assert (space.particular, space.nullspace, space.pivot_columns,
            space.free_columns) == _fraction_back_substitution(dense)


@pytest.mark.parametrize("name", ["E6", "D6", "D7", "E7", "E8"])
def test_sparse_echelon_matches_dense_oracle(name):
    system = generate_equations(name)
    echelons = (echelon(system), DenseEchelon.of(system))
    spaces = [ech.space() for ech in echelons]
    assert spaces[0] == spaces[1]
    report = replay(name)
    assert spaces[0].dimension == report.dimension > 0
    for key, value in report.pinned_values.items():
        for ech in echelons:
            ech.add_row({key: 1}, value, "oracle-pin")
    spaces = [ech.space() for ech in echelons]
    assert spaces[0] == spaces[1]
    assert spaces[0].dimension == 0


def _zeta_rows_per_tuple(name):
    """The zeta rows as built before the products were shared: one
    product of shifted zeta polynomials per tuple entry."""
    ambient = label(name)
    n = ambient.rank
    system = LinearSystem(variables=all_tuples_of_rank(n))
    forms = {}
    for s in range(1, n + 1):
        for tup in all_tuples_of_rank(s):
            weight = poly(orderings(tup)) * binomial_poly(len(tup))
            for t in tup:
                weight = weight * zeta_shifted(t)
            if s == n:
                targets = (tup,)
            else:
                targets = tuple(canonical_tuple(tup + (extra,))
                                for extra in all_labels_of_rank(n - s))
            for var in targets:
                forms[var] = forms.get(var, ZERO) + weight
    buckets = {}
    for var, form in forms.items():
        for mz, c in _coeffs_mz(form).items():
            buckets.setdefault(mz, {})[var] = c
    lhs = _coeffs_mz(zeta_closed(ambient, m="m") - poly(1))
    for i in range(n + 1):
        for j in range(n + 1):
            coeffs = buckets.get((i, j), {})
            rhs = lhs.get((i, j), Fraction(0))
            if coeffs or rhs:
                system.add_row(coeffs, rhs, "zeta:m^%d z^%d" % (i, j))
    return system.rows


@pytest.mark.parametrize("name", ["D5", "E6", "E7", "E8", "D8"])
def test_zeta_rows_match_per_tuple_products(name):
    # the rows are the oracle's cleared of the forms' denominator
    _, den = zeta_forms(label(name).rank)
    rows = [row for row in generate_equations(name).rows
            if row_family(row[2]) == "zeta"]
    assert rows == [({col: c * den for col, c in row.items()}, rhs * den,
                     provenance)
                    for row, rhs, provenance in _zeta_rows_per_tuple(name)]
    assert all(type(c) is int
               for row, rhs, _ in rows for c in (*row.values(), rhs))


def _family_order(name, monkeypatch):
    """The system in the order its families were generated (forbidden,
    special, split, zeta), with the zeta rows as Fractions, not cleared
    of their denominator."""
    with monkeypatch.context() as patch:
        patch.setattr(linsys, "_leading_column", lambda row: 0)
        system = generate_equations(name)
    _, den = zeta_forms(label(name).rank)
    rows = [(row, rhs, provenance) if row_family(provenance) != "zeta"
            else ({col: _coeff(Fraction(c, den)) for col, c in row.items()},
                  _coeff(Fraction(rhs, den)), provenance)
            for row, rhs, provenance in system.rows]
    return LinearSystem(variables=system.variables, rows=rows)


@pytest.mark.parametrize("name", ["E6", "D6", "D7", "E7", "E8", "D8"])
def test_sparse_first_order_gives_the_family_order_echelon(name,
                                                           monkeypatch):
    system = generate_equations(name)
    old = _family_order(name, monkeypatch)
    provenances = [p for _, _, p in system.rows]
    assert provenances != [p for _, _, p in old.rows]
    assert sorted(provenances) == sorted(p for _, _, p in old.rows)
    leads = [min(row) for row, _, p in system.rows
             if row_family(p) != "zeta"]
    assert leads == sorted(leads, reverse=True)
    mine, theirs = echelon(system), echelon(old)
    assert mine.pivots == theirs.pivots
    assert mine.space() == theirs.space()


@pytest.mark.parametrize("name", ["D5", "E6", "D6"])
def test_rows_by_family(name):
    report = replay(name)
    counts = report.rows_by_family
    assert tuple(counts) == ROW_FAMILIES
    assert sum(counts.values()) == \
        report.equation_count + len(report.pinned_values)
    assert counts["oracle-pin"] == len(report.pinned_values)
    families = [row_family(p) for _, _, p in generate_equations(name).rows]
    for family in ROW_FAMILIES[:-1]:
        assert counts[family] == families.count(family) > 0
