"""Linear-system derivation of the decomposition tables."""

import re
from fractions import Fraction

import pytest

from dense_echelon import DenseEchelon
from relation_reader import read_relation
from poly_oracle import (_coeffs_mz, binomial_poly, in_powers_of_m,
                         zeta_rows_by_polynomials, zeta_shifted)
from product_oracle import _reference_product_value
from noncross import decomp, linsys, ncposet
from noncross.decomp import (DecompositionTable, all_labels_of_rank,
                             all_tuples_of_rank, canonical_tuple, full_table,
                             orderings, tuple_rank)
from noncross.exact import LinearSystem, echelon, solve
from noncross.cli import main
from noncross.closedform import zeta_closed, zeta_forms, zeta_rows
from noncross.linsys import (EXPECTED_DIMENSION, PIN_TUPLES, RELATIONS,
                             ROW_FAMILIES, check_system_against_table,
                             generate_equations, relation_rows, replay,
                             row_family)
from noncross.polynomial import ZERO, poly
from noncross.refdata import reference_table
from noncross.typelabel import TypeLabel, label


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
    # published account kept free: they imply 3X + Y = 36 for the
    # parameters X = N(A1^4,A1^3) and Y = N(A1^2*A2,A1^3) (see
    # test_D7_equations_imply_3X_plus_Y); anything <= the reported
    # freedom is fine
    report = replay("D7")
    assert report.dimension <= EXPECTED_DIMENSION["D7"]
    if report.dimension < EXPECTED_DIMENSION["D7"]:
        assert any("below" in f for f in report.flags)
    assert report.all_assertions_pass
    expected = {k: v for k, v in reference_table("D7").items() if v}
    assert report.final_table.entries == expected


def test_lower_count_matches_bruteforce():
    from noncross.decomp import count_bruteforce
    assert full_table(label("A2")).lookup(L("A1", "A1")) == \
        count_bruteforce("A2", L("A1", "A1"))
    assert full_table(label("A1*A2")).lookup(L("A1", "A2")) > 0
    assert full_table(label("0")).lookup(()) == 1


def test_shared_lower_count_memo_matches_plain_product_rule():
    # every (reducible label, tuple) pair of rank 1-7 the E8 split rows
    # read, against the key-by-key oracle; the table caches start empty
    # so that product types sharing trailing factors (A1*A3^2 and
    # A2*A3^2) meet in them
    decomp.full_table.cache_clear()
    decomp.product_table.cache_clear()
    assert decomp.full_table.cache_info().currsize == 0
    pairs = 0
    for r in range(1, 8):
        for t in all_labels_of_rank(r):
            if t.is_irreducible:
                continue
            factors = [full_table("%s%d" % comp) for comp in t.components]
            for key in all_tuples_of_rank(r):
                assert full_table(t).lookup(key) == \
                    _reference_product_value(factors, key), (t, key)
                pairs += 1
    assert pairs == 4046
    assert decomp.full_table.cache_info().currsize


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
        space = solve(ech)
        assert (space.particular, space.nullspace, space.pivot_columns,
                space.free_columns) == _fraction_back_substitution(dense)
        ech.add_row({key: 1}, value, "oracle-pin")
        dense.add_row({key: 1}, value, "oracle-pin")
    space = solve(ech)
    assert space.dimension == 0
    assert (space.particular, space.nullspace, space.pivot_columns,
            space.free_columns) == _fraction_back_substitution(dense)


@pytest.mark.parametrize("name", ["E6", "D6", "D7", "E7", "E8"])
def test_sparse_echelon_matches_dense_oracle(name):
    system = generate_equations(name)
    echelons = (echelon(system), DenseEchelon.of(system))
    spaces = [solve(echelons[0]), echelons[1].space()]
    assert spaces[0] == spaces[1]
    report = replay(name)
    assert spaces[0].dimension == report.dimension > 0
    for key, value in report.pinned_values.items():
        for ech in echelons:
            ech.add_row({key: 1}, value, "oracle-pin")
    spaces = [solve(echelons[0]), echelons[1].space()]
    assert spaces[0] == spaces[1]
    assert spaces[0].dimension == 0


def _zeta_rows_per_tuple(name):
    """The zeta rows as built before the products were shared: one
    product of shifted zeta polynomials per tuple entry, as rational
    (row keyed by column, rhs, provenance) triples."""
    ambient = label(name)
    n = ambient.rank
    columns = {var: i for i, var in enumerate(all_tuples_of_rank(n))}
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
            buckets.setdefault(mz, {})[columns[var]] = c
    lhs = _coeffs_mz(zeta_closed(ambient, m="m") - poly(1))
    rows = []
    for i in range(n + 1):
        for j in range(n + 1):
            row = buckets.get((i, j), {})
            rhs = lhs.get((i, j), 0)
            if row or rhs:
                rows.append((row, rhs, "zeta:m^%d z^%d" % (i, j)))
    return rows


def _binomial_zeta_rows(system):
    """The zeta rows of a system as ((k, j), row, rhs), (k, j) read off
    the provenance ``zeta:binom(m,k) z^j``."""
    rows = []
    for row, rhs, provenance in system.rows:
        if row_family(provenance) == "zeta":
            kj = re.fullmatch(r"zeta:binom\(m,(\d+)\) z\^(\d+)", provenance)
            rows.append((tuple(map(int, kj.groups())), row, rhs))
    return rows


@pytest.mark.parametrize("name", ["D5", "E6", "E7", "E8", "D8"])
def test_zeta_rows_match_per_tuple_products(name):
    # the rows in binom(m, k) z^j, in order of (k, j), mapped to powers of
    # m, are the oracle's cleared of the forms' denominator times n!
    n = label(name).rank
    rows = _binomial_zeta_rows(generate_equations(name))
    assert [kj for kj, _, _ in rows] == sorted(kj for kj, _, _ in rows)
    assert all(type(c) is int
               for _, row, rhs in rows for c in (*row.values(), rhs))
    mapped, den = in_powers_of_m(rows, zeta_forms(n)[1], n)
    assert [(row, rhs, "zeta:m^%d z^%d" % ij) for ij, row, rhs in mapped] == [
        ({col: c * den for col, c in row.items()}, rhs * den, provenance)
        for row, rhs, provenance in _zeta_rows_per_tuple(name)]


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D7", "D8",
                                  "E6", "E7", "E8"])
def test_zeta_rows_in_powers_of_m_give_the_same_echelon(name):
    # for each z^j the bases binom(m, k) and m^i differ by an invertible
    # triangular map, so the rows span one space: one reduced echelon
    system = generate_equations(name)
    oracle = LinearSystem(system.variables)
    for row, rhs, provenance in system.rows:
        if row_family(provenance) != "zeta":
            oracle.add_row({system.variables[c]: v for c, v in row.items()},
                           rhs, provenance)
    for (i, j), form, rhs in zeta_rows_by_polynomials(name)[0]:
        oracle.add_row(form, rhs, "zeta:m^%d z^%d" % (i, j))
    assert echelon(system).pivots == echelon(oracle).pivots


def test_e8_zeta_row_k_holds_tuples_of_k_or_k_plus_1_factors():
    rows, _ = zeta_rows("E8")
    assert len(rows) == 72
    for (k, j), form, _ in rows:
        assert {len(var) for var in form} <= {k, k + 1}, (k, j)


def _family_order(name, monkeypatch):
    """The system in the order its families were generated (forbidden,
    special, split, zeta)."""
    with monkeypatch.context() as patch:
        patch.setattr(linsys, "_leading_column", lambda row: 0)
        return generate_equations(name)


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
    assert solve(mine) == solve(theirs)


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


# ---------------------------------------------------------------------------
# the paper's relations, as rows implied by the unpinned system


def test_relation_reader_reads_printed_forms():
    assert read_relation("N(A1*A2^2,A2) = 14(36-3X-Y)/15") == {
        "A1*A2^2,A2": 1, 1: Fraction(-504, 15), "X": Fraction(42, 15),
        "Y": Fraction(14, 15)}
    assert read_relation("100 N(A3,A3) = 2592 + 9X") == {
        "A3,A3": 100, 1: -2592, "X": -9}
    assert read_relation("N(D4) = 27263/168 - A/40 + B/40") == {
        "D4": 1, 1: Fraction(-27263, 168), "A": Fraction(1, 40),
        "B": Fraction(-1, 40)}
    assert read_relation("-2(3 - (X - Y))/4 = 0") == {
        1: Fraction(-3, 2), "X": Fraction(1, 2), "Y": Fraction(-1, 2)}
    for bad in ("X Y = 1", "N(A2) / X = 1", "X = ", "X = 1)"):
        with pytest.raises(ValueError):
            read_relation(bad)


@pytest.mark.parametrize("name", sorted(RELATIONS))
def test_relation_rows_are_multiples_of_their_printed_forms(name):
    for desc, terms, rhs in RELATIONS[name]:
        printed = read_relation(desc)
        row = dict(terms)
        if rhs:
            row[1] = -rhs
        assert row.keys() == printed.keys(), desc
        assert len({c / printed[t] for t, c in row.items()}) == 1, desc


def test_relation_count():
    assert [len(RELATIONS[n]) for n in ("E6", "D6", "D7", "E7", "E8")] \
        == [2, 2, 5, 5, 11]


@pytest.mark.parametrize("name", sorted(RELATIONS))
def test_relations_follow_from_the_unpinned_system(name):
    ech = echelon(generate_equations(name))
    rows = list(relation_rows(name))
    assert len(rows) == len(RELATIONS[name])
    for desc, coeffs, rhs in rows:
        assert ech.implies(coeffs, rhs), desc
        assert not ech.implies(coeffs, rhs + 1), desc
        assert all(c for c in coeffs.values())
    checks = dict(replay(name).congruence_assertions)
    assert all(checks[desc] is True for desc, _, _ in rows)


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_label_ambient_is_answered_as_its_text(name):
    # the pins, relations and point checks are keyed by text: a label
    # once replayed E7 to dimension 2 and read no E8 relation, and
    # walked its ambient a second time
    ambient = label(name)
    assert replay(ambient) is replay(name)
    assert list(relation_rows(ambient)) == list(relation_rows(name))
    assert len(list(relation_rows(ambient))) == len(RELATIONS[name])
    assert replay(ambient).all_assertions_pass
    assert ncposet.enumerate_nc(ambient) is ncposet.enumerate_nc(name)
    assert decomp.census_table(ambient) is decomp.census_table(name)
    key = canonical_tuple(PIN_TUPLES[name][0])
    assert decomp.count_bruteforce(ambient, key) == \
        replay(name).pinned_values[key]
    assert all(isinstance(walked, TypeLabel) for walked in ncposet._WALKED)


def test_rank_deficient_keys_expand_by_one_factor():
    # the special-deficient rows and a relation's N(D4) share this sum
    table = replay("E8").final_table
    for key in (L("D4"), L("A1"), L("A2", "A3"), L("A4", "A4")):
        row = decomp.one_extra_factor(key, 8)
        assert len(set(row)) == len(row)
        assert all(tuple_rank(var) == 8 for var in row)
        assert sum(map(table.lookup, row)) == table.lookup(key) > 0
    assert decomp.one_extra_factor(L("A4", "A4"), 8) == (L("A4", "A4"),)


def test_relations_are_checked_before_the_pins(monkeypatch):
    # N(D4) = 325 holds at the pinned point only: as a relation row it is
    # no consequence of the unpinned system, so it stays a point check
    monkeypatch.setitem(RELATIONS, "E8", (("N(D4) = 325", {"D4": 1}, 325),))
    monkeypatch.setattr(linsys, "replay", linsys.replay.__wrapped__)
    checks = linsys.replay("E8").congruence_assertions
    assert checks[0] == ("N(D4) = 325", False)
    assert checks[1] == ("N(D4) = 325", True)


def test_D7_equations_imply_3X_plus_Y():
    # why D7 replays to dimension 1, below the paper's 2
    x, y = (canonical_tuple(t) for t in PIN_TUPLES["D7"])
    ech = echelon(generate_equations("D7"))
    assert ech.implies({x: 3, y: 1}, 36)
    assert not ech.implies({x: 3, y: 1}, 37)
    assert not ech.implies({x: 1}, 6) and not ech.implies({y: 1}, 18)
    assert ech.dimension == 1


def _break_relation(monkeypatch, name="E8"):
    """Shift the right side of ``name``'s first relation by one, and
    replay uncached; returns the relation's description."""
    (desc, terms, rhs), *rest = RELATIONS[name]
    monkeypatch.setitem(RELATIONS, name, ((desc, terms, rhs + 1), *rest))
    monkeypatch.setattr(linsys, "replay", linsys.replay.__wrapped__)
    return desc


def test_broken_relation_fails_its_check(monkeypatch):
    desc = _break_relation(monkeypatch)
    report = linsys.replay("E8")
    checks = dict(report.congruence_assertions)
    assert checks[desc] is False
    assert [d for d, ok in checks.items() if not ok] == [desc]
    assert not report.all_assertions_pass
    # the table does not move: the relations are never rows of the system
    assert report.final_table.entries == replay("E8").final_table.entries


def test_broken_relation_fails_the_cli(monkeypatch, capsys):
    desc = _break_relation(monkeypatch)
    assert main(["linsys", "replay", "E8"]) == 1
    out = capsys.readouterr().out
    assert "  %s = FAIL\n" % desc in out
    assert out.count("FAIL") == 1
    assert main(["verify", "e8"]) == 1
    out = capsys.readouterr().out
    assert "  E8: %s = FAIL\n" % desc in out
    assert "passed: 18\n" in out and "failed: 1\n" in out
