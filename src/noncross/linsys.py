"""Linear-system derivation of full-rank decomposition tables.

For a target irreducible ambient, the full-rank decomposition numbers
are treated as unknowns and constrained by several exactly-known
equation families:

* splitting relations that express a mixed tuple through the tables of
  lower-rank ambients;
* coefficient comparison, per binom(m, k) z^j, between the closed-form
  zeta polynomial of NC^m and its decomposition-number expansion;
* the directly-known special values (the ambient itself, the reflection
  count, the maximal-chain count, and the corank-1 two-factor values);
* zero equations for tuples containing a type that is not realizable as
  a sub-diagram of the ambient's Dynkin diagram.

Every row has integer coefficients: the zeta rows, ``closedform.zeta_rows``,
are cleared of the forms' denominator.  The sparse rows (forbidden,
special, split) come first, sorted by descending leading column (the
lowest column of the row, where ``exact.Echelon`` puts its pivot), and
the dense zeta rows last.  In that order a row's leading column is at
or left of every pivot placed before it, and a pivot row holds no
column left of its pivot; so when the leading column is not a pivot
yet, it becomes one that no earlier row holds, and no pivot row has to
be cleared again.  The reduced row echelon form is unique, so the order
changes neither the pivots nor the solution space, only the work.

The resulting system is eliminated exactly, once.  For the large
ambients it is underdetermined by a small dimension; the remaining
freedom is pinned with a handful of brute-force counts, added as rows to
the same echelon.  The paper's published relations between table
entries and its free parameters (``RELATIONS``) are checked before the
pins, each as a consequence of the unpinned system: its row clears to
0 = 0 against the echelon.  Only the congruences and values that hold
at the pinned point alone are checked on the pinned solution.
"""

from __future__ import annotations

from .closedform import zeta_rows
from .decomp import (DecompositionTable, all_labels_of_rank,
                     all_tuples_of_rank, canonical_tuple, count_bruteforce,
                     full_table, one_extra_factor, special_values,
                     tuple_rank)
from .exact import LinearSystem, echelon, solve
from .ncposet import enumerate_nc
from .rootsystem import subdiagram_types
from .typelabel import label, per_type

# the tuples whose brute-force values pin the freedom of the
# under-determined ambients, one count per free parameter
PIN_TUPLES = {
    "E6": (("A1^3", "A1^3"),),
    "D6": (("A1^3", "A1^3"), ("A1^4", "A1^2")),
    "D7": (("A1^4", "A1^3"), ("A1^2*A2", "A1^3")),
    "E7": (("A1^4", "A1^3"), ("A1^2*A2", "A1^3")),
    "E8": (("A5", "A1*A2"), ("D5", "A1*A2"), ("A4", "A1*A3"), ("D4", "A4")),
    "D8": (("A3", "D5"), ("A2^2", "D4"), ("A4", "A4"), ("A4", "D4"),
           ("D4", "D4")),
}

# the solution-space dimension expected of each under-determined ambient
EXPECTED_DIMENSION = {name: len(pins) for name, pins in PIN_TUPLES.items()}

# the paper's relations between table entries and its free parameters,
# each as printed and as the integer row sum(c * N(key)) = rhs; a key is
# label text, and X, Y, A and B are the entries of PIN_TUPLES[name] in order
RELATIONS = {
    "E6": (
        ("100 N(A3,A3) = 2592 + 9X", {"A3,A3": 100, "X": -9}, 2592),
        ("5 N(A1*A2,A1^3) = 192 - 6X", {"A1*A2,A1^3": 5, "X": 6}, 192),
    ),
    "D6": (
        ("N(A1^2*A2,A1^2) = 25 - 27X/40 - 3Y",
         {"A1^2*A2,A1^2": 40, "X": 27, "Y": 120}, 1000),
        ("N(A3,A3) = 20 + 9X/100", {"A3,A3": 100, "X": -9}, 2000),
    ),
    "D7": (
        ("N(A1^4,A1*A2) = 6(36-X)/5", {"A1^4,A1*A2": 5, "X": 6}, 216),
        ("N(A1^2*A2,A3) = 3(Y+162)/10", {"A1^2*A2,A3": 10, "Y": -3}, 486),
        ("N(A1*A3,A1^3) = 84 - Y/3", {"A1*A3,A1^3": 3, "Y": 1}, 252),
        ("N(A1*A2^2,A2) = 14(36-3X-Y)/15",
         {"A1*A2^2,A2": 15, "X": 42, "Y": 14}, 504),
        ("N(A1*A2^2,A1^2) = 7(3X+Y-36)/5",
         {"A1*A2^2,A1^2": 5, "X": -21, "Y": -7}, -252),
    ),
    "E7": (
        ("N(A5,A2) = 1272/25 - 58X/75 - 58Y/225",
         {"A5,A2": 225, "X": 174, "Y": 58}, 11448),
        ("N(A4,A3) = 594/25 + 18X/25 + 11Y/25",
         {"A4,A3": 25, "X": -18, "Y": -11}, 594),
        ("N(D4,A3) = 126/5 - 2X/5 - 7Y/30",
         {"D4,A3": 30, "X": 12, "Y": 7}, 756),
        ("N(A1^3*A2,A1^2) = 423/5 - 14X/5 - 14Y/15",
         {"A1^3*A2,A1^2": 15, "X": 42, "Y": 14}, 1269),
        ("N(A1^3*A2,A2) = -192/5 + 28X/15 + 28Y/45",
         {"A1^3*A2,A2": 45, "X": -84, "Y": -28}, -1728),
    ),
    "E8": (
        ("N(A5,A3) = (750-X)/4", {"A5,A3": 4, "X": 1}, 750),
        ("N(D5,A3) = (375-Y)/4", {"D5,A3": 4, "Y": 1}, 375),
        ("N(A5,A1^3) = 5(750-X)/6", {"A5,A1^3": 6, "X": 5}, 3750),
        ("N(D5,A1^3) = 5(375-Y)/6", {"D5,A1^3": 6, "Y": 5}, 1875),
        ("N(A2*A3,A1*A2) = 3(4125-8X+16Y)/25",
         {"A2*A3,A1*A2": 25, "X": 24, "Y": -48}, 12375),
        ("N(A2*A3,A1^3) = (1125+4X-8Y)/5",
         {"A2*A3,A1^3": 5, "X": -4, "Y": 8}, 1125),
        ("N(A1*D4,A3) = Y - 150", {"A1*D4,A3": 1, "Y": -1}, -150),
        ("N(A1^2*A3,A1^3) = (49875-56X-138Y)/5",
         {"A1^2*A3,A1^3": 5, "X": 56, "Y": 138}, 49875),
        ("N(A1*A4,A1*A2) = 2(2295-3X-4Y)",
         {"A1*A4,A1*A2": 1, "X": 6, "Y": 8}, 4590),
        ("N(A1^3*A2,A1^3) = (112X+226Y-86625)/15",
         {"A1^3*A2,A1^3": 15, "X": -112, "Y": -226}, -86625),
        ("N(D4) = 27263/168 - A/40 + B/40 + 283X/1500 + 7957Y/15750",
         {"D4": 63000, "A": 1575, "B": -1575, "X": -11886, "Y": -31828},
         10223625),
    ),
}

# equation families, named by the prefix of each row's provenance
ROW_FAMILIES = ("forbidden", "special", "split", "zeta", "oracle-pin")


class ReplayError(RuntimeError):
    """A replay stage failed; the message starts with the stage's name."""


class ReplayReport:
    """Outcome of one linear-system replay."""

    def __init__(self, ambient, equation_count, variable_count, dimension,
                 pinned_values, congruence_assertions, final_table,
                 flags, rows_by_family):
        self.ambient = ambient
        self.equation_count = equation_count
        self.variable_count = variable_count
        self.dimension = dimension
        self.pinned_values = pinned_values      # canonical tuple -> int
        self.congruence_assertions = congruence_assertions  # (desc, ok)
        self.final_table = final_table
        self.flags = flags
        self.rows_by_family = rows_by_family    # family -> rows

    @property
    def all_assertions_pass(self):
        return all(ok for _, ok in self.congruence_assertions)


def _names(tuples):
    """The provenance text of each tuple: its labels, comma-separated."""
    return {tup: ",".join(map(str, tup)) for tup in tuples}


def generate_equations(name):
    """The full equation system for one irreducible ambient.

    Unknowns are all canonical full-rank tuples over arbitrary labels;
    tuples containing non-sub-diagram types get explicit zero rows, so
    the variable universe is uniform across equation families.
    """
    ambient = label(name)
    n = ambient.rank
    variables = all_tuples_of_rank(n)
    system = LinearSystem(variables=variables)
    allowed = subdiagram_types(name)

    # tuples containing a type that is not a sub-diagram type vanish
    for var in variables:
        if any(t not in allowed for t in var):
            system.add_row({var: 1}, 0, "forbidden:%s" % (",".join(map(str, var))))

    # special values; rank-deficient ones are expanded by one extra factor
    for key, value in special_values(name).items():
        if not key:
            continue
        family = "special" if tuple_rank(key) == n else "special-deficient"
        system.add_row(dict.fromkeys(one_extra_factor(key, n), 1), value,
                       "%s:%s" % (family, ",".join(map(str, key))))

    # splitting relations: a suffix of the tuple is contracted through
    # the tables of all lower-rank ambients of matching rank; the primed
    # tuple has the rank of each, so its counts are table entries
    for split_rank in range(1, n):
        labels = all_labels_of_rank(split_rank)
        tables = [full_table(t).entries for t in labels]
        unprimed_names = _names(all_tuples_of_rank(n - split_rank))
        # unprimed tuple -> the variable it makes with each label
        joined = {unprimed: [canonical_tuple(unprimed + (t,)) for t in labels]
                  for unprimed in unprimed_names}
        for primed, primed_name in _names(
                all_tuples_of_rank(split_rank)).items():
            counts = [entries.get(primed, 0) for entries in tables]
            for unprimed, unprimed_name in unprimed_names.items():
                coeffs = {canonical_tuple(unprimed + primed): 1}
                for var, count in zip(joined[unprimed], counts):
                    if count:
                        coeffs[var] = coeffs.get(var, 0) - count
                if len(coeffs) == 1 and not next(iter(coeffs.values())):
                    continue
                system.add_row(coeffs, 0, "split:%s|%s"
                               % (unprimed_name, primed_name))

    # sparse rows by descending leading column, then the dense zeta rows:
    # coefficients of binom(m, k) z^j in the closed-form zeta polynomial
    # of NC^m and in its decomposition-number expansion
    system.rows.sort(key=_leading_column, reverse=True)
    for (k, j), form, rhs in zeta_rows(ambient)[0]:
        system.add_row(form, rhs, "zeta:binom(m,%d) z^%d" % (k, j))
    return system


def relation_rows(name):
    """The published relations of one ambient (a label or its text) as
    rows over its variables: (description, coeffs, rhs) per entry of
    ``RELATIONS`` under the ambient's text."""
    ambient = label(name)
    name, n = str(ambient), ambient.rank
    params = dict(zip("XYAB", PIN_TUPLES.get(name, ())))
    for desc, terms, rhs in RELATIONS.get(name, ()):
        coeffs = {}
        for term, c in terms.items():
            key = canonical_tuple(params.get(term) or term.split(","))
            for var in one_extra_factor(key, n):
                coeffs[var] = coeffs.get(var, 0) + c
        yield desc, coeffs, rhs


def _leading_column(row):
    """The lowest column of a system row, where its pivot would fall."""
    return min(row[0])


def row_family(provenance):
    """The equation family of a row, from its provenance prefix."""
    return next(f for f in ROW_FAMILIES if provenance.startswith(f))


def check_system_against_table(system, table):
    """Provenances of all equations violated by a complete table; the
    exact-oracle table must satisfy every generated equation."""
    entries, variables = table.entries, system.variables
    return [provenance for row, rhs, provenance in system.rows
            if rhs != sum(c * entries.get(variables[i], 0)
                          for i, c in row.items())]


@per_type
def replay(ambient):
    """Solve the equation system for one ambient, check the published
    relations as consequences of it, pin the remaining freedom with
    brute-force oracle values, and check the published congruences on
    the result; one report per label, the pins, relations and expected
    dimension read under its text.  An ambient with pins is enumerated
    first: the pins need NC(ambient), and the lower tables of the split
    rows then read their censuses off its intervals."""
    name = str(ambient)
    flags = []
    if name in PIN_TUPLES:
        enumerate_nc(ambient)
    system = generate_equations(ambient)
    ech = echelon(system)
    dimension = ech.dimension
    relations = [(desc, ech.implies(coeffs, rhs))
                 for desc, coeffs, rhs in relation_rows(ambient)]

    expected = EXPECTED_DIMENSION.get(name, 0)
    if dimension > expected:
        free = [system.variables[c] for c in ech.free_columns]
        raise ReplayError(
            "elimination: solution space has dimension %d, expected %d; "
            "free: %s" % (dimension, expected,
                          ", ".join("N(%s)" % ",".join(map(str, v))
                                    for v in free)))
    if dimension < expected:
        flags.append("dimension %d below the reported %d "
                     "(extra independent relations)" % (dimension, expected))

    pins = {key: count_bruteforce(ambient, key) for key in map(
        canonical_tuple, PIN_TUPLES.get(name, ())[:dimension])}
    for key, value in pins.items():        # inconsistency -> pins outside
        ech.add_row({key: 1}, value, "oracle-pin:%s" % ",".join(map(str, key)))
    if pins and ech.dimension != 0:
        raise ReplayError("pins: oracle pins leave dimension %d"
                          % ech.dimension)
    space = solve(ech)

    values = space.as_dict()
    entries = {}
    for key, value in values.items():
        if value.denominator != 1 or value < 0:
            raise ReplayError("back-substitution: entry N(%s) = %s is not "
                              "a nonnegative integer"
                              % (",".join(map(str, key)), value))
        if value:
            entries[key] = int(value)
    table = DecompositionTable(ambient, entries, provenance="linear-system")
    assertions = relations + _point_checks(name, table)
    rows_by_family = dict.fromkeys(ROW_FAMILIES, 0)
    for _, _, provenance in system.rows:
        rows_by_family[row_family(provenance)] += 1
    rows_by_family["oracle-pin"] = len(pins)
    return ReplayReport(
        ambient=ambient,
        equation_count=system.num_rows,
        variable_count=system.num_vars,
        dimension=dimension,
        pinned_values=pins,
        congruence_assertions=assertions,
        final_table=table,
        flags=flags,
        rows_by_family=rows_by_family,
    )


def _point_checks(name, table):
    """The published checks that hold at the pinned point only: the
    congruences and values of the parameters X and Y (the first two
    entries of ``PIN_TUPLES[name]``) and, for E8, N(D4) = 325."""
    if name not in ("D6", "E7", "E8"):
        return []
    x, y = (table.lookup(tup) for tup in PIN_TUPLES[name][:2])
    if name == "D6":
        return [("5 divides N(A1^4,A1^2)", y % 5 == 0)]
    if name == "E7":
        return [("X - 8Y = 2 (mod 25)", (x - 8 * y) % 25 == 2),
                ("18X + 11Y = 6 (mod 25)", (18 * x + 11 * y) % 25 == 6),
                ("Y = 0 (mod 6)", y % 6 == 0),
                ("3 divides X", x % 3 == 0),
                ("X = 29 - 10k, Y = 30k - 6 with k = 2",
                 x == 29 - 10 * 2 and y == 30 * 2 - 6)]
    k = (y - 3) // 12
    return [("N(D4) = 325", table.lookup(("D4",)) == 325),
            ("X = 6 (mod 12)", x % 12 == 6),
            ("Y = 3 (mod 12)", y % 12 == 3),
            ("X = 2Y (mod 25)", (x - 2 * y) % 25 == 0),
            ("Y = 12k + 3, X = 300j + 24k + 6 with j = 0, k = 16",
             y == 12 * k + 3 and k == 16 and x == 24 * k + 6)]
