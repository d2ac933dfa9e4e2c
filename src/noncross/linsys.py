"""Linear-system derivation of full-rank decomposition tables.

For a target irreducible ambient, the full-rank decomposition numbers
are treated as unknowns and constrained by several exactly-known
equation families:

* splitting relations that express a mixed tuple through the tables of
  lower-rank ambients;
* coefficient comparison, in both m and z, between the closed-form zeta
  polynomial of NC^m and its decomposition-number expansion;
* the directly-known special values (the ambient itself, the reflection
  count, the maximal-chain count, and the corank-1 two-factor values);
* zero equations for tuples containing a type that is not realizable as
  a sub-diagram of the ambient's Dynkin diagram.

Every row has integer coefficients: the zeta rows, ``ncposet.zeta_rows``,
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
the same echelon, and classical arithmetic consistency relations are
then asserted on the pinned solution.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .decomp import (DecompositionTable, all_labels_of_rank,
                     all_tuples_of_rank, canonical_tuple, count_bruteforce,
                     lower_table, special_values, tuple_rank)
from .exact import LinearSystem, echelon, solve
from .ncposet import enumerate_nc, zeta_rows
from .rootsystem import subdiagram_types
from .typelabel import label

# solution-space dimensions expected for the under-determined ambients,
# and the tuples whose brute-force values pin the remaining freedom
EXPECTED_DIMENSION = {"E6": 1, "D6": 2, "D7": 2, "E7": 2, "E8": 4, "D8": 5}

PIN_TUPLES = {
    "E6": (("A1^3", "A1^3"),),
    "D6": (("A1^3", "A1^3"), ("A1^4", "A1^2")),
    "D7": (("A1^4", "A1^3"), ("A1^2*A2", "A1^3")),
    "E7": (("A1^4", "A1^3"), ("A1^2*A2", "A1^3")),
    "E8": (("A5", "A1*A2"), ("D5", "A1*A2"), ("A4", "A1*A3"), ("D4", "A4")),
    "D8": (("A3", "D5"), ("A2^2", "D4"), ("A4", "A4"), ("A4", "D4"),
           ("D4", "D4")),
}

# equation families, named by the prefix of each row's provenance
ROW_FAMILIES = ("forbidden", "special", "split", "zeta", "oracle-pin")


class ReplayError(RuntimeError):
    """A replay stage failed; the message starts with the stage's name."""


class ReplayReport:
    """Outcome of one linear-system replay."""

    def __init__(self, ambient, equation_count, variable_count, dimension,
                 pinned_values, congruence_assertions, final_table,
                 flags=None, rows_by_family=None):
        self.ambient = ambient
        self.equation_count = equation_count
        self.variable_count = variable_count
        self.dimension = dimension
        self.pinned_values = pinned_values      # canonical tuple -> int
        self.congruence_assertions = congruence_assertions  # (desc, ok)
        self.final_table = final_table
        self.flags = [] if flags is None else flags
        # family -> rows
        self.rows_by_family = {} if rows_by_family is None else rows_by_family

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
        s = tuple_rank(key)
        if not key:
            continue
        if s == n:
            system.add_row({key: 1}, value, "special:%s" % ",".join(map(str, key)))
        else:
            coeffs = {}
            for extra in all_labels_of_rank(n - s):
                var = canonical_tuple(key + (extra,))
                coeffs[var] = coeffs.get(var, 0) + 1
            system.add_row(coeffs, value,
                           "special-deficient:%s" % ",".join(map(str, key)))

    # splitting relations: a suffix of the tuple is contracted through
    # the tables of all lower-rank ambients of matching rank; the primed
    # tuple has the rank of each, so its counts are table entries
    for split_rank in range(1, n):
        labels = all_labels_of_rank(split_rank)
        tables = [lower_table(t).entries for t in labels]
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
    # coefficient comparison in m and z between the closed-form zeta
    # polynomial of NC^m and its decomposition-number expansion
    system.rows.sort(key=_leading_column, reverse=True)
    for (i, j), form, rhs in zeta_rows(ambient)[0]:
        system.add_row(form, rhs, "zeta:m^%d z^%d" % (i, j))
    return system


def _leading_column(row):
    """The lowest column of a system row, where its pivot would fall."""
    return min(row[0])


def row_family(provenance):
    """The equation family of a row, from its provenance prefix."""
    return next(f for f in ROW_FAMILIES if provenance.startswith(f))


def check_system_against_table(system, table):
    """Provenances of all equations violated by a complete table; the
    exact-oracle table must satisfy every generated equation."""
    failures = []
    for row, rhs, provenance in system.rows:
        total = sum(c * table.entries.get(system.variables[i], 0)
                    for i, c in row.items())
        if total != rhs:
            failures.append(provenance)
    return failures


@lru_cache(maxsize=None)
def replay(name):
    """Solve the equation system for one ambient, pin the remaining
    freedom with brute-force oracle values, and assert the classical
    arithmetic consistency relations on the result.  An ambient with
    pins is enumerated first: the pins need NC(name), and the lower
    tables of the split rows then read their censuses off its
    intervals."""
    ambient = label(name)
    n = ambient.rank
    flags = []
    if name in PIN_TUPLES:
        enumerate_nc(name)
    system = generate_equations(name)
    ech = echelon(system)
    dimension = ech.dimension

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

    pins = {}
    pin_keys = [canonical_tuple(tuple(label(x) for x in tup))
                for tup in PIN_TUPLES.get(name, ())]
    for key in pin_keys[:dimension]:
        pins[key] = count_bruteforce(name, key)
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
    assertions = _consistency_assertions(name, table)
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


def _consistency_assertions(name, table):
    """The published arithmetic cross-checks on a solved table."""

    def v(*labels):
        return table.lookup(tuple(label(x) for x in labels))

    checks = []

    def rel(desc, lhs, rhs):
        checks.append((desc, Fraction(lhs) == Fraction(rhs)))

    if name == "E6":
        x = v("A1^3", "A1^3")
        rel("100 N(A3,A3) = 2592 + 9X", 100 * v("A3", "A3"), 2592 + 9 * x)
        rel("5 N(A1*A2,A1^3) = 192 - 6X",
            5 * v("A1*A2", "A1^3"), 192 - 6 * x)
    elif name == "D6":
        x = v("A1^3", "A1^3")
        y = v("A1^4", "A1^2")
        rel("N(A1^2*A2,A1^2) = 25 - 27X/40 - 3Y",
            v("A1^2*A2", "A1^2"), 25 - Fraction(27, 40) * x - 3 * y)
        rel("N(A3,A3) = 20 + 9X/100",
            v("A3", "A3"), 20 + Fraction(9, 100) * x)
        checks.append(("5 divides N(A1^4,A1^2)", y % 5 == 0))
    elif name == "D7":
        x = v("A1^4", "A1^3")
        y = v("A1^2*A2", "A1^3")
        rel("N(A1^4,A1*A2) = 6(36-X)/5",
            v("A1^4", "A1*A2"), Fraction(6, 5) * (36 - x))
        rel("N(A1^2*A2,A3) = 3(Y+162)/10",
            v("A1^2*A2", "A3"), Fraction(3, 10) * (y + 162))
        rel("N(A1*A3,A1^3) = 84 - Y/3",
            v("A1*A3", "A1^3"), 84 - Fraction(y, 3))
        rel("N(A1*A2^2,A2) = 14(36-3X-Y)/15",
            v("A1*A2^2", "A2"), Fraction(14, 15) * (36 - 3 * x - y))
        rel("N(A1*A2^2,A1^2) = 7(3X+Y-36)/5",
            v("A1*A2^2", "A1^2"), Fraction(7, 5) * (3 * x + y - 36))
    elif name == "E7":
        x = v("A1^4", "A1^3")
        y = v("A1^2*A2", "A1^3")
        rel("N(A5,A2) = 1272/25 - 58X/75 - 58Y/225",
            v("A5", "A2"),
            Fraction(1272, 25) - Fraction(58, 75) * x - Fraction(58, 225) * y)
        rel("N(A4,A3) = 594/25 + 18X/25 + 11Y/25",
            v("A4", "A3"),
            Fraction(594, 25) + Fraction(18, 25) * x + Fraction(11, 25) * y)
        rel("N(D4,A3) = 126/5 - 2X/5 - 7Y/30",
            v("D4", "A3"),
            Fraction(126, 5) - Fraction(2, 5) * x - Fraction(7, 30) * y)
        rel("N(A1^3*A2,A1^2) = 423/5 - 14X/5 - 14Y/15",
            v("A1^3*A2", "A1^2"),
            Fraction(423, 5) - Fraction(14, 5) * x - Fraction(14, 15) * y)
        rel("N(A1^3*A2,A2) = -192/5 + 28X/15 + 28Y/45",
            v("A1^3*A2", "A2"),
            Fraction(-192, 5) + Fraction(28, 15) * x + Fraction(28, 45) * y)
        checks.append(("X - 8Y = 2 (mod 25)", (x - 8 * y) % 25 == 2))
        checks.append(("18X + 11Y = 6 (mod 25)", (18 * x + 11 * y) % 25 == 6))
        checks.append(("Y = 0 (mod 6)", y % 6 == 0))
        checks.append(("3 divides X", x % 3 == 0))
        checks.append(("X = 29 - 10k, Y = 30k - 6 with k = 2",
                       x == 29 - 10 * 2 and y == 30 * 2 - 6))
    elif name == "E8":
        x = v("A5", "A1*A2")
        y = v("D5", "A1*A2")
        a = v("A4", "A1*A3")
        b = v("D4", "A4")
        rel("N(A5,A3) = (750-X)/4", v("A5", "A3"), Fraction(750 - x, 4))
        rel("N(D5,A3) = (375-Y)/4", v("D5", "A3"), Fraction(375 - y, 4))
        rel("N(A5,A1^3) = 5(750-X)/6",
            v("A5", "A1^3"), Fraction(5, 6) * (750 - x))
        rel("N(D5,A1^3) = 5(375-Y)/6",
            v("D5", "A1^3"), Fraction(5, 6) * (375 - y))
        rel("N(A2*A3,A1*A2) = 3(4125-8X+16Y)/25",
            v("A2*A3", "A1*A2"), Fraction(3, 25) * (4125 - 8 * x + 16 * y))
        rel("N(A2*A3,A1^3) = (1125+4X-8Y)/5",
            v("A2*A3", "A1^3"), Fraction(1125 + 4 * x - 8 * y, 5))
        rel("N(A1*D4,A3) = Y - 150", v("A1*D4", "A3"), y - 150)
        rel("N(A1^2*A3,A1^3) = (49875-56X-138Y)/5",
            v("A1^2*A3", "A1^3"), Fraction(49875 - 56 * x - 138 * y, 5))
        rel("N(A1*A4,A1*A2) = 2(2295-3X-4Y)",
            v("A1*A4", "A1*A2"), 2 * (2295 - 3 * x - 4 * y))
        rel("N(A1^3*A2,A1^3) = (112X+226Y-86625)/15",
            v("A1^3*A2", "A1^3"),
            Fraction(112 * x + 226 * y - 86625, 15))
        total_d4 = v("D4")
        rel("N(D4) = 27263/168 - A/40 + B/40 + 283X/1500 + 7957Y/15750",
            total_d4,
            Fraction(27263, 168) - Fraction(a, 40) + Fraction(b, 40)
            + Fraction(283, 1500) * x + Fraction(7957, 15750) * y)
        rel("N(D4) = 325", total_d4, 325)
        checks.append(("X = 6 (mod 12)", x % 12 == 6))
        checks.append(("Y = 3 (mod 12)", y % 12 == 3))
        checks.append(("X = 2Y (mod 25)", (x - 2 * y) % 25 == 0))
        k = (y - 3) // 12
        checks.append(("Y = 12k + 3, X = 300j + 24k + 6 with j = 0, k = 16",
                       y == 12 * k + 3 and k == 16 and x == 24 * k + 6))
    return checks
