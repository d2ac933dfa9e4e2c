"""The canonicalizing table lookup, kept as the reference for
``decomp.DecompositionTable.lookup``.

Every key is canonicalized before anything is read: text labels are
parsed, empty factors dropped and the labels sorted.  Above the ambient
rank the value is 0, the empty key counts 1, a full-rank key reads the
table's ``entries`` and a rank-deficient key reads an index of the
one-extra-factor sums built here from ``entries`` alone.  Nothing here
probes a key as given or reads the index ``decomp`` builds.
"""

from noncross.decomp import canonical_tuple, tuple_rank


class CanonicalLookup:
    """The lookups of one table, each key canonicalized first."""

    def __init__(self, table):
        self.ambient = table.ambient
        self.entries = table.entries
        self._deficient = None

    def lookup(self, types):
        key = canonical_tuple(types)
        s = tuple_rank(key)
        n = self.ambient.rank
        if s > n:
            return 0
        if not key:
            return 1
        if s == n:
            return self.entries.get(key, 0)
        if self._deficient is None:
            self._deficient = self._deficient_index()
        return self._deficient.get(key, 0)

    def _deficient_index(self):
        """N(key) for every rank-deficient key one factor short of a
        full-rank entry: the entry's value, added once per distinct
        factor removed."""
        n = self.ambient.rank
        index = {}
        for key, value in self.entries.items():
            if tuple_rank(key) != n:
                continue
            for i, t in enumerate(key):
                if i and key[i - 1] == t:
                    continue
                rest = key[:i] + key[i + 1:]
                index[rest] = index.get(rest, 0) + value
        return index
