"""Canonical labels for finite simply-laced (ADE) Cartan-Killing types.

A *type label* names a finite simply-laced root system up to isomorphism:
a multiset of irreducible components, each one of A_k (k >= 1), D_k
(k >= 4), E6, E7 or E8.  Labels are written in a compact text form such
as ``A2``, ``A1^2*A3`` or ``A1*D5``; the empty label (rank 0) is ``0``.

Rank-2 and rank-3 "D" components are synonyms for A1^2 and A3 and are
collapsed on construction, so every abstract type has exactly one
canonical label and one canonical string.

``ResourceGuardError`` lives here too, though ``ncposet`` raises it:
the CLI loads this module anyway, so it can map the error to its exit
code without importing the layers.  So does the degree table of the
supported ambients (``SUPPORTED_AMBIENTS``, ``degrees``,
``degree_pairs``): the closed forms and the CLI's check of an ambient
read it without compiling ``rootsystem``.
"""

from __future__ import annotations

import re
from functools import lru_cache, total_ordering, wraps

_COMPONENT_RE = re.compile(r"^([ADE])(\d+)(?:\^(\d+))?$")

# the largest rank a parsed label may have: far above any ambient, and
# chi* of A1^3000 still takes seconds, but a power such as A1^99999999999
# is refused before its list of components is built
MAX_LABEL_RANK = 10_000

# a rank or power of more significant digits is refused before ``int``
# reads it, as reading and printing an int take time quadratic in its
# length: Python's default bound on int-text conversion, which an --m
# argument meets as well
_MAX_DIGITS = 4300

# component ordering: by rank first, then family letter
def _component_key(comp):
    family, rank = comp
    return (rank, family)


# the one instance of each label, by canonical component tuple
_INTERNED = {}


@total_ordering
class TypeLabel:
    """Immutable canonical label of a simply-laced type.

    Internally a sorted tuple of ``(family, rank)`` component pairs.
    The rank and the sort key ``(rank, components)`` are computed once,
    on construction.  Labels are interned: the constructor returns the
    one instance of each canonical component tuple (pickle and copy
    return it too), so two labels are equal exactly when they are the
    same object, and equality and hashing are by identity.
    """

    __slots__ = ("components", "_str", "rank", "_key", "_irreducibles")

    def __new__(cls, components=()):
        normalized = []
        for family, rank in components:
            normalized.extend(cls._normalize_component(str(family).upper(),
                                                       int(rank)))
        components = tuple(sorted(normalized, key=_component_key))
        self = _INTERNED.get(components)
        if self is not None:
            return self
        self = object.__new__(cls)
        rank = sum(r for _, r in components)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_key", (rank, components))
        object.__setattr__(self, "_str", self._render())
        object.__setattr__(self, "_irreducibles", None)
        return _INTERNED.setdefault(components, self)

    def __reduce__(self):
        return (TypeLabel, (self.components,))

    @staticmethod
    def _normalize_component(family, rank):
        if family == "A":
            if rank < 1:
                raise ValueError("A components need rank >= 1, got %d" % rank)
            return [("A", rank)]
        if family == "D":
            # collapse the degenerate low-rank synonyms
            if rank == 2:
                return [("A", 1), ("A", 1)]
            if rank == 3:
                return [("A", 3)]
            if rank < 2:
                raise ValueError("D components need rank >= 2, got %d" % rank)
            return [("D", rank)]
        if family == "E":
            if rank not in (6, 7, 8):
                raise ValueError("E components exist only in ranks 6,7,8")
            return [("E", rank)]
        raise ValueError("unknown family %r" % family)

    def __setattr__(self, name, value):
        raise AttributeError("TypeLabel is immutable")

    @classmethod
    def parse(cls, text):
        """Parse a label string such as ``"A1^2*A3"`` or ``"0"``; blank
        text is refused."""
        text = text.strip()
        if text == "0":
            return cls(())
        if not text:
            raise ValueError("blank type label; write 0 for the empty type")
        parts = []
        for token in text.split("*"):
            match = _COMPONENT_RE.match(token.strip())
            if match is None:
                raise ValueError("bad type component %r in %r" % (token, text))
            family, rank, power = match.groups()
            # leading zeros dropped, so that int() reads the same digits
            # whatever the process's limit on int-text conversion
            rank, power = (digits.lstrip("0") or "0"
                           for digits in (rank, power or "1"))
            if max(len(rank), len(power)) > _MAX_DIGITS:
                raise ValueError("a rank or power has more than %d digits"
                                 % _MAX_DIGITS)
            # validated before the power applies, so that E5^0 is refused
            # like E5 instead of vanishing into the empty type
            cls._normalize_component(family, int(rank))
            parts.append((family, int(rank), int(power)))
        total = sum(rank * power for _, rank, power in parts)
        if total > MAX_LABEL_RANK:
            raise ValueError("rank %d exceeds %d" % (total, MAX_LABEL_RANK))
        return cls([(family, rank) for family, rank, power in parts
                    for _ in range(power)])

    def _render(self):
        if not self.components:
            return "0"
        parts = []
        i = 0
        comps = self.components
        while i < len(comps):
            j = i
            while j < len(comps) and comps[j] == comps[i]:
                j += 1
            family, rank = comps[i]
            count = j - i
            parts.append("%s%d" % (family, rank) if count == 1
                         else "%s%d^%d" % (family, rank, count))
            i = j
        return "*".join(parts)

    @property
    def is_irreducible(self):
        return len(self.components) == 1

    @property
    def is_empty(self):
        return not self.components

    def irreducibles(self):
        """The components as a tuple of irreducible TypeLabels, taken from
        the intern table on the first call and kept on the label."""
        if self._irreducibles is None:
            object.__setattr__(self, "_irreducibles", tuple(
                _INTERNED.get((c,)) or TypeLabel([c])
                for c in self.components))
        return self._irreducibles

    def __mul__(self, other):
        """Disjoint union of types."""
        return TypeLabel(self.components + other.components)

    def __lt__(self, other):
        return self._key < other._key

    def __str__(self):
        return self._str

    def __repr__(self):
        return "TypeLabel.parse(%r)" % self._str


EMPTY_TYPE = TypeLabel(())


class ResourceGuardError(RuntimeError):
    """A computation was refused because it exceeds a size guard."""


@lru_cache(maxsize=4096)
def label(text):
    """Shorthand for :meth:`TypeLabel.parse`, the one coercion to a
    label: a ``TypeLabel`` is returned unchanged.  Successful parses are
    memoized (labels are interned and immutable); text that does not
    parse raises ``ValueError`` on every call."""
    return text if isinstance(text, TypeLabel) else TypeLabel.parse(text)


def per_type(fn):
    """Cache ``fn`` on the label of its first argument: every spelling of
    a type (a label, its text, padded text, a synonym such as ``D3``) is
    one call and one cache entry, and ``fn`` receives the label; the
    others, each with a default, are keyed by value however passed.  Keeps
    ``cache_info`` and ``cache_clear``; ``__wrapped__`` is ``fn`` past
    the cache, its first argument coerced the same way."""
    cached = lru_cache(maxsize=None)(fn)
    names = fn.__code__.co_varnames[1:fn.__code__.co_argcount]
    defaults = dict(zip(names[::-1], (fn.__defaults__ or ())[::-1]))

    @wraps(fn)
    def keyed(t, *args, **kwargs):
        for name in names[len(args):]:
            args += (kwargs.pop(name, defaults[name]),)
        return cached(label(t), *args, **kwargs)

    keyed.cache_info, keyed.cache_clear = cached.cache_info, cached.cache_clear
    keyed.__wrapped__ = lambda t, *args, **kwargs: fn(label(t), *args,
                                                      **kwargs)
    return keyed


SUPPORTED_AMBIENTS = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8",
)

_DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "D": lambda n: tuple(range(2, 2 * n - 1, 2)) + (n,),
    "E": lambda n: {6: (2, 5, 6, 8, 9, 12),
                    7: (2, 6, 8, 10, 12, 14, 18),
                    8: (2, 8, 12, 14, 18, 20, 24, 30)}[n],
}


@per_type
def degrees(t):
    """The fundamental degrees of an ambient such as ``"E8"``, ascending;
    the largest is the Coxeter number h.

    Raises ``ValueError`` for text that is no type label and for labels
    outside the supported ambient set, naming the canonical label
    (``degrees("D2")`` names ``A1^2``).
    """
    if str(t) not in SUPPORTED_AMBIENTS:
        raise ValueError("unsupported ambient type %r (supported: %s)"
                         % (str(t), ", ".join(SUPPORTED_AMBIENTS)))
    family, n = t.components[0]
    return tuple(sorted(_DEGREES[family](n)))


def degree_pairs(t):
    """(h, d) for each degree d of each irreducible component of the
    label t, h the component's Coxeter number: the factors of the
    closed-form products over degrees."""
    for comp in t.irreducibles():
        degs = degrees(comp)
        for d in degs:
            yield degs[-1], d
