"""The eager walk of NC, kept as the reference for the per-orbit store of
``ncposet.enumerate_nc``.

It walks down from the Coxeter element one c-orbit at a time, as the
package does, but builds one ``Element`` per element, with its
complement mask rotated along its orbit, and fills ``elements``,
``levels``, ``by_type`` and ``orbits`` as it goes.  It registers nothing
in the package's caches.  ``interval_scan`` is the element-by-element
interval census; ``eager_walk`` keeps one walk per ambient,
``bit_positions`` inverts the mask layout's ``order``, ``roots_mask``
maps positive-root indices to a mask through it, and ``mask_type`` types
a mask as the walk types a head.
"""

from collections import Counter, namedtuple
from functools import lru_cache

from noncross.ncposet import (_descent_masks, _root_tables,
                              classify_simple_roots, mask_layout)
from noncross.rootsystem import build_root_system

# one element u of NC: its moved-root mask, rank, type and the mask of
# its right complement u^{-1} c
Element = namedtuple("Element", "key rank typ comp")


class EagerWalk:
    """The element objects of NC, built during the walk."""

    def __init__(self, name):
        rs = build_root_system(name)
        zero = _descent_masks(name)
        layout = mask_layout(name)
        orbit_of = layout.orbit
        top = (1 << len(zero)) - 1
        self.elements, self.by_type, self.orbits = {}, {}, []
        self.levels = [[] for _ in range(rs.n + 1)]
        orbits = [[top]]
        for rank in range(rs.n, -1, -1):
            seen, below = set(), []
            for orbit in orbits:
                head = orbit[0]
                comp, rest = top, head
                while rest:
                    low = rest & -rest
                    rest ^= low
                    bit = low.bit_length() - 1
                    comp &= zero[bit]
                    child = head & zero[bit]
                    if child not in seen:
                        found = orbit_of(child)
                        seen.update(found)
                        below.append(found)
                typ = mask_type(name, head)
                typed = []
                for mask, image in zip(orbit, orbit_of(comp)):
                    el = self.elements[mask] = Element(mask, rank, typ, image)
                    typed.append(el)
                self.orbits.append((typed[0], len(typed)))
                self.levels[rank] += typed
                self.by_type.setdefault(typ, []).extend(typed)
            orbits = below
        self.identity, self.top = self.levels[0][0], self.levels[rs.n][0]

    def rank_sizes(self):
        return [len(level) for level in self.levels]

    def interval_scan(self, q):
        """A ``Counter`` of (type(u), type(u^{-1} q)) over the elements
        u <= q, levels up to the rank of q, highest first."""
        return Counter((u.typ, self.elements[u.comp & q.key].typ)
                       for level in reversed(self.levels[:q.rank + 1])
                       for u in level if u.key & q.key == u.key)


@lru_cache(maxsize=None)
def eager_walk(name):
    """The ``EagerWalk`` of the named ambient, built once per process."""
    return EagerWalk(name)


def bit_positions(layout):
    """The mask bit of each positive root under a ``MaskLayout``: the
    inverse of ``layout.order``."""
    return tuple(sorted(range(len(layout.order)),
                        key=layout.order.__getitem__))


def roots_mask(layout, roots):
    """The mask of a set of positive-root indices under a ``MaskLayout``."""
    pos = bit_positions(layout)
    return sum(1 << pos[a] for a in roots)


def mask_type(name, mask):
    """The type of the sub-root system of the moved-root mask of the
    named ambient: its bits with no root partner in it are its simple
    roots (``ncposet._root_tables``), classified by
    ``ncposet.classify_simple_roots``."""
    partners, linked = _root_tables(name)
    return classify_simple_roots(linked, [
        k for k in range(mask.bit_length())
        if mask >> k & 1 and not partners[k] & mask])
