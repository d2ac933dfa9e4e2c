"""The matrix-element layer that the moved-root masks replaced, kept as
the reference for them.

A Weyl group element is an exact integer matrix in the simple-root
basis.  Its moved positive roots are read off an integer basis of its
fixed space ker(w - I), and its parabolic type is the classification of
that moved set.  The absolute order ``u <=_T w`` holds when reflection
lengths add up along ``w = u * (u^{-1} w)``.  ``reflection_orbits`` types
each orbit's t*c from the matrix of t*c.  ``coxeter_root_permutation``
is the matrix route to pi that ``ncposet``'s Coxeter word replaced: every
positive root times the matrix of c.

The diagram classifier that the adjacency-list one replaced is kept
here too (``classify_diagram``, ``induced``): it asks the frozenset edge
set of a ``DynkinDiagram`` about each node pair, in each call.
``DynkinDiagram.pairs`` gives the same diagram as the edge list that
``rootsystem.classify_edge_list`` takes.

``root_tables`` is ``ncposet._root_tables`` over the positive-root
indices instead of the mask bits, with each root sum built as a tuple of
coefficients and looked up among the roots.
"""

from functools import lru_cache

import sympy

from noncross.exact import int_kernel
from noncross.ncposet import mask_layout
from noncross.rootsystem import build_root_system
from noncross.typelabel import TypeLabel
from noncross.weyl import (_eye, _matmul, _minus_eye, _reflection_data,
                           absolute_length, bipartite_coxeter)
from walk_oracle import mask_type, roots_mask


@lru_cache(maxsize=None)
def _cartan_adjugate(name):
    """The adjugate of the Cartan matrix and its determinant, from sympy."""
    cartan = sympy.Matrix(build_root_system(name).cartan)
    adj = tuple(tuple(map(int, row)) for row in cartan.adjugate().tolist())
    return adj, int(cartan.det())


class GroupElement:
    """An element of the Weyl group: an integer matrix, hashable.

    ``mat`` acts on root coordinates (columns are images of the simple
    roots).  The matrix is stored as a tuple of row tuples of Python
    ints, which is also its ``key``.
    """

    __slots__ = ("mat", "_inv", "_rs")

    def __init__(self, rs, mat):
        object.__setattr__(self, "mat", tuple(tuple(map(int, row))
                                              for row in mat))
        object.__setattr__(self, "_inv", None)
        object.__setattr__(self, "_rs", rs)

    def __setattr__(self, name, value):
        if name == "_inv":
            object.__setattr__(self, name, value)
            return
        raise AttributeError("GroupElement is immutable")

    @property
    def key(self):
        return self.mat

    def __mul__(self, other):
        return GroupElement(self._rs, _matmul(self.mat, other.mat))

    def inverse(self):
        """Exact inverse, using invariance of the Cartan form.

        ``w`` preserves the Cartan matrix C, so ``w^{-1} = C^{-1} w^T C``;
        the result is integral and is computed with the exact adjugate.
        """
        if self._inv is None:
            rs = self._rs
            adj, det = _cartan_adjugate(str(rs.typ))
            raw = _matmul(_matmul(adj, tuple(zip(*self.mat))), rs.cartan)
            if any(x % det for row in raw for x in row):
                raise AssertionError("inverse is not integral")
            object.__setattr__(self, "_inv", GroupElement(
                rs, [[x // det for x in row] for row in raw]))
        return self._inv

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return "GroupElement(%s, %s)" % (self._rs.typ,
                                         [list(row) for row in self.mat])


def identity(rs):
    return GroupElement(rs, _eye(rs.n))


def reflection_matrices(rs):
    """The reflection matrices, one per positive root."""
    return _reflection_data(str(rs.typ))[1]


def reflection(rs, root_index):
    """Reflection in the ``root_index``-th positive root."""
    return GroupElement(rs, reflection_matrices(rs)[root_index])


def coxeter_element(rs):
    """The bipartite Coxeter element as a group element."""
    return GroupElement(rs, bipartite_coxeter(rs))


@lru_cache(maxsize=None)
def coxeter_root_permutation(name):
    """The permutation pi of the positive-root indices by the bipartite
    Coxeter element, from its matrix: pi[b] is the index of the positive
    one of c.b and -c.b, each image the product of the root with the
    matrix of c."""
    rs = build_root_system(name)
    index = {r: i for i, r in enumerate(rs.positive_roots)}
    images = _matmul(rs.positive_roots, tuple(zip(*bipartite_coxeter(rs))))
    return tuple(index[r] if r in index else index[tuple(-x for x in r)]
                 for r in images)


def le_absolute(rs, u, w):
    """Absolute order:  u <=_T w  iff  l(u) + l(u^{-1} w) = l(w)."""
    lu = absolute_length(rs, u.mat)
    lw = absolute_length(rs, w.mat)
    if lu > lw:
        return False
    return absolute_length(rs, (u.inverse() * w).mat) == lw - lu


def moved_space_kernel(rs, w):
    """Integer basis of the fixed space ker(w - I)."""
    return int_kernel(_minus_eye(w.mat))


def moved_positive_roots(rs, w):
    """Indices of positive roots lying in the moved space im(w - I).

    Since w is orthogonal for the Cartan form, the moved space is the
    orthogonal complement of the fixed space, so membership is the exact
    integer test  K^T C alpha = 0  with K a fixed-space basis.
    """
    forms = _matmul(moved_space_kernel(rs, w), rs.cartan)
    return frozenset(i for i, r in enumerate(rs.positive_roots)
                     if not any(sum(x * y for x, y in zip(f, r))
                                for f in forms))


def classify_parabolic_type(rs, w, coxeter=None, check=True):
    """Cartan-Killing type of the parabolic fixing Fix(w), for w <=_T c.

    The moved space of w intersects the roots in a sub-root-system whose
    simple system is extracted by ambient positivity; the induced diagram
    is classified.  The label's rank always equals the reflection length.

    Raises ``ValueError`` when ``check`` is set and w is not below the
    (bipartite) Coxeter element.
    """
    if check:
        c = coxeter if coxeter is not None else coxeter_element(rs)
        if not le_absolute(rs, w, c):
            raise ValueError("element is not below the Coxeter element")
    typ = mask_type(rs.typ, roots_mask(mask_layout(rs.typ),
                                       moved_positive_roots(rs, w)))
    length = absolute_length(rs, w.mat)
    if typ.rank != length:
        raise AssertionError("classified rank %d != reflection length %d"
                             % (typ.rank, length))
    return typ


def reflection_orbits(rs):
    """Orbits of the reflections under conjugation by the bipartite
    Coxeter element, as ``ncposet.reflection_orbits`` returns them, with
    each ``product_type`` classified from the matrix of t*c."""
    c = coxeter_element(rs)
    pi = coxeter_root_permutation(str(rs.typ))
    mats = reflection_matrices(rs)
    h = rs.coxeter_number
    seen = set()
    orbits = []
    for start in range(len(pi)):
        if start in seen:
            continue
        orbit = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = pi[cur]
        if len(orbit) not in (h, h // 2):
            raise AssertionError("orbit size %d not in {h, h/2}" % len(orbit))
        tc = GroupElement(rs, _matmul(mats[start], c.mat))
        orbits.append({
            "size": len(orbit),
            "representative": start,
            "product_type": classify_parabolic_type(rs, tc, check=False),
        })
    return orbits


class DynkinDiagram:
    """A simply-laced diagram on nodes 0..n-1 given by its edge set;
    equal and hashed by both."""

    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        self.n = n
        self.edges = edges

    def __eq__(self, other):
        if type(other) is not DynkinDiagram:
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    @classmethod
    def from_edges(cls, n, edges):
        return cls(n, frozenset(frozenset(e) for e in edges))

    def adjacent(self, i, j):
        return frozenset((i, j)) in self.edges

    def neighbors(self, i):
        return [j for j in range(self.n) if j != i and self.adjacent(i, j)]

    def pairs(self):
        """The edges as ascending (a, b) pairs, in ascending order."""
        return sorted(tuple(sorted(e)) for e in self.edges)


def components(diagram):
    """Connected components of a diagram as sorted node tuples."""
    seen = set()
    comps = []
    for start in range(diagram.n):
        if start in seen:
            continue
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp.append(v)
            stack.extend(w for w in diagram.neighbors(v) if w not in seen)
        comps.append(tuple(sorted(comp)))
    return comps


def induced(diagram, nodes):
    """The subdiagram on the given nodes, relabelled 0..k-1 in order."""
    nodes = sorted(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    edges = [(index[a], index[b]) for a, b in
             ((min(e), max(e)) for e in map(sorted, diagram.edges))
             if a in index and b in index]
    return DynkinDiagram.from_edges(len(nodes), edges)


def classify_diagram(diagram):
    """Cartan-Killing type of a simply-laced diagram, component by
    component; ``ValueError`` as ``rootsystem.classify_edge_list``."""
    return TypeLabel([_classify_connected(induced(diagram, comp))
                      for comp in components(diagram)])


def _classify_connected(diagram):
    n = diagram.n
    degrees = [len(diagram.neighbors(i)) for i in range(n)]
    if len(diagram.edges) != n - 1:
        raise ValueError("diagram component contains a cycle")
    branch = [i for i in range(n) if degrees[i] >= 3]
    if not branch:
        return ("A", n)
    if len(branch) > 1 or degrees[branch[0]] > 3:
        raise ValueError("diagram component is not of ADE shape")
    b = branch[0]
    arms = []
    for start in diagram.neighbors(b):
        length, prev, cur = 1, b, start
        while True:
            nxt = [v for v in diagram.neighbors(cur) if v != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return ("D", arms[2] + 3)
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return ("E", arms[2] + 4)
    raise ValueError("diagram component is not of ADE shape: arms %r" % (arms,))


def root_tables(name):
    """``ncposet._root_tables`` over the positive-root indices, one
    coefficient tuple per pair of roots."""
    roots = build_root_system(name).positive_roots
    index = {r: i for i, r in enumerate(roots)}
    partners = [0] * len(roots)
    linked = [0] * len(roots)
    for a, r in enumerate(roots):
        for b in range(a + 1, len(roots)):
            k = index.get(tuple(x + y for x, y in zip(r, roots[b])))
            if k is not None:
                partners[k] |= 1 << a | 1 << b
                linked[a] |= 1 << b | 1 << k
                linked[b] |= 1 << a | 1 << k
                linked[k] |= 1 << a | 1 << b
    return tuple(partners), tuple(linked)
