"""Weyl group elements as exact integer matrices in the simple-root basis.

The reflection length (absolute length) of an element is the codimension
of its fixed space, computed as the exact integer rank of ``w - I``.
The absolute order ``u <=_T w`` holds when lengths add up along the
factorization ``w = u * (u^{-1} w)``.

All linear algebra here is exact: matrices are tuples of row tuples of
Python ints, so no product can overflow, and ranks and kernels come
from the fraction-free elimination in ``exact.bareiss``, never floating
point.
"""

from __future__ import annotations

from functools import lru_cache

from .exact import int_kernel, int_rank
from .rootsystem import build_root_system, classify_diagram, DynkinDiagram


def _matmul(a, b):
    """Product of two integer matrices held as tuples of row tuples."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def _eye(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _minus_eye(mat):
    """The list of rows of mat - I."""
    return [[x - (i == j) for j, x in enumerate(row)]
            for i, row in enumerate(mat)]


# ---------------------------------------------------------------------------
# group elements


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
            raw = _matmul(_matmul(rs.cartan_adjugate, tuple(zip(*self.mat))),
                          rs.cartan)
            det = rs.cartan_det
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


@lru_cache(maxsize=None)
def _reflection_data(name):
    """The positive roots and their reflection matrices for an ambient:
    t_r = I - r p^T, with p the Cartan pairing row of the root r."""
    rs = build_root_system(name)
    roots = rs.positive_roots
    mats = tuple(tuple(tuple(int(i == j) - x * y for j, y in enumerate(p))
                       for i, x in enumerate(r))
                 for r, p in zip(roots, _matmul(roots, rs.cartan)))
    return roots, mats


def reflection_matrices(rs):
    """The reflection matrices, one per positive root."""
    return _reflection_data(str(rs.typ))[1]


def reflection(rs, root_index):
    """Reflection in the ``root_index``-th positive root."""
    return GroupElement(rs, reflection_matrices(rs)[root_index])


def absolute_length(rs, w):
    """Reflection length = rank(w - I), exactly."""
    return int_rank(_minus_eye(w.mat if isinstance(w, GroupElement) else w))


def le_absolute(rs, u, w):
    """Absolute order:  u <=_T w  iff  l(u) + l(u^{-1} w) = l(w)."""
    lu = absolute_length(rs, u)
    lw = absolute_length(rs, w)
    if lu > lw:
        return False
    return absolute_length(rs, u.inverse() * w) == lw - lu


def bipartite_coxeter(rs):
    """The bipartite Coxeter element: all simple reflections of the first
    color block, then all of the second, ascending node index in each."""
    result = _eye(rs.n)
    _, mats = _reflection_data(str(rs.typ))
    for block in rs.bipartition:
        for i in block:
            result = _matmul(result, mats[i])
    return GroupElement(rs, result)


@lru_cache(maxsize=None)
def coxeter_root_permutation(name):
    """The permutation pi of the positive-root indices by the bipartite
    Coxeter element c: pi[b] is the index of the positive one of c.b and
    -c.b.  Conjugation by c maps the reflection t_b to t_{pi[b]}, and an
    element moving the roots S to one moving pi(S)."""
    rs = build_root_system(name)
    index = {r: i for i, r in enumerate(rs.positive_roots)}
    c = bipartite_coxeter(rs).mat
    images = _matmul(rs.positive_roots, tuple(zip(*c)))
    pi = tuple(index[r] if r in index else index[tuple(-x for x in r)]
               for r in images)
    if sorted(pi) != list(range(len(pi))):
        raise AssertionError("c does not permute the positive roots")
    return pi


def moved_space_kernel(rs, w):
    """Integer basis of the fixed space ker(w - I)."""
    return int_kernel(_minus_eye(w.mat if isinstance(w, GroupElement) else w))


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


@lru_cache(maxsize=None)
def _root_tables(name):
    """Root partners and root pairings of an ambient.

    ``partners[k]`` is the mask of the positive roots a for which
    root_k - root_a is a positive root too; ``gram[i][j]`` is the Cartan
    pairing of root_i and root_j.
    """
    rs = build_root_system(name)
    roots = rs.positive_roots
    index = {r: i for i, r in enumerate(roots)}
    partners = [0] * len(roots)
    for a, r in enumerate(roots):
        for b in range(a + 1, len(roots)):
            k = index.get(tuple(x + y for x, y in zip(r, roots[b])))
            if k is not None:
                partners[k] |= 1 << a | 1 << b
    gram = _matmul(_matmul(roots, rs.cartan), tuple(zip(*roots)))
    return tuple(partners), gram


@lru_cache(maxsize=None)
def _classify_edges(k, edges):
    return classify_diagram(DynkinDiagram.from_edges(k, edges))


def classify_moved_roots(rs, moved):
    """Type of the sub-root system formed by the positive roots with the
    given ascending indices, the positive roots lying in a subspace (the
    moved set of a group element).

    Its simple roots are the members that are not the sum of two members
    (ambient positivity); their pairings give the Dynkin diagram.  When
    root_k and root_a lie in the subspace, so does root_k - root_a, so
    root_k is such a sum exactly when one of its partners is a member.
    """
    partners, gram = _root_tables(str(rs.typ))
    inside = sum(1 << a for a in moved)
    simples = [k for k in moved if not partners[k] & inside]
    edges = tuple((i, j) for i, a in enumerate(simples)
                  for j in range(i + 1, len(simples)) if gram[a][simples[j]])
    return _classify_edges(len(simples), edges)


def classify_parabolic_type(rs, w, coxeter=None, check=True):
    """Cartan-Killing type of the parabolic fixing Fix(w), for w <=_T c.

    The moved space of w intersects the roots in a sub-root-system whose
    simple system is extracted by ambient positivity; the induced diagram
    is classified.  The label's rank always equals the reflection length.

    Raises ``ValueError`` when ``check`` is set and w is not below the
    (bipartite) Coxeter element.
    """
    if check:
        c = coxeter if coxeter is not None else bipartite_coxeter(rs)
        if not le_absolute(rs, w, c):
            raise ValueError("element is not below the Coxeter element")
    typ = classify_moved_roots(rs, sorted(moved_positive_roots(rs, w)))
    length = absolute_length(rs, w)
    if typ.rank != length:
        raise AssertionError("classified rank %d != reflection length %d"
                             % (typ.rank, length))
    return typ


def reflection_orbits(rs):
    """Orbits of the reflections under conjugation by the bipartite
    Coxeter element: the cycles of ``coxeter_root_permutation``.

    Returns a list of dicts with keys ``size``, ``representative`` (a
    positive-root index), and ``product_type`` (the type of t*c).  Orbit
    sizes are checked to be h or h/2.
    """
    c = bipartite_coxeter(rs)
    pi = coxeter_root_permutation(str(rs.typ))
    _, mats = _reflection_data(str(rs.typ))
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
            "product_type": classify_parabolic_type(rs, tc, coxeter=c, check=False),
        })
    return orbits


def enumerate_group(rs, max_order=200_000):
    """BFS enumeration of the whole Weyl group by all reflections.

    Returns ``{matrix: distance}``, keyed by each element's matrix (its
    ``GroupElement.key``), where distance is the reflection
    length in the Cayley graph (the oracle for ``absolute_length``).
    Guarded by ``max_order``.
    """
    if rs.group_order > max_order:
        raise ValueError("group order %d exceeds guard %d"
                         % (rs.group_order, max_order))
    _, mats = _reflection_data(str(rs.typ))
    eye = _eye(rs.n)
    dist = {eye: 0}
    frontier = [eye]
    d = 0
    while frontier:
        d += 1
        new = []
        for w in frontier:
            for t in mats:
                v = _matmul(t, w)
                if v not in dist:
                    dist[v] = d
                    new.append(v)
        frontier = new
    return dist
