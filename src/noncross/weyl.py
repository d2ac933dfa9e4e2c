"""Weyl group elements as exact integer matrices in the simple-root basis.

The reflection length (absolute length) of an element is the codimension
of its fixed space, computed as the exact integer rank of ``w - I``.
The absolute order ``u <=_T w`` holds when lengths add up along the
factorization ``w = u * (u^{-1} w)``.

All linear algebra here is exact: ranks and kernels come from the
fraction-free elimination in ``exact.bareiss`` over Python integers,
never floating point.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exact import int_kernel, int_rank
from .rootsystem import build_root_system, classify_diagram, DynkinDiagram


# ---------------------------------------------------------------------------
# group elements


class GroupElement:
    """An element of the Weyl group: an integer matrix, hashable.

    ``mat`` acts on root coordinates (columns are images of the simple
    roots).  The matrix is stored as a read-only int64 numpy array.
    """

    __slots__ = ("mat", "_key", "_inv", "_rs")

    def __init__(self, rs, mat):
        mat = np.asarray(mat, dtype=np.int64)
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_key", mat.tobytes())
        object.__setattr__(self, "_inv", None)
        object.__setattr__(self, "_rs", rs)

    def __setattr__(self, name, value):
        if name == "_inv":
            object.__setattr__(self, name, value)
            return
        raise AttributeError("GroupElement is immutable")

    @property
    def key(self):
        return self._key

    def __mul__(self, other):
        return GroupElement(self._rs, self.mat @ other.mat)

    def inverse(self):
        """Exact inverse, using invariance of the Cartan form.

        ``w`` preserves the Cartan matrix C, so ``w^{-1} = C^{-1} w^T C``;
        the result is integral and is computed with the exact adjugate.
        """
        if self._inv is None:
            rs = self._rs
            raw = rs.cartan_adjugate @ self.mat.T @ rs.cartan
            q, r = np.divmod(raw, rs.cartan_det)
            if r.any():
                raise AssertionError("inverse is not integral")
            object.__setattr__(self, "_inv", GroupElement(rs, q))
        return self._inv

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "GroupElement(%s, %s)" % (self._rs.typ, self.mat.tolist())


def identity(rs):
    return GroupElement(rs, np.eye(rs.n, dtype=np.int64))


@lru_cache(maxsize=None)
def _reflection_data(name):
    """Stacked reflection matrices and root matrix for an ambient."""
    rs = build_root_system(name)
    n = rs.n
    roots = np.array(rs.positive_roots, dtype=np.int64)          # (K, n)
    pairings = roots @ rs.cartan                                  # (K, n): <., alpha>
    mats = np.stack([np.eye(n, dtype=np.int64) - np.outer(r, p)
                     for r, p in zip(roots, pairings)])
    for m in mats:
        m.flags.writeable = False
    roots.flags.writeable = False
    return roots, mats


def reflection_matrices(rs):
    """Stack of reflection matrices, one per positive root, shape (K,n,n)."""
    return _reflection_data(str(rs.typ))[1]


def reflection(rs, root_index):
    """Reflection in the ``root_index``-th positive root."""
    return GroupElement(rs, reflection_matrices(rs)[root_index])


def absolute_length(rs, w):
    """Reflection length = rank(w - I), exactly."""
    mat = w.mat if isinstance(w, GroupElement) else np.asarray(w)
    delta = mat - np.eye(rs.n, dtype=np.int64)
    return int_rank(delta.tolist())


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
    n = rs.n
    result = np.eye(n, dtype=np.int64)
    _, mats = _reflection_data(str(rs.typ))
    for block in rs.bipartition:
        for i in block:
            result = result @ mats[i]
    return GroupElement(rs, result)


@lru_cache(maxsize=None)
def coxeter_root_permutation(name):
    """The permutation pi of the positive-root indices by the bipartite
    Coxeter element c: pi[b] is the index of the positive one of c.b and
    -c.b.  Conjugation by c maps the reflection t_b to t_{pi[b]}, and an
    element moving the roots S to one moving pi(S)."""
    rs = build_root_system(name)
    index = {r: i for i, r in enumerate(rs.positive_roots)}
    images = np.array(rs.positive_roots, dtype=np.int64) \
        @ bipartite_coxeter(rs).mat.T
    pi = tuple(index[r] if r in index else index[tuple(-x for x in r)]
               for r in map(tuple, images.tolist()))
    if sorted(pi) != list(range(len(pi))):
        raise AssertionError("c does not permute the positive roots")
    return pi


def moved_space_kernel(rs, w):
    """Integer basis of the fixed space ker(w - I)."""
    mat = w.mat if isinstance(w, GroupElement) else np.asarray(w)
    delta = (mat - np.eye(rs.n, dtype=np.int64)).tolist()
    return int_kernel(delta)


def moved_positive_roots(rs, w):
    """Indices of positive roots lying in the moved space im(w - I).

    Since w is orthogonal for the Cartan form, the moved space is the
    orthogonal complement of the fixed space, so membership is the exact
    integer test  K^T C alpha = 0  with K a fixed-space basis.
    """
    kernel = moved_space_kernel(rs, w)
    roots, _ = _reflection_data(str(rs.typ))
    if not kernel:
        return frozenset(range(len(roots)))
    # int64 is exact while kernel entries stay below 2^40 (two roots pair
    # to at most 2 in absolute value and n <= 8); else big ints
    small = max(abs(x) for row in kernel for x in row) < 1 << 40
    dtype = np.int64 if small else object
    proj = np.array(kernel, dtype=dtype) @ (rs.cartan @ roots.T).astype(dtype)
    return frozenset(np.flatnonzero(~np.any(proj != 0, axis=0)).tolist())


@lru_cache(maxsize=None)
def _root_tables(name):
    """Root-sum index table and root Gram matrix of an ambient.

    ``sums[i, j]`` is the index of root_i + root_j among the positive
    roots, or -1 when the sum is not a root; ``gram[i, j]`` is the Cartan
    pairing of root_i and root_j.
    """
    rs = build_root_system(name)
    roots, _ = _reflection_data(name)
    index = {r: i for i, r in enumerate(rs.positive_roots)}
    sums = np.array([[index.get(tuple(a + b for a, b in zip(r, s)), -1)
                      for s in rs.positive_roots] for r in rs.positive_roots],
                    dtype=np.intp)
    gram = roots @ rs.cartan @ roots.T
    for table in (sums, gram):
        table.flags.writeable = False
    return sums, gram


@lru_cache(maxsize=None)
def _classify_edges(k, edges):
    return classify_diagram(DynkinDiagram.from_edges(k, edges))


def classify_moved_roots(rs, moved):
    """Type of the sub-root system formed by the positive roots with the
    given ascending indices.

    Its simple roots are the members that are not the sum of two members
    (ambient positivity); their pairings give the Dynkin diagram.
    """
    sums, gram = _root_tables(str(rs.typ))
    moved = np.asarray(moved, dtype=np.intp)
    # one spare slot at the end absorbs the -1 entries (sums that are not roots)
    decomposable = np.zeros(len(sums) + 1, dtype=bool)
    decomposable[sums[moved][:, moved]] = True
    simples = moved[~decomposable[moved]]
    i, j = np.nonzero(gram[simples][:, simples])
    upper = i < j
    return _classify_edges(len(simples),
                           tuple(zip(i[upper].tolist(), j[upper].tolist())))


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
        tc = GroupElement(rs, mats[start] @ c.mat)
        orbits.append({
            "size": len(orbit),
            "representative": start,
            "product_type": classify_parabolic_type(rs, tc, coxeter=c, check=False),
        })
    return orbits


def enumerate_group(rs, max_order=200_000):
    """BFS enumeration of the whole Weyl group by all reflections.

    Returns ``{element_key: distance}`` where distance is the reflection
    length in the Cayley graph (the oracle for ``absolute_length``).
    Guarded by ``max_order``.
    """
    if rs.group_order > max_order:
        raise ValueError("group order %d exceeds guard %d"
                         % (rs.group_order, max_order))
    _, mats = _reflection_data(str(rs.typ))
    eye = np.eye(rs.n, dtype=np.int64)
    dist = {eye.tobytes(): 0}
    frontier = [eye]
    d = 0
    while frontier:
        d += 1
        new = []
        for w in frontier:
            for t in mats:
                v = t @ w
                k = v.tobytes()
                if k not in dist:
                    dist[k] = d
                    new.append(v)
        frontier = new
    return dist
