"""Weyl group matrices in the simple-root basis: the matrix layer of the
``length`` suite and of the test oracles.

The reflections, the bipartite Coxeter element c and the whole group
(for small ambients) are exact integer matrices acting on root
coordinates.  The reflection length (absolute length) of a matrix is
the codimension of its fixed space, the kernel of ``w - I``; its
Cayley-graph distance in ``enumerate_group`` is the independent check.
The walk of NC(W) multiplies no matrix: ``ncposet`` reads its tables
off the word of c, so it loads neither this module nor ``exact``.

All linear algebra here is exact: matrices are tuples of row tuples of
Python ints, so no product can overflow, and kernels come from
``exact.int_kernel``, an integer reduced echelon, never floating point.
"""

from __future__ import annotations

from .exact import int_kernel
from .rootsystem import build_root_system
from .typelabel import per_type

MAX_GROUP_ORDER = 200_000          # the guard of enumerate_group


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


@per_type
def _reflection_data(name):
    """The positive roots and their reflection matrices for an ambient:
    t_r = I - r p^T, with p the Cartan pairing row of the root r."""
    rs = build_root_system(name)
    roots = rs.positive_roots
    mats = tuple(tuple(tuple(int(i == j) - x * y for j, y in enumerate(p))
                       for i, x in enumerate(r))
                 for r, p in zip(roots, _matmul(roots, rs.cartan)))
    return roots, mats


def absolute_length(rs, w):
    """Reflection length of the matrix w: n - dim ker(w - I), exactly."""
    return rs.n - len(int_kernel(_minus_eye(w)))


def bipartite_coxeter(rs):
    """The bipartite Coxeter element, the product of the simple
    reflections of ``RootSystem.word`` (the first color block, then the
    second, ascending node index in each: the word ``ncposet`` reads its
    tables from).  Returns its matrix, each reflection the matrix
    t_i = I - e_i C_i, C_i the row i of the Cartan matrix."""
    eye = result = _eye(rs.n)
    for i in rs.word:
        row = tuple(x - y for x, y in zip(eye[i], rs.cartan[i]))
        result = _matmul(result, eye[:i] + (row,) + eye[i + 1:])
    return result


def enumerate_group(rs):
    """BFS enumeration of the whole Weyl group by all reflections.

    Returns ``{matrix: distance}``, keyed by each element's matrix, where
    distance is the reflection length in the Cayley graph (the oracle for
    ``absolute_length``).  Guarded by ``MAX_GROUP_ORDER``.
    """
    if rs.group_order > MAX_GROUP_ORDER:
        raise ValueError("group order %d exceeds guard %d"
                         % (rs.group_order, MAX_GROUP_ORDER))
    _, mats = _reflection_data(rs.typ)
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
