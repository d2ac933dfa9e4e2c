"""Construction of the finite simply-laced (ADE) root systems.

Everything downstream works in the basis of simple roots: a root is an
integer coordinate vector, the invariant bilinear form is given by the
Cartan matrix (all roots have squared length 2), and Weyl group elements
are integer matrices acting on these coordinates.

Supported ambient types: A_n (1 <= n <= 8), D_n (4 <= n <= 8), E6, E7, E8.

The closed forms of the package are products over the fundamental
degrees d_i, with the Coxeter number h the largest of them: the
Fuss-Catalan number prod (mh + d_i)/d_i, the zeta polynomial and the
Moebius number.  They read the degree table, which lives in
``typelabel`` (``SUPPORTED_AMBIENTS``, ``degrees``, ``degree_pairs``),
and neither build a root system nor compile this module; the first two
names are bound here too.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .typelabel import SUPPORTED_AMBIENTS, TypeLabel, degrees, per_type


def _edges(family, n):
    """Edge list of the Dynkin diagram, nodes 0..n-1.

    A_n is a path; D_n is a path 0..n-3 with both n-2 and n-1 attached
    to node n-3; E_n is a path 0,2,3,..,n-1 with node 1 attached to
    node 3 (the standard exceptional shape).
    """
    if family == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "D":
        return [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    if family == "E":
        path = [(0, 2)] + [(i, i + 1) for i in range(2, n - 1)]
        return path + [(1, 3)]
    raise ValueError(family)


def classify_edge_list(nodes, edges):
    """Cartan-Killing type of the simply-laced diagram on the ascending
    ``nodes`` with the given edges, distinct pairs of nodes.

    Raises ``ValueError`` when some component is not of A/D/E shape
    (a cycle, a vertex of degree >= 4, two branch vertices, or an
    exceptional-shape branch profile outside E6/E7/E8).

    Adjacency lists are built once from the edges.  Components are found
    by a depth-first search from each unseen node in ascending order (a
    component with a cycle or a bad shape raises in that order).  A
    connected component of n nodes is a tree when its degrees sum to
    2(n - 1); a tree with no branch vertex is a path (A); else it must
    have one branch vertex of degree 3, whose three arms, walked out to
    their ends, give D or E.
    """
    adj = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    components = []
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        components.append(_classify_connected(comp, adj))
    return TypeLabel(components)


def _classify_connected(comp, adj):
    """The (family, rank) of one connected component, its nodes ``comp``
    and ``adj`` the adjacency lists of the whole diagram."""
    n = len(comp)
    degrees = [len(adj[v]) for v in comp]
    if sum(degrees) != 2 * (n - 1):
        raise ValueError("diagram component contains a cycle")
    if max(degrees) < 3:
        return ("A", n)
    branch = [v for v, d in zip(comp, degrees) if d >= 3]
    if len(branch) > 1 or len(adj[branch[0]]) > 3:
        raise ValueError("diagram component is not of ADE shape")
    b = branch[0]
    arms = []
    for start in adj[b]:
        length, prev, cur = 1, b, start
        while len(adj[cur]) == 2:
            left, right = adj[cur]
            prev, cur = cur, right if left == prev else left
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return ("D", arms[2] + 3)
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return ("E", arms[2] + 4)
    raise ValueError("diagram component is not of ADE shape: arms %r" % (arms,))


class RootSystem:
    """An ADE root system in the simple-root basis.

    Attributes
    ----------
    typ : TypeLabel            irreducible ambient type
    n : int                    rank
    cartan : tuple             n x n Cartan matrix (= Gram matrix of simples),
                               a tuple of row tuples of ints
    positive_roots : tuple     coordinate tuples, simple roots first
    edges : tuple              (a, b) node pairs of the Dynkin diagram
    bipartition : tuple        (block_a, block_b) node 2-coloring
    degrees : tuple            fundamental degrees, ascending

    ``build_root_system`` makes one per type, so identity is equality.
    """

    __slots__ = ("typ", "n", "cartan", "positive_roots", "edges",
                 "bipartition", "degrees")

    def __init__(self, typ, n, cartan, positive_roots, edges, bipartition,
                 degrees):
        self.typ = typ
        self.n = n
        self.cartan = cartan
        self.positive_roots = positive_roots
        self.edges = edges
        self.bipartition = bipartition
        self.degrees = degrees

    def __repr__(self):
        return "RootSystem(%s)" % self.typ

    @property
    def coxeter_number(self):
        return max(self.degrees)

    @property
    def group_order(self):
        return prod(self.degrees)

    @property
    def num_positive_roots(self):
        return len(self.positive_roots)


def _positive_roots(cartan, n):
    """Close the simple roots under simple reflections, keep positives."""
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for v in frontier:
            pair = [sum(v[k] * cartan[k][i] for k in range(n)) for i in range(n)]
            for i in range(n):
                w = list(v)
                w[i] -= pair[i]
                w = tuple(w)
                if all(c >= 0 for c in w) and w not in roots:
                    roots.add(w)
                    new.append(w)
        frontier = new
    # simple roots first, the rest sorted by height then lexicographically
    rest = sorted(roots - set(simples), key=lambda r: (sum(r), r))
    return tuple(simples + rest)


def _bipartition(n, edges):
    """2-color the diagram on nodes 0..n-1 by BFS from node 0 (ties by
    ascending index)."""
    neighbors = [[] for _ in range(n)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    color = {}
    for start in range(n):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop(0)
            for w in sorted(neighbors[v]):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
    block_a = tuple(i for i in range(n) if color[i] == 0)
    block_b = tuple(i for i in range(n) if color[i] == 1)
    return (block_a, block_b)


@per_type
def build_root_system(t):
    """Build the root system for an ambient label such as ``"E8"``.

    Raises ``ValueError`` for labels outside the supported ambient set.
    """
    degs = degrees(t)
    family, n = t.components[0]
    edges = tuple(_edges(family, n))
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        cartan[a][b] = cartan[b][a] = -1
    cartan = tuple(map(tuple, cartan))
    positives = _positive_roots(cartan, n)
    rs = RootSystem(
        typ=t, n=n, cartan=cartan, positive_roots=positives,
        edges=edges, bipartition=_bipartition(n, edges), degrees=degs,
    )
    h = rs.coxeter_number
    if len(positives) != n * h // 2:
        raise AssertionError("positive root count %d != n*h/2 for %s"
                             % (len(positives), t))
    return rs


@per_type
def subdiagram_types(name):
    """All type labels realized by induced subdiagrams of the ambient.

    Includes the empty label and the full label; computed over all
    2^n node subsets, each classified on the ambient edges inside it.
    """
    rs = build_root_system(name)
    found = set()
    nodes = range(rs.n)
    for size in range(rs.n + 1):
        for subset in combinations(nodes, size):
            found.add(_classify_induced(subset, rs.edges))
    return frozenset(found)


def single_node_deletions(name):
    """How many single-node deletions of the ambient diagram have each
    type, as a map type -> count."""
    rs = build_root_system(name)
    counts = {}
    for drop in range(rs.n):
        nodes = [i for i in range(rs.n) if i != drop]
        t = _classify_induced(nodes, rs.edges)
        counts[t] = counts.get(t, 0) + 1
    return counts


def _classify_induced(nodes, edges):
    """Type of the subdiagram induced on the ascending ``nodes``."""
    inside = set(nodes)
    return classify_edge_list(nodes, [(a, b) for a, b in edges
                                      if a in inside and b in inside])
