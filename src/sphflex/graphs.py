"""Connected simple graphs with integer vertex labels.

Vertices are arbitrary integers.  Edges are unordered pairs,
normalized to ``(min, max)`` tuples.  Connectedness, absence of self-loops
and absence of multiedges are construction-time invariants: everything in
this package assumes them.

A graph caches ``position`` (vertex to index in ``vertices``), ``ends``
(each edge as two positions) and ``bits`` (neighbour bitsets and
incident-edge masks, edge k being bit k); every module reads these.

The complete bipartite graph on 3+3 vertices follows the convention that
odd labels ``{1, 3, 5}`` form one side and even labels ``{2, 4, 6}`` the
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import SphflexError

Edge = tuple[int, int]


def normalized_edge(a: int, b: int) -> Edge:
    """Unordered vertex pair as a sorted tuple.  Rejects loops."""
    if a == b:
        raise SphflexError(f"self-loop at vertex {a}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Graph:
    """Immutable connected simple graph.  Build via :func:`build_graph`."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def position(self) -> Mapping[int, int]:
        """Index of each vertex in ``vertices``."""
        return MappingProxyType({v: i for i, v in enumerate(self.vertices)})

    @cached_property
    def ends(self) -> tuple[tuple[int, int], ...]:
        """Positions of each edge's ends, the smaller first, in ``edges`` order."""
        pos = self.position
        return tuple((pos[a], pos[b]) for a, b in self.edges)

    @cached_property
    def bits(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Neighbour bitset and incident-edge mask of each vertex, by position."""
        nbrs = [0] * len(self.vertices)
        incident = [0] * len(self.vertices)
        for k, (i, j) in enumerate(self.ends):
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
            incident[i] |= 1 << k
            incident[j] |= 1 << k
        return tuple(nbrs), tuple(incident)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        near = self.bits[0][self.position[v]]
        return tuple(u for i, u in enumerate(self.vertices) if near >> i & 1)

    def __reduce__(self):
        # pickle and copy the fields only; ``position`` cannot be pickled
        return Graph, (self.vertices, self.edges)


def _is_connected(g: Graph) -> bool:
    nbrs, _ = g.bits
    seen = frontier = 1 if nbrs else 0
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = nbrs[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << len(nbrs)) - 1


def build_graph(vertex_labels: Iterable[int], edge_pairs: Iterable[tuple[int, int]]) -> Graph:
    """Validate and build a graph.

    Raises ``SphflexError`` on a repeated vertex label, a self-loop, a
    repeated edge, an edge to an undeclared vertex, or a disconnected
    graph.
    """
    labels = tuple(vertex_labels)
    vset = set(labels)
    if len(vset) != len(labels):
        repeated = next(v for i, v in enumerate(labels) if v in labels[:i])
        raise SphflexError(f"vertex {repeated} is listed more than once")
    vertices = tuple(sorted(vset))
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for a, b in edge_pairs:
        e = normalized_edge(a, b)
        if e[0] not in vset or e[1] not in vset:
            raise SphflexError(f"edge {e} references an undeclared vertex")
        if e in seen:
            raise SphflexError(f"edge {e} appears more than once")
        seen.add(e)
        edges.append(e)
    g = Graph(vertices, tuple(sorted(edges)))
    if not _is_connected(g):
        raise SphflexError("graph is not connected")
    return g


def nonedges(g: Graph) -> set[Edge]:
    """All unordered pairs of distinct vertices that are not edges."""
    return {e for e in combinations(g.vertices, 2) if e not in g.edge_set}


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced on ``keep``; raises if the result is disconnected."""
    kept = set(keep)
    unknown = kept.difference(g.position)
    if unknown:
        raise SphflexError(f"vertices {sorted(unknown)} not in graph")
    sub = Graph(tuple(sorted(kept)), tuple(e for e in g.edges if e[0] in kept and e[1] in kept))
    if not _is_connected(sub):
        raise SphflexError("induced subgraph is not connected")
    return sub


# ---------------------------------------------------------------------------
# named graphs
# ---------------------------------------------------------------------------


def complete_bipartite(left: Iterable[int], right: Iterable[int]) -> Graph:
    left = tuple(left)
    right = tuple(right)
    return build_graph(left + right, [(a, b) for a in left for b in right])


def k33() -> Graph:
    """K(3,3) with odd labels on one side and even labels on the other."""
    return complete_bipartite((1, 3, 5), (2, 4, 6))


def k22() -> Graph:
    """The 4-cycle 1-2-3-4 as K(2,2) with odd/even sides."""
    return complete_bipartite((1, 3), (2, 4))


def k32() -> Graph:
    return complete_bipartite((1, 3, 5), (2, 4))


def k44() -> Graph:
    return complete_bipartite((1, 3, 5, 7), (2, 4, 6, 8))


def complete(n: int) -> Graph:
    verts = range(1, n + 1)
    return build_graph(verts, combinations(verts, 2))


def triangle() -> Graph:
    return complete(3)


def cycle_graph(n: int) -> Graph:
    verts = range(1, n + 1)
    return build_graph(verts, [(i, i % n + 1) for i in range(1, n + 1)])


def apex_double_triangle() -> Graph:
    """Two triangles glued along edge 2-3, plus an apex 5 joined to 1 and 4.

    The smallest minimally rigid graph whose edge set splits into a
    no-alternating-path coloring (five inner edges against the two apex
    edges); the pole construction then collapses vertices 1 and 4.
    """
    return build_graph(
        range(1, 6),
        [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 5), (4, 5)],
    )


def three_prism() -> Graph:
    """Triangles 1-3-5 and 2-4-6 joined by the matching 1-2, 3-4, 5-6."""
    return build_graph(
        range(1, 7),
        [(1, 3), (3, 5), (1, 5), (2, 4), (4, 6), (2, 6), (1, 2), (3, 4), (5, 6)],
    )
