"""Two-color edge colorings and the flexibility predicates built on them.

A coloring is *surjective* if both colors occur.  It has *no alternating
path* (NAP) if no walk over three edges is colored same-opposite-same;
equivalently, every edge has an endpoint whose incident edges all share one
color.  NAP-colorings certify flexibility on the sphere; the weaker
*no almost cycle* (NAC) condition certifies flexibility in the plane.

Alternating walks are allowed to close up (first and last vertex equal):
a triangle colored red-blue-red contains one.  This is what makes the walk
formulation agree with the local mono-endpoint criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .errors import BudgetExceededError, NotNapError
from .graphs import Edge, Graph, normalized_edge

RED = "red"
BLUE = "blue"

MAX_ENUM_EDGES = 25


@dataclass(frozen=True)
class EdgeColoring:
    """Total two-coloring of a graph's edges.

    Stored as a bitmask over ``graph.edges`` order (bit set = red), which
    keeps enumeration over all colorings cheap.
    """

    graph: Graph
    mask: int

    @classmethod
    def from_colors(cls, graph: Graph, colors: dict[Edge, str]) -> "EdgeColoring":
        mask = 0
        for i, e in enumerate(graph.edges):
            try:
                c = colors[e]
            except KeyError:
                raise KeyError(f"edge {e} has no color") from None
            if c == RED:
                mask |= 1 << i
            elif c != BLUE:
                raise ValueError(f"unknown color {c!r}")
        if len(colors) != len(graph.edges):
            extra = set(colors) - set(graph.edges)
            raise KeyError(f"colors given for non-edges {sorted(extra)}")
        return cls(graph, mask)

    @classmethod
    def from_red_edges(cls, graph: Graph, red_edges: Iterable[tuple[int, int]]) -> "EdgeColoring":
        red = {normalized_edge(a, b) for a, b in red_edges}
        return cls.from_colors(graph, {e: (RED if e in red else BLUE) for e in graph.edges})

    def color(self, a: int, b: int) -> str:
        e = normalized_edge(a, b)
        i = self.graph.edges.index(e)
        return RED if self.mask >> i & 1 else BLUE

    @cached_property
    def colors(self) -> dict[Edge, str]:
        return {
            e: (RED if self.mask >> i & 1 else BLUE)
            for i, e in enumerate(self.graph.edges)
        }

    def red_edges(self) -> tuple[Edge, ...]:
        return tuple(e for i, e in enumerate(self.graph.edges) if self.mask >> i & 1)

    def swapped(self) -> "EdgeColoring":
        full = (1 << len(self.graph.edges)) - 1
        return EdgeColoring(self.graph, self.mask ^ full)

    def canonical_mask(self) -> int:
        """Smaller of the coloring's mask and its color-swapped mask."""
        full = (1 << len(self.graph.edges)) - 1
        return min(self.mask, self.mask ^ full)


@dataclass(frozen=True)
class ColoringSet:
    colorings: tuple[EdgeColoring, ...]
    modulo_swap: bool

    def __len__(self) -> int:
        return len(self.colorings)

    def __iter__(self):
        return iter(self.colorings)


def is_surjective(c: EdgeColoring) -> bool:
    full = (1 << len(c.graph.edges)) - 1
    return full != 0 and c.mask not in (0, full)


def is_nap(c: EdgeColoring) -> bool:
    """True iff surjective and free of alternating 3-edge walks.

    Uses the local criterion: every edge must have an endpoint all of whose
    incident edges share one color.
    """
    if not is_surjective(c):
        return False
    g = c.graph
    _, incident = _adjacency(g)
    mono = {v: c.mask & inc in (0, inc) for v, inc in zip(g.vertices, incident)}
    return all(mono[a] or mono[b] for a, b in g.edges)


def find_alternating_path(c: EdgeColoring) -> Optional[tuple[int, int, int, int]]:
    """A walk (v, w, z, t) colored same-opposite-same, or None.

    Consecutive vertices are distinct and the three edges are distinct, but
    v = t is allowed (closed walk).  Kept as the definition-level oracle for
    :func:`is_nap`.
    """
    g = c.graph
    colors = c.colors
    for w, z in g.edges:
        mid = colors[(w, z)]
        for a, b in ((w, z), (z, w)):
            for v in g.neighbors(a):
                if v == b or colors[normalized_edge(v, a)] == mid:
                    continue
                for t in g.neighbors(b):
                    if t == a or colors[normalized_edge(b, t)] == mid:
                        continue
                    return (v, a, b, t)
    return None


def is_nac(c: EdgeColoring) -> bool:
    """True iff surjective and no cycle has exactly one edge of a color.

    A cycle with exactly one blue edge exists iff some blue edge has its
    endpoints joined by an all-red path, so two connectivity sweeps decide
    the predicate.
    """
    if not is_surjective(c):
        return False
    g = c.graph

    def reachable(color: str) -> dict[int, int]:
        parent = {v: v for v in g.vertices}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e, col in c.colors.items():
            if col == color:
                ra, rb = find(e[0]), find(e[1])
                if ra != rb:
                    parent[ra] = rb
        return {v: find(v) for v in g.vertices}

    comp = {RED: reachable(RED), BLUE: reachable(BLUE)}
    other = {RED: BLUE, BLUE: RED}
    for e, col in c.colors.items():
        same = comp[other[col]]
        if same[e[0]] == same[e[1]]:
            return False
    return True


def _check_edge_budget(g: Graph) -> None:
    m = len(g.edges)
    if m > MAX_ENUM_EDGES:
        raise BudgetExceededError(
            f"{m} edges exceeds the exhaustive enumeration budget of {MAX_ENUM_EDGES}"
        )


def _union(masks: list[int], members: int) -> int:
    """OR of ``masks[i]`` over the set bits ``i`` of ``members``."""
    out = 0
    while members:
        low = members & -members
        members ^= low
        out |= masks[low.bit_length() - 1]
    return out


def _adjacency(g: Graph) -> tuple[list[int], list[int]]:
    """Neighbour bitset and incident-edge mask of each vertex, by index in
    ``g.vertices``."""
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    nbrs = [0] * n
    incident = [0] * n
    for e, (a, b) in enumerate(g.edges):
        i, j = index[a], index[b]
        nbrs[i] |= 1 << j
        nbrs[j] |= 1 << i
        incident[i] |= 1 << e
        incident[j] |= 1 << e
    return nbrs, incident


def _pole_sets(g: Graph) -> Iterator[tuple[list[int], list[int]]]:
    """Candidate pole sets P with the components of G - P.

    P ranges over the non-empty independent sets of vertices of degree at
    least two.  For each P this yields the edge masks of the components of
    G - P, in descending order, and for each pole the bitset of the
    (indices of the) components it touches.  Every edge has an endpoint
    outside P, so the component masks are disjoint and cover all edges,
    and the first component holds the last edge.  Sets where some pole
    touches fewer than two components are skipped: that pole could not see
    both colors.
    """
    nbrs, incident = _adjacency(g)
    n = len(nbrs)
    candidates = [i for i in range(n) if nbrs[i].bit_count() >= 2]
    everyone = (1 << n) - 1

    def split(poles: int) -> Optional[tuple[list[int], list[int]]]:
        rest = everyone & ~poles
        comps = []  # (edge mask, vertex bitset)
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                frontier = _union(nbrs, frontier) & rest & ~comp
                comp |= frontier
            rest &= ~comp
            comps.append((_union(incident, comp), comp))
        comps.sort(reverse=True)
        touched = []
        for p in range(n):
            if poles >> p & 1:
                t = sum(1 << k for k, (_, verts) in enumerate(comps) if nbrs[p] & verts)
                if t.bit_count() < 2:
                    return None
                touched.append(t)
        return [edges for edges, _ in comps], touched

    def independent_sets(start: int, poles: int, blocked: int) -> Iterator[int]:
        for k in range(start, len(candidates)):
            v = candidates[k]
            if not blocked >> v & 1:
                grown = poles | 1 << v
                yield grown
                yield from independent_sets(k + 1, grown, blocked | nbrs[v])

    for poles in independent_sets(0, 0, 0):
        parts = split(poles)
        if parts is not None:
            yield parts


def _component_colorings(comp_masks: list[int], touched: list[int]) -> Iterator[int]:
    """Red-edge masks of the component 2-colorings where every pole sees
    both colors and component 0 is blue.

    The color swaps of these are the remaining such colorings.  Components
    are colored one at a time, and a pole is checked as soon as its last
    component is colored.
    """
    k = len(comp_masks)
    closing: list[list[int]] = [[] for _ in range(k)]
    for t in touched:
        closing[t.bit_length() - 1].append(t)

    def search(i: int, red: int, mask: int) -> Iterator[int]:
        if i == k:
            yield mask
            return
        for grown, grown_mask in ((red, mask), (red | 1 << i, mask | comp_masks[i])):
            if all(0 != t & grown != t for t in closing[i]):
                yield from search(i + 1, grown, grown_mask)

    return search(1, 0, 0)


def enumerate_nap(g: Graph, modulo_swap: bool = True) -> ColoringSet:
    """All NAP-colorings, in ascending mask order.

    In a NAP-coloring the bichromatic vertices (the poles) form an
    independent set and every component of G - poles is monochromatic, so
    the colorings are enumerated pole set by pole set: each admissible set
    contributes the colorings of its components in which every pole sees
    both colors.  Different pole sets give different colorings.  With
    ``modulo_swap`` the representative with the smaller bitmask of each
    swap pair is kept: the one with the last edge blue, so only those are
    searched for.  Graphs beyond ``MAX_ENUM_EDGES`` edges are still
    rejected rather than sampled, as the output can be exponential.
    """
    _check_edge_budget(g)
    full = (1 << len(g.edges)) - 1
    masks = [
        mask
        for comp_masks, touched in _pole_sets(g)
        for mask in _component_colorings(comp_masks, touched)
    ]
    if not modulo_swap:
        masks += [mask ^ full for mask in masks]
    masks.sort()
    return ColoringSet(tuple(EdgeColoring(g, mask) for mask in masks), modulo_swap)


def flexibility_certificate(g: Graph) -> Optional[EdgeColoring]:
    """The NAP-coloring with the smallest mask if one exists, else None.

    Existence is equivalent to the graph having an edge-length assignment
    that is flexible on the sphere.  One red component of a NAP-coloring
    is a NAP-coloring on its own, with fewer red edges, so the smallest
    coloring colors red exactly the edges meeting a connected vertex set X
    whose outside neighbours N(X), the poles, are independent and each have
    a neighbour outside X and N(X).  Conversely every such X gives a
    NAP-coloring.  The red mask only grows with X, so a branch and bound
    over connected sets finds the smallest without enumerating colorings;
    it also drops a subtree once no vertex outside X and N(X) is left, or
    once a pole that can no longer join X has no such neighbour or is
    adjacent to another such pole.  The ``MAX_ENUM_EDGES`` budget still
    applies.
    """
    _check_edge_budget(g)
    nbrs, incident = _adjacency(g)
    everyone = (1 << len(nbrs)) - 1
    best = 1 << len(g.edges)  # above every mask

    def grow(inside: int, red: int, poles: int, banned: int) -> None:
        # inside is connected, poles = N(inside), and banned vertices never
        # join inside in this subtree
        nonlocal best
        if red >= best:
            return
        rest = everyone & ~inside & ~poles
        if not rest:
            return
        valid = True
        members = poles
        while members:
            low = members & -members
            members ^= low
            u = low.bit_length() - 1
            clash = nbrs[u] & poles
            lonely = not nbrs[u] & rest
            if clash or lonely:
                if low & banned and (lonely or clash & banned):
                    return
                valid = False
        if valid:
            best = red
            return
        ext = poles & ~banned
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            grow(inside | low, red | incident[v], (poles | nbrs[v]) & ~inside & ~low, banned)
            banned |= low

    for v in range(len(nbrs)):
        grow(1 << v, incident[v], nbrs[v], (1 << v) - 1)
    return None if best >> len(g.edges) else EdgeColoring(g, best)


@dataclass(frozen=True)
class PolePartition:
    """Vertex split extracted from a NAP-coloring.

    ``poles`` holds the vertices meeting both colors (always an independent
    set); ``red_side`` and ``blue_side`` the remaining vertices, whose
    incident edges are all red respectively all blue.
    """

    poles: frozenset[int]
    red_side: frozenset[int]
    blue_side: frozenset[int]


def nap_pole_partition(c: EdgeColoring) -> PolePartition:
    if not is_nap(c):
        raise NotNapError("coloring is not a NAP-coloring")
    g = c.graph
    colors = c.colors
    poles, red_side, blue_side = set(), set(), set()
    for v in g.vertices:
        incident = {colors[normalized_edge(v, w)] for w in g.neighbors(v)}
        if incident == {RED, BLUE}:
            poles.add(v)
        elif incident == {RED}:
            red_side.add(v)
        else:
            blue_side.add(v)
    return PolePartition(frozenset(poles), frozenset(red_side), frozenset(blue_side))
