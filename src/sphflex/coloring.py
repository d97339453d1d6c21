"""Two-color edge colorings and the flexibility predicates built on them.

A coloring is *surjective* if both colors occur.  It has *no alternating
path* (NAP) if no walk over three edges is colored same-opposite-same;
equivalently, every edge has an endpoint whose incident edges all share one
color.  NAP-colorings certify flexibility on the sphere; the weaker
*no almost cycle* (NAC) condition certifies flexibility in the plane.

Alternating walks are allowed to close up (first and last vertex equal):
a triangle colored red-blue-red contains one.  This is what makes the walk
formulation agree with the local mono-endpoint criterion.

A coloring is its red-edge mask; the predicates and searches read the
graph's cached neighbour bitsets, incident-edge masks and edge ends.

``enumerate_nap`` lists the NAP-colorings pole set by pole set, with work
that follows its output rather than the number of independent sets.  The
pole-set search carries the components of G - P down and re-splits only
the new pole's component (the incremental split), and drops a pole set
with everything grown from it once its newest pole can never touch two
components, because its neighbours lie in one component of the vertices
that can no longer become poles (the separation bound).  The colorings of
each pole set come from an iterative backtrack over its components.  The
tests keep two oracles for it: the plain search that splits every
independent set afresh, and the scan of all 2^|E| colorings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import SphflexError
from .graphs import Edge, Graph, normalized_edge

RED = "red"
BLUE = "blue"

MAX_ENUM_EDGES = 25

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EdgeColoring:
    """Total two-coloring of a graph's edges: a bitmask over
    ``graph.edges`` order (bit set = red) and nothing else.  Color names
    are text only in files, read and written by ``sphflex.formats``.
    """

    graph: Graph
    mask: int

    @classmethod
    def from_red_edges(cls, graph: Graph, red_edges: Iterable[tuple[int, int]]) -> "EdgeColoring":
        red = {normalized_edge(a, b) for a, b in red_edges}
        if not red <= graph.edge_set:
            raise SphflexError(f"red edges given for non-edges {sorted(red - graph.edge_set)}")
        return cls(graph, sum(1 << i for i, e in enumerate(graph.edges) if e in red))

    def red_edges(self) -> tuple[Edge, ...]:
        return tuple(e for i, e in enumerate(self.graph.edges) if self.mask >> i & 1)

    def canonical_mask(self) -> int:
        """Smaller of the coloring's mask and its color-swapped mask."""
        full = (1 << len(self.graph.edges)) - 1
        return min(self.mask, self.mask ^ full)


def is_surjective(c: EdgeColoring) -> bool:
    full = (1 << len(c.graph.edges)) - 1
    return full != 0 and c.mask not in (0, full)


def is_nap(c: EdgeColoring) -> bool:
    """True iff surjective and free of alternating 3-edge walks.

    Uses the local criterion: no two poles, the vertices whose incident
    edges are not all one color, are adjacent.
    """
    return is_surjective(c) and _pole_sides(c) is not None


def _pole_sides(c: EdgeColoring) -> Optional[tuple[int, int]]:
    """Bitsets, by vertex position, of the poles (the vertices
    whose incident-edge mask ``c.mask`` splits) and of the vertices whose
    incident edges are all red, or None when two poles are adjacent."""
    nbrs, incident = c.graph.bits
    poles = sum(1 << i for i, inc in enumerate(incident) if c.mask & inc not in (0, inc))
    red = sum(1 << i for i, inc in enumerate(incident) if inc and c.mask & inc == inc)
    if any(nbrs[i] & poles for i in range(len(nbrs)) if poles >> i & 1):
        return None
    return poles, red


def find_alternating_path(c: EdgeColoring) -> Optional[tuple[int, int, int, int]]:
    """A walk (v, w, z, t) colored same-opposite-same, or None.

    Consecutive vertices are distinct and the three edges are distinct, but
    v = t is allowed (closed walk).  Kept as the definition-level oracle for
    :func:`is_nap`.
    """
    g = c.graph
    red = set(c.red_edges())
    for w, z in g.edges:
        mid = (w, z) in red
        for a, b in ((w, z), (z, w)):
            for v in g.neighbors(a):
                if v == b or (normalized_edge(v, a) in red) == mid:
                    continue
                for t in g.neighbors(b):
                    if t == a or (normalized_edge(b, t) in red) == mid:
                        continue
                    return (v, a, b, t)
    return None


def is_nac(c: EdgeColoring) -> bool:
    """True iff surjective and no cycle has exactly one edge of a color.

    A cycle with exactly one blue edge exists iff some blue edge has its
    endpoints joined by an all-red path, so the components of each color
    mask decide the predicate.
    """
    if not is_surjective(c):
        return False
    ends = c.graph.ends
    full = (1 << len(ends)) - 1
    for color in (c.mask, full ^ c.mask):
        # label[i]: the component of vertex i in the other color's edges
        label = list(range(len(c.graph.vertices)))
        for k, (i, j) in enumerate(ends):
            if not color >> k & 1 and label[i] != label[j]:
                old = label[i]
                label = [label[j] if x == old else x for x in label]
        if any(color >> k & 1 and label[i] == label[j] for k, (i, j) in enumerate(ends)):
            return False
    return True


def _check_edge_budget(g: Graph) -> None:
    """Refuse a graph with more than ``MAX_ENUM_EDGES`` edges.

    NAP-colorings are enumerated pole set by pole set (and valid cuts, in
    ``sphflex.cuts``, by per-vertex label counts, up to 8 vertices), but
    the number of results can still grow exponentially, so larger graphs
    are refused rather than sampled.  The colorings and the flexibility
    certificate both check this budget.
    """
    m = len(g.edges)
    if m > MAX_ENUM_EDGES:
        raise SphflexError(
            f"{m} edges exceeds the exhaustive enumeration budget of {MAX_ENUM_EDGES}"
        )


def _pole_sets(g: Graph, visit: Callable[[list[int], list[list[int]]], None]) -> int:
    """Call ``visit`` on each admissible pole set P, as the components of
    G - P, and return the number of pole sets split.

    P ranges over the non-empty independent sets of vertices of degree at
    least two, grown depth first in vertex order.  A set is admissible
    when every pole touches at least two components of G - P.  For each
    such set ``visit`` gets the edge masks of the components in descending
    order and, for each component, the incident-edge masks of the poles
    whose last touched component it is.  It gets them as soon as the set
    is found, so only the sets on the search path are held.  Every edge
    has an endpoint outside P, so the component masks are disjoint and
    cover all edges, and the first component holds the last edge.

    Components only get finer as P grows, so the search passes the
    components of G - P down: adding pole v re-splits only v's own
    component, each of whose pieces holds a neighbour of v, and the other
    components carry over.  A pole that touches two components keeps
    doing so.  When v leaves its component in one piece, the separation
    bound decides whether it ever can: every extension keeps the vertices
    outside P that can no longer become poles (the non-candidates, the
    candidates passed over and the neighbours of poles), and if v's
    neighbours lie in one component of the graph these induce, v touches
    one component of G - P' for every extension P', so the subtree is
    dropped unvisited.  The count is of the pole sets whose components
    were split, admissible or not.
    """
    nbrs, incident = g.bits
    candidates = [i for i in range(len(nbrs)) if nbrs[i].bit_count() >= 2]
    # later[j]: bitset of the candidates after the j-th
    later = [0] * (len(candidates) + 1)
    for j in range(len(candidates) - 1, -1, -1):
        later[j] = later[j + 1] | 1 << candidates[j]
    split = 0

    def component(start: int, within: int) -> tuple[int, int, int]:
        """Edge mask, vertex bitset and neighbourhood of the component of
        G[within] holding the vertex bit ``start``."""
        edges, verts, reach, frontier = 0, start, 0, start
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            u = low.bit_length() - 1
            edges |= incident[u]
            reach |= nbrs[u]
            new = reach & within & ~verts
            verts |= new
            frontier |= new
        return edges, verts, reach

    def grow(start: int, poles: int, blocked: int, comps: list, pending: int) -> None:
        # comps: (edge mask, vertex bitset, neighbourhood) of the components
        # of G - poles, descending; pending: the poles touching only one
        nonlocal split
        for j in range(start, len(candidates)):
            v = candidates[j]
            bit = 1 << v
            if blocked & bit:
                continue
            for i, (_, verts, _) in enumerate(comps):
                if verts & bit:
                    break
            inside = verts ^ bit
            near = nbrs[v]
            pieces = []
            left = near
            while left:
                piece = component(left & -left, inside)
                pieces.append(piece)
                left &= ~piece[1]
            fenced = blocked | near
            if len(pieces) == 1:
                rest = inside & ~(later[j + 1] & ~fenced)
                if not near & ~component(near & -near, rest)[1]:
                    continue
                still = pending | bit
            else:
                # a pole that touched only v's old component may touch
                # two of its pieces now
                still = pending
                waiting = pending & comps[i][2]
                while waiting:
                    low = waiting & -waiting
                    waiting ^= low
                    if sum(1 for piece in pieces if piece[2] & low) >= 2:
                        still ^= low
            split += 1
            parts = comps[:i] + comps[i + 1 :] + pieces
            parts.sort(reverse=True)
            grown = poles | bit
            if not still:
                # each pole closes at the last component it touches
                closing = []
                seen = 0
                for _, _, reach in reversed(parts):
                    last = reach & grown & ~seen
                    seen |= last
                    edges = []
                    while last:
                        low = last & -last
                        last ^= low
                        edges.append(incident[low.bit_length() - 1])
                    closing.append(edges)
                closing.reverse()
                visit([edges for edges, _, _ in parts], closing)
            grow(j + 1, grown, fenced, parts, still)

    # the graph is connected: one component, every edge, every vertex
    everyone = (1 << len(nbrs)) - 1
    grow(0, 0, 0, [((1 << len(g.edges)) - 1, everyone, everyone)], 0)
    return split


def _component_colorings(comp_masks: list[int], closing: list[list[int]], out: list[int]) -> None:
    """Append the red-edge masks of the component 2-colorings where every
    pole sees both colors and component 0 is blue.

    The color swaps of these are the remaining such colorings.  Components
    1, 2, ... are colored blue, then red, by an iterative backtrack, and a
    pole is checked on its incident edges as soon as its last component
    is colored.
    """
    k = len(comp_masks)
    # at depth i: the red edges of components 0..i-1, and the colors of
    # component i tried so far
    masks = [0] * k
    tried = [0] * k
    i = 1
    while i:
        color = tried[i]
        if color == 2:
            i -= 1
            continue
        tried[i] = color + 1
        mask = masks[i] | comp_masks[i] if color else masks[i]
        for edges in closing[i]:
            seen = edges & mask
            if seen == 0 or seen == edges:
                break
        else:
            if i + 1 == k:
                out.append(mask)
            else:
                i += 1
                masks[i], tried[i] = mask, 0


def enumerate_nap(g: Graph, modulo_swap: bool = True) -> tuple[EdgeColoring, ...]:
    """All NAP-colorings, in ascending mask order.

    In a NAP-coloring the bichromatic vertices (the poles) form an
    independent set and every component of G - poles is monochromatic, so
    the colorings are enumerated pole set by pole set: each admissible set
    contributes the colorings of its components in which every pole sees
    both colors.  Different pole sets give different colorings.  With
    ``modulo_swap`` the representative with the smaller bitmask of each
    swap pair is kept: the one with the last edge blue, so only those are
    searched for.  Graphs beyond ``MAX_ENUM_EDGES`` edges are still
    rejected rather than sampled, as the output can be exponential.  Each
    call logs one debug record on the ``sphflex.coloring`` logger with the
    pole sets split and the colorings returned (``extra`` fields
    ``pole_sets`` and ``colorings``).
    """
    _check_edge_budget(g)
    full = (1 << len(g.edges)) - 1
    masks: list[int] = []
    split = _pole_sets(g, lambda comps, closing: _component_colorings(comps, closing, masks))
    if not modulo_swap:
        masks += [mask ^ full for mask in masks]
    masks.sort()
    _log.debug(
        "enumerate_nap split %d pole sets and found %d colorings",
        split,
        len(masks),
        extra={"pole_sets": split, "colorings": len(masks)},
    )
    return tuple(EdgeColoring(g, mask) for mask in masks)


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
    nbrs, incident = g.bits
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
    sides = _pole_sides(c) if is_surjective(c) else None
    if sides is None:
        raise SphflexError("coloring is not a NAP-coloring")
    poles, red = sides
    vertices = c.graph.vertices
    return PolePartition(
        *(
            frozenset(v for i, v in enumerate(vertices) if bits >> i & 1)
            for bits in (poles, red, ~(poles | red))
        )
    )
