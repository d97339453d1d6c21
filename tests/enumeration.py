"""Exhaustive generation of small connected graphs up to isomorphism, and
the oracles for the structural enumerators: the exhaustive scans, and the
plain structural searches that the output-sensitive ones replaced.

Search over isomorphism classes: grow from a single edge by either adding
an edge between existing vertices or attaching a new leaf vertex, which
reaches every connected graph.  Deduplication buckets candidates by cheap
invariants and settles ties with networkx isomorphism tests.
"""

import itertools
from collections import defaultdict
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional

import networkx as nx
import numpy as np
from hypothesis import strategies as st

from sphflex.cuts import Cut, marked_labels
from sphflex.graphs import Graph, build_graph

from helpers import cut_for


def _invariant(g: nx.Graph):
    degs = sorted(d for _, d in g.degree())
    tri = sum(nx.triangles(g).values())
    return (g.number_of_nodes(), g.number_of_edges(), tuple(degs), tri)


def connected_graphs(max_edges: int, max_vertices: int) -> list[Graph]:
    """All connected graphs (one per isomorphism class) within the bounds.

    Includes the single-vertex graph.  Returned as sphflex Graphs with
    vertices 1..n.  Generated once per bounds for the whole test session.
    """
    return list(_connected_graphs(max_edges, max_vertices))


@lru_cache(maxsize=None)
def _connected_graphs(max_edges: int, max_vertices: int) -> tuple[Graph, ...]:
    seen: dict[tuple, list[nx.Graph]] = defaultdict(list)

    def register(g: nx.Graph) -> bool:
        key = _invariant(g)
        for other in seen[key]:
            if nx.is_isomorphic(g, other):
                return False
        seen[key].append(g.copy())
        return True

    k1 = nx.Graph()
    k1.add_node(0)
    register(k1)
    k2 = nx.path_graph(2)
    register(k2)
    frontier = [k2]
    while frontier:
        nxt = []
        for g in frontier:
            n, m = g.number_of_nodes(), g.number_of_edges()
            if m >= max_edges:
                continue
            candidates = []
            for a, b in combinations(g.nodes, 2):
                if not g.has_edge(a, b):
                    h = g.copy()
                    h.add_edge(a, b)
                    candidates.append(h)
            if n < max_vertices:
                for a in g.nodes:
                    h = g.copy()
                    h.add_edge(a, n)
                    candidates.append(h)
            for h in candidates:
                if register(h):
                    nxt.append(h)
        frontier = nxt

    out = []
    for bucket in seen.values():
        for g in bucket:
            mapping = {v: i + 1 for i, v in enumerate(sorted(g.nodes))}
            out.append(
                build_graph(
                    mapping.values(),
                    [(mapping[a], mapping[b]) for a, b in g.edges],
                )
            )
    out.sort(key=lambda g: (g.num_vertices, g.num_edges, g.edges))
    return tuple(out)


def edge_count_histogram(graphs: list[Graph]) -> dict[int, int]:
    hist: dict[int, int] = defaultdict(int)
    for g in graphs:
        hist[g.num_edges] += 1
    return dict(hist)


def nap_masks_by_scan(g: Graph, modulo_swap: bool = False) -> list[int]:
    """NAP-coloring masks in ascending order, by testing all 2^|E| colorings.

    Every mask is tested at once with numpy against the local criterion:
    surjective, and every edge has an endpoint whose edges share a color.
    With ``modulo_swap`` a mask is dropped when its color swap is smaller.
    """
    full = (1 << g.num_edges) - 1
    masks = np.arange(1 << g.num_edges, dtype=np.int64)
    mono = {}
    for v in g.vertices:
        incident = sum(1 << i for i, e in enumerate(g.edges) if v in e)
        red = masks & incident
        mono[v] = (red == 0) | (red == incident)
    keep = (masks != 0) & (masks != full)
    for a, b in g.edges:
        keep &= mono[a] | mono[b]
    if modulo_swap:
        keep &= masks < masks ^ full
    return [int(mask) for mask in np.flatnonzero(keep)]


def valid_cuts_by_scan(g: Graph, modulo_symmetry: bool) -> list[Cut]:
    """Bond-valid surjective cuts by scanning all 2^(2|V|) label bipartitions.

    Label ``i`` of :func:`marked_labels` is bit ``i`` of a mask, and every
    mask is tested at once with numpy.  Visiting masks in ascending order,
    the scan reports a class of cuts (a mask and its complement, and with
    ``modulo_symmetry`` their P/Q conjugates too) at its first mask, which
    is the smallest one; validity is the same for every mask of a class.
    """
    labels = marked_labels(g)
    n = len(labels)
    full = (1 << n) - 1
    pos = {label: i for i, label in enumerate(labels)}
    masks = np.arange(1 << n, dtype=np.int64)
    bit = [((masks >> i) & 1).astype(np.int8) for i in range(n)]
    size = sum(bit, np.zeros_like(masks))
    valid = (size >= 2) & (n - size >= 2)
    red = np.zeros_like(valid)
    blue = np.zeros_like(valid)
    for a, b in g.edges:
        on_i = bit[pos["P", a]] + bit[pos["Q", a]] + bit[pos["P", b]] + bit[pos["Q", b]]
        valid &= on_i != 2
        red |= on_i >= 3
        blue |= on_i <= 1
    found = masks[valid & red & blue]
    first = found < found ^ full
    if modulo_symmetry:
        conj = sum(
            ((found >> pos[kind, v]) & 1) << pos["Q" if kind == "P" else "P", v]
            for kind, v in labels
        )
        first &= (found <= conj) & (found <= conj ^ full)
    return [
        cut_for(g, (labels[i] for i in range(n) if mask >> i & 1))
        for mask in map(int, found[first])
    ]


def _union(masks: list[int], members: int) -> int:
    """OR of ``masks[i]`` over the set bits ``i`` of ``members``."""
    out = 0
    while members:
        low = members & -members
        members ^= low
        out |= masks[low.bit_length() - 1]
    return out


def _pole_sets(g: Graph) -> Iterator[tuple[list[int], list[int]]]:
    """Candidate pole sets P with the components of G - P.

    P ranges over all non-empty independent sets of vertices of degree at
    least two, and the components of G - P are found afresh for each.
    For each P this yields the edge masks of the components, in
    descending order, and for each pole the bitset of the (indices of
    the) components it touches.  Sets where some pole touches fewer than
    two components are skipped: that pole could not see both colors.
    """
    nbrs, incident = g.bits
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
    both colors and component 0 is blue, by a recursive search."""
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


def nap_masks_by_pole_sets(g: Graph, modulo_swap: bool = False) -> list[int]:
    """NAP-coloring masks in ascending order, from every independent pole
    set with its components split afresh: ``enumerate_nap`` without the
    separation bound or the incremental split."""
    full = (1 << g.num_edges) - 1
    masks = [
        mask
        for comp_masks, touched in _pole_sets(g)
        for mask in _component_colorings(comp_masks, touched)
    ]
    if not modulo_swap:
        masks += [mask ^ full for mask in masks]
    return sorted(masks)


def valid_cuts_by_counts(g: Graph) -> list[Cut]:
    """Bond-valid surjective cuts from every per-vertex count vector, one
    per class of a mask, its complement and their P/Q conjugates.

    Backtracks over the counts in {0, 1, 2} in vertex order, expands every
    surviving vector into all its label masks and keys each class by the
    smallest mask of the class, so a class is reached up to four times;
    each cut is built by ``cut_for``.  ``enumerate_valid_cuts`` without the
    one-visit-per-class rules.
    """
    labels = marked_labels(g)
    n = g.num_vertices
    full = (1 << 2 * n) - 1
    p_bits = full // 3  # 0b0101...: the P label of every vertex
    index = {v: k for k, v in enumerate(g.vertices)}
    earlier: list[list[int]] = [[] for _ in range(n)]
    for a, b in g.edges:
        earlier[max(index[a], index[b])].append(min(index[a], index[b]))
    keys: set[int] = set()

    def expand(counts: list[int]) -> None:
        base = 0
        singles = []
        for k, c in enumerate(counts):
            if c == 2:
                base |= 0b11 << 2 * k
            elif c == 1:
                singles.append(k)
        for choice in itertools.product((0, 1), repeat=len(singles)):
            mask = base
            for k, q in zip(singles, choice):
                mask |= 1 << (2 * k + q)
            conj = (mask & p_bits) << 1 | (mask >> 1) & p_bits
            keys.add(min(mask, mask ^ full, conj, conj ^ full))

    def search(k: int, counts: list[int], total: int, red: bool, blue: bool) -> None:
        if k == n:
            if red and blue and 2 <= total <= 2 * n - 2:
                expand(counts)
            return
        for c in (0, 1, 2):
            sums = [c + counts[j] for j in earlier[k]]
            if 2 not in sums:
                counts.append(c)
                search(
                    k + 1,
                    counts,
                    total + c,
                    red or any(x >= 3 for x in sums),
                    blue or any(x <= 1 for x in sums),
                )
                counts.pop()

    search(0, [], 0, False, False)
    return [
        cut_for(g, (labels[i] for i in range(2 * n) if key >> i & 1))
        for key in sorted(keys)
    ]


@st.composite
def relabeled_graphs(draw, max_vertices=8, max_edges=12):
    """A random connected graph and a copy under a random vertex relabelling."""
    n = draw(st.integers(1, max_vertices))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # spanning tree
    others = [(a, b) for b in range(n) for a in range(b) if (a, b) not in edges]
    if others and len(edges) < max_edges:
        room = max_edges - len(edges)
        edges.update(draw(st.lists(st.sampled_from(others), unique=True, max_size=room)))
    labels = draw(st.permutations(range(n)))
    g = build_graph(range(n), edges)
    h = build_graph(labels, [(labels[a], labels[b]) for a, b in edges])
    return g, h
