"""The string-color and four-label forms of the coloring predicates, kept
as oracles for the mask and label-count forms in ``sphflex``.

``nap_pole_partition_by_colors`` sorts each vertex by the set of colors
of its incident edges; the cut functions build the four labels of each
edge and intersect them with a side of the cut.
"""

from typing import Optional

from sphflex.coloring import BLUE, RED, EdgeColoring, PolePartition, is_nap
from sphflex.cuts import Cut, marked_labels
from sphflex.errors import SphflexError
from sphflex.graphs import Graph, nonedges, normalized_edge


def nap_pole_partition_by_colors(c: EdgeColoring) -> PolePartition:
    if not is_nap(c):
        raise SphflexError("coloring is not a NAP-coloring")
    g = c.graph
    red = set(c.red_edges())
    colors = {e: RED if e in red else BLUE for e in g.edges}
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


def cut_valid_for_bond_by_labels(g: Graph, c: Cut) -> bool:
    labels = set(marked_labels(g))
    if c.I | c.J != labels:
        raise SphflexError("cut does not partition this graph's marked labels")
    for a, b in g.edges:
        quad = {("P", a), ("Q", a), ("P", b), ("Q", b)}
        if len(quad & c.I) == 2:
            return False
    return True


def coloring_from_cut_by_labels(g: Graph, c: Cut) -> EdgeColoring:
    if not cut_valid_for_bond_by_labels(g, c):
        raise SphflexError("cut is not bond-valid for this graph")
    red = []
    for a, b in g.edges:
        quad = {("P", a), ("Q", a), ("P", b), ("Q", b)}
        if len(quad & c.I) >= 3:
            red.append((a, b))
    return EdgeColoring.from_red_edges(g, red)


def nap_iff_separated_nonedge_by_labels(
    g: Graph, c: Cut
) -> tuple[bool, Optional[tuple[int, int]]]:
    verdict = is_nap(coloring_from_cut_by_labels(g, c))
    witness = None
    for a, b in sorted(nonedges(g)):
        a_in_i = {("P", a), ("Q", a)} <= c.I
        a_in_j = {("P", a), ("Q", a)} <= c.J
        b_in_i = {("P", b), ("Q", b)} <= c.I
        b_in_j = {("P", b), ("Q", b)} <= c.J
        if (a_in_i and b_in_j) or (a_in_j and b_in_i):
            witness = (a, b)
            break
    return verdict, witness
