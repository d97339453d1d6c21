"""The mask and label-count predicates against their string-color and
four-label oracles in ``predicates.py``: the same values, and the same
exceptions with the same messages."""

import pytest

from sphflex.coloring import enumerate_nap, nap_pole_partition
from sphflex.cuts import (
    Cut,
    coloring_from_cut,
    marked_labels,
    nap_iff_separated_nonedge,
)
from sphflex.errors import SphflexError
from sphflex.graphs import k22, k32, k33, triangle

from enumeration import connected_graphs
from helpers import cut_for
from predicates import (
    coloring_from_cut_by_labels,
    nap_iff_separated_nonedge_by_labels,
    nap_pole_partition_by_colors,
)

CUT_FUNCTIONS = (
    (coloring_from_cut, coloring_from_cut_by_labels),
    (nap_iff_separated_nonedge, nap_iff_separated_nonedge_by_labels),
)


def test_pole_partition_matches_colors_on_small_connected_graphs():
    for g in connected_graphs(max_edges=8, max_vertices=9):
        for c in enumerate_nap(g, modulo_swap=False):
            assert nap_pole_partition(c) == nap_pole_partition_by_colors(c), (g, c.mask)


def outcome(f, g, cut):
    try:
        return f(g, cut)
    except SphflexError as exc:
        return str(exc)


@pytest.mark.parametrize("build", [triangle, k22, k32, k33])
def test_cut_functions_match_four_labels_on_every_bipartition(build):
    g = build()
    labels = marked_labels(g)
    cuts = []
    for key in range(1 << len(labels)):
        side = [label for k, label in enumerate(labels) if key >> k & 1]
        if 2 <= len(side) <= len(labels) - 2:
            cuts.append(cut_for(g, side))
    # cuts that do not partition the graph's labels: one label left out,
    # and labels of absent vertices
    first = cuts[0]
    cuts.append(Cut(first.I, first.J - {min(first.J)}))
    cuts.append(Cut(frozenset({("P", 98), ("Q", 98)}), frozenset({("P", 99), ("Q", 99)})))
    for cut in cuts:
        for new, old in CUT_FUNCTIONS:
            assert outcome(new, g, cut) == outcome(old, g, cut), (g, cut, new.__name__)
