"""The mask and label-count predicates against their string-color and
four-label oracles in ``predicates.py``: the same values, and the same
exceptions with the same messages."""

import pytest

from sphflex.coloring import enumerate_nap, nap_pole_partition
from sphflex.cuts import Cut, coloring_from_cut, nap_iff_separated_nonedge
from sphflex.errors import SphflexError
from sphflex.graphs import k22, k32, k33, triangle

from enumeration import connected_graphs
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
    n = 2 * g.num_vertices
    cuts = [Cut(g.vertices, key) for key in range(1 << n) if 2 <= key.bit_count() <= n - 2]
    # a cut of absent vertices' labels does not partition the graph's
    cuts.append(Cut((98, 99), 0b0011))
    for cut in cuts:
        for new, old in CUT_FUNCTIONS:
            assert outcome(new, g, cut) == outcome(old, g, cut), (g, cut, new.__name__)
